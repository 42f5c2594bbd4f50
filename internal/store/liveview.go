package store

import (
	"sync"
)

// This file is the LiveStore's MVCC read path. View hands out immutable
// *Store snapshots of the live contents cheaply enough to call per HTTP
// query while ingest keeps running.
//
// A view copies no row: it is the arena's column headers clipped to the
// row count at capture (see LiveStore — rows below a captured length are
// never rewritten, so the view reads them lock-free for ever), the
// catalogue's segment infos, zone maps, granule directories and column
// encodings, and one more segment for the open tail whose zone map is
// folded incrementally as rows arrive. The tail has no directory and no
// encoding, so both lists cover the view's sealed segments only. Taking one
// costs O(segments) in metadata plus a fold over the rows appended since
// the previous view, whatever the store's size or batch count, and
// neither a seal nor a compaction changes that: both only edit the
// catalogue.
//
// Views carry the store's generation: tail-only growth keeps it, a seal
// or compaction draws a fresh one. The query planner keys its plan cache
// on it, which is what lets a hot dashboard query keep hitting the cache
// across view refreshes while rows stream in (see query.Planner).
type viewState struct {
	// mu serializes View calls, so captures reach the fold in the order
	// they were taken. It is taken before LiveStore.mu, which View holds
	// only for the capture: a query refreshing the view never stalls
	// ingest for longer than that.
	mu sync.Mutex

	// The running zone of the open tail: arena rows [tailLo, folded).
	tailLo, folded  int
	tailZone        ZoneMap
	tailTT, tailAns enumSet

	// cached is the view built by the last refresh, returned verbatim
	// while nothing changed.
	cached *Store

	views, refreshes, foldedRows int64
}

// captureView snapshots the live state under ls.mu, unless cached is
// still current: the whole arena and catalogue as a Store of slice headers
// (see slice), independent of row and batch counts. The capture is
// record-atomic: Append applies whole records under the same mutex.
func (ls *LiveStore) captureView(cached *Store) (st *Store, current bool) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if cached != nil && cached.rows == len(ls.start) && cached.gen == ls.gen {
		return nil, true
	}
	st = slice(&ls.columns, int(ls.nextBatchLocked()), &ls.catalogue, 0, len(ls.segs), len(ls.start))
	st.gen = ls.gen
	return st, false
}

// View returns an immutable snapshot of the live contents as a raw-
// resident *Store: sealed segments plus the acknowledged open rows,
// each segment carrying its zone map and each sealed one the granule
// directory and column encodings its seal or compaction computed,
// stamped with the current view generation. A query folds the sealed
// segments' run-coded keys by runs and the open tail by rows. The snapshot never changes as more rows arrive, is safe
// for concurrent queries, and shares column storage with the live store
// and every other view.
func (ls *LiveStore) View() *Store {
	vs := &ls.view
	vs.mu.Lock()
	defer vs.mu.Unlock()
	vs.views++
	st, current := ls.captureView(vs.cached)
	if current {
		return vs.cached
	}
	vs.refreshes++

	// A seal moved the tail's start (or this is the first view): the tail
	// holds only rows appended since, so the fold starts over.
	sealRows := st.rowEnd()
	if vs.cached == nil || vs.tailLo != sealRows {
		vs.tailLo, vs.folded = sealRows, sealRows
		vs.tailZone = ZoneMap{}
		vs.tailTT, vs.tailAns = enumSet{cap: zoneEnumCap}, enumSet{cap: zoneEnumCap}
	}
	foldZone(&vs.tailZone, &vs.tailTT, &vs.tailAns, &st.columns, vs.folded, st.rows)
	vs.foldedRows += int64(st.rows - vs.folded)
	vs.folded = st.rows

	// The catalogue's lists are shared as captured: the owner only appends
	// past these headers' lengths or installs fresh lists.
	if st.rows > sealRows {
		// The open tail is one more segment with the running zone and no
		// granule directory or encoding. The headers' capacities are
		// clipped, so these appends copy rather than write into the
		// catalogue. The running enum sets mutate in place on later folds;
		// views get clones.
		st.segs = append(st.segs, SegmentInfo{RowLo: sealRows, RowHi: st.rows,
			BatchLo: st.batch[sealRows], BatchHi: uint32(st.numBatches)})
		tz := vs.tailZone
		tz.TaskTypes = append([]uint32(nil), tz.TaskTypes...)
		tz.Answers = append([]uint32(nil), tz.Answers...)
		st.zones = append(st.zones, tz)
	}
	vs.cached = st
	return st
}

// ViewStats reports the view counters, for /stats and tests.
type ViewStats struct {
	// Generation is the latest view's generation (0 before the first
	// view).
	Generation uint64
	// Views counts View calls; Refreshes the subset that found new data.
	// Rebuilds is always 0 — no operation copies the arena — and stays
	// for the readers of this struct.
	Views, Refreshes, Rebuilds int64
	// CopiedRows is the total rows refreshes have visited: the tail-zone
	// fold over rows appended since the previous view. Steady-state
	// ingest of k rows costs k visited rows regardless of store size; no
	// row is copied.
	CopiedRows int64
	// Rows and Segments describe the latest view.
	Rows, Segments int
}

// ViewStats returns the current view counters.
func (ls *LiveStore) ViewStats() ViewStats {
	vs := &ls.view
	vs.mu.Lock()
	defer vs.mu.Unlock()
	st := ViewStats{Views: vs.views, Refreshes: vs.refreshes, CopiedRows: vs.foldedRows}
	if v := vs.cached; v != nil {
		st.Generation, st.Rows, st.Segments = v.gen, v.rows, len(v.segs)
	}
	return st
}
