package store

import "sync/atomic"

// This file is the LiveStore's MVCC read path. View hands out immutable
// *Store snapshots of the live contents cheaply enough to call per HTTP
// query while ingest keeps running, and no reader takes a lock: after
// every change a view can show — an apply (which may seal), a compaction
// splice, the end of OpenLive — the writer publishes one immutable
// liveSnap while it still holds LiveStore.mu, and View, Rows, NextBatch,
// SealedSegments, ViewStats and Compact's planning read the latest one.
// Neither side ever waits for the other: a reader never stalls behind a
// WAL fsync or a checkpoint, and a writer never behind a query.
//
// A snapshot copies no row: it is the arena's column headers clipped to
// the row count (see LiveStore — rows below a published length are never
// rewritten, so the snapshot reads them lock-free for ever), the
// catalogue's headers and the open tail's zone. Publishing folds the rows
// applied since the last publish into that zone — an Append's rows, or
// once at the end of OpenLive the replayed rows no seal took — and is
// otherwise O(1): one struct plus clones of the tail's enum sets, at most
// zoneEnumCap entries each.
//
// The first View of a snapshot builds its Store — O(segments) in metadata
// — and every later View of it returns that same Store. The tail has no
// granule directory and no encoding, so both lists cover the view's sealed
// segments only.
//
// Views carry the store's generation: tail-only growth keeps it, a seal
// or compaction draws a fresh one. The query planner keys its plan cache
// on it, which is what lets a hot dashboard query keep hitting the cache
// across view refreshes while rows stream in (see query.Planner).
type liveSnap struct {
	cols       columns   // arena headers, clipped to the published rows
	cat        catalogue // the sealed segments
	numBatches int
	gen        uint64
	tail       ZoneMap // the open tail's zone; its enum sets are its own
	folded     int64   // rows published into tail zones since open

	view atomic.Pointer[Store] // built by the snapshot's first View
}

// publishLocked makes the live state what readers see, first folding the
// open tail's new rows into its zone. ls.mu must be held, so snapshots are
// published in the order of the changes they show.
func (ls *LiveStore) publishLocked() {
	if n := len(ls.start); n > ls.tailTo {
		foldZone(&ls.tailZone, &ls.tailTT, &ls.tailAns, &ls.columns, ls.tailTo, n)
		ls.folded += int64(n - ls.tailTo)
		ls.tailTo = n
	}
	tz := ls.tailZone
	tz.TaskTypes = append([]uint32(nil), tz.TaskTypes...)
	tz.Answers = append([]uint32(nil), tz.Answers...)
	ls.snap.Store(&liveSnap{cols: ls.span(0, len(ls.start)), cat: ls.run(0, len(ls.segs)),
		numBatches: int(ls.nextBatchLocked()), gen: ls.gen, tail: tz, folded: ls.folded})
}

// View returns an immutable snapshot of the live contents as a raw-
// resident *Store: sealed segments plus the acknowledged open rows,
// each segment carrying its zone map and each sealed one the granule
// directory and column encodings its seal or compaction computed,
// stamped with the current view generation. A query folds the sealed
// segments' run-coded keys by runs and the open tail by rows. The
// snapshot never changes as more rows arrive, is safe for concurrent
// queries, and shares column storage with the live store and every
// other view.
func (ls *LiveStore) View() *Store {
	ls.views.Add(1)
	s := ls.snap.Load()
	if v := s.view.Load(); v != nil {
		return v
	}
	sealRows, rows := s.cat.rowEnd(), s.cols.len()
	st := slice(&s.cols, s.numBatches, &s.cat, 0, len(s.cat.segs), rows)
	st.gen = s.gen
	if rows > sealRows {
		// The open tail is one more segment with the published zone and no
		// granule directory or encoding. The headers' capacities are
		// clipped, so these appends copy rather than write into the
		// catalogue.
		st.segs = append(st.segs, SegmentInfo{RowLo: sealRows, RowHi: rows,
			BatchLo: s.cols.batch[sealRows], BatchHi: uint32(s.numBatches)})
		st.zones = append(st.zones, s.tail)
	}
	if !s.view.CompareAndSwap(nil, st) {
		return s.view.Load()
	}
	ls.refreshes.Add(1)
	return st
}

// ViewStats reports the view counters, for /stats and tests.
type ViewStats struct {
	// Generation is the published snapshot's generation.
	Generation uint64
	// Views counts View calls; Refreshes the subset that built a snapshot's
	// Store. Rebuilds is always 0 — no operation copies the arena — and
	// stays for the readers of this struct.
	Views, Refreshes, Rebuilds int64
	// CopiedRows is the total rows folded into the open tail's zone since
	// open: every row an Append adds once, whatever the store's size, and
	// of a reopen's replay only the rows left in the open tail. A View
	// folds none, and no row is copied.
	CopiedRows int64
	// Rows and Segments describe the published snapshot: what the next
	// View returns.
	Rows, Segments int
}

// ViewStats returns the current view counters.
func (ls *LiveStore) ViewStats() ViewStats {
	s := ls.snap.Load()
	st := ViewStats{Generation: s.gen, Views: ls.views.Load(), Refreshes: ls.refreshes.Load(),
		CopiedRows: s.folded, Rows: s.cols.len(), Segments: len(s.cat.segs)}
	if st.Rows > s.cat.rowEnd() {
		st.Segments++
	}
	return st
}
