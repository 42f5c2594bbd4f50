package store

import (
	"sync"
)

// This file is the LiveStore's MVCC read path. View hands out immutable
// *Store snapshots of the live contents cheaply enough to call per HTTP
// query while ingest keeps running: readers never block writers and
// writers never block readers beyond an O(capture) critical section.
//
// The mechanism is a shared append-only arena. The arena's flat column
// arrays hold the sealed segments' rows (the prefix) followed by a
// mirror of the open builder's rows (the tail). Rows are only ever
// appended past every existing view's visible length — never rewritten
// in place — so a view taken earlier keeps reading exactly the bytes it
// saw, data-race-free, while later refreshes extend the arrays (or
// replace them wholesale; old views keep the old arrays alive). A
// refresh therefore costs O(rows appended since the last view), not
// O(total rows):
//
//   - Tail growth copies only the new open-builder rows and folds them
//     into an incrementally maintained tail zone map.
//   - A seal promotes the mirrored tail in place: the sealed segment IS
//     the old open builder's segment (Builder.Seal freezes, it does not
//     copy), so its first tailRows rows are already in the arena and
//     only the unmirrored suffix is copied.
//   - Only compaction (or an inconsistent basis, which cannot happen in
//     the current seal protocol) rebuilds the arena from scratch into
//     fresh arrays.
//
// Views carry a generation drawn per sealed-segment set: tail-only
// growth keeps the generation, a seal/compaction draws a fresh one. The
// query planner keys its plan cache on that generation, which is what
// lets a hot dashboard query keep hitting the cache across view
// refreshes while rows stream in (see query.Planner).
type viewState struct {
	// mu serializes refreshes and guards every field below. It is never
	// held together with LiveStore.mu: View captures under ls.mu first,
	// then refreshes under vs.mu, so queries refreshing a view never
	// stall ingest.
	mu sync.Mutex

	// The arena columns. [0:prefixRows) mirrors the sealed segments in
	// order; [prefixRows:prefixRows+tailRows) mirrors the open builder's
	// first tailRows rows.
	batch    []uint32
	taskType []uint32
	item     []uint32
	worker   []uint32
	answer   []uint32
	start    []int64
	end      []int64
	trust    []float32

	// The prefix basis: which sealed segments the arena holds. prefixIDs
	// is compared by pointer identity against the live sealed list to
	// detect compaction (segments are immutable, so identity is enough).
	prefixSegs int
	prefixRows int
	prefixIDs  []*Segment

	// Append-only view templates for the prefix: global batch ranges,
	// segment infos and zone maps. Refreshes append, never rewrite, so
	// building a view can copy them without re-deriving anything.
	ranges []rowRange
	segs   []SegmentInfo
	zones  []ZoneMap

	// The mirrored tail: the open builder's segment and how many of its
	// rows the arena holds, plus the incrementally folded tail zone.
	// tailZone is exact for the mirrored rows because rows and zone are
	// captured/advanced together.
	tailSeg         *Segment
	tailRows        int
	tailZone        ZoneMap
	tailTT, tailAns enumSet

	// gen is the generation stamped on views; fresh per segment-set
	// change, stable across tail growth.
	gen uint64

	// cached is the view built by the last refresh, returned verbatim
	// while nothing changed.
	cached *Store

	views, refreshes, rebuilds, copiedRows int64
}

// tailCapture snapshots the open builder under ls.mu: the column slice
// headers clipped to the captured row count (the builder only appends
// past that, so the clipped slices are immutable), a copy of the batch
// ranges (those ARE rewritten in place by Append), and the segment
// pointer for continuation identity.
type tailCapture struct {
	seg              *Segment
	rows             int
	batchLo, batchHi uint32
	ranges           []rowRange

	batch, taskType, item, worker, answer []uint32
	start, end                            []int64
	trust                                 []float32
}

// viewCapture is everything View needs from under ls.mu: O(sealed
// segment count + open batch count), independent of row counts.
type viewCapture struct {
	sealed []*Segment
	tail   tailCapture
}

// captureView snapshots the live state under ls.mu. The capture is
// record-atomic: Append applies whole records under the same mutex.
func (ls *LiveStore) captureView() viewCapture {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	c := viewCapture{sealed: ls.sealed}
	if ls.open != nil && ls.open.Len() > 0 {
		g := ls.open.seg
		t := g.Len()
		c.tail = tailCapture{
			seg: g, rows: t,
			batchLo: g.batchLo, batchHi: g.batchHi,
			ranges:   append([]rowRange(nil), g.ranges...),
			batch:    g.batch[:t:t],
			taskType: g.taskType[:t:t],
			item:     g.item[:t:t],
			worker:   g.worker[:t:t],
			answer:   g.answer[:t:t],
			start:    g.start[:t:t],
			end:      g.end[:t:t],
			trust:    g.trust[:t:t],
		}
	}
	return c
}

// View returns an immutable snapshot of the live contents as a raw-
// resident *Store: sealed segments plus the acknowledged open rows,
// each segment carrying its zone map, stamped with the current view
// generation. The snapshot never changes as more rows arrive, is safe
// for concurrent queries, and shares column storage with other views —
// taking one costs O(rows appended since the previous view).
func (ls *LiveStore) View() *Store {
	c := ls.captureView()
	vs := &ls.view
	vs.mu.Lock()
	defer vs.mu.Unlock()
	vs.views++
	if vs.cached != nil && vs.prefixMatches(c.sealed) &&
		c.tail.seg == vs.tailSeg && c.tail.rows == vs.tailRows {
		return vs.cached
	}
	vs.refreshes++
	vs.refresh(&c)
	vs.cached = vs.buildStore(&c)
	return vs.cached
}

// prefixMatches reports whether the live sealed list still begins with
// exactly the segments the arena prefix mirrors.
func (vs *viewState) prefixMatches(sealed []*Segment) bool {
	if len(sealed) != vs.prefixSegs {
		return false
	}
	for i, g := range vs.prefixIDs {
		if sealed[i] != g {
			return false
		}
	}
	return true
}

// refresh brings the arena up to the captured state.
func (vs *viewState) refresh(c *viewCapture) {
	// Validate the basis: the live sealed list must extend the arena's
	// prefix, and the mirrored tail must still be continuable — either
	// the same open segment with at least as many rows, or sealed as the
	// next prefix segment. Compaction (which replaces sealed segments)
	// fails the check and forces a rebuild from fresh arrays; the old
	// arrays stay alive under any outstanding views.
	ok := len(c.sealed) >= vs.prefixSegs
	if ok {
		for i, g := range vs.prefixIDs {
			if c.sealed[i] != g {
				ok = false
				break
			}
		}
	}
	if ok && vs.tailRows > 0 {
		if len(c.sealed) > vs.prefixSegs {
			ok = c.sealed[vs.prefixSegs] == vs.tailSeg
		} else if c.tail.seg != vs.tailSeg || c.tail.rows < vs.tailRows {
			ok = false
		}
	}
	if !ok {
		vs.reset()
		vs.rebuilds++
	}

	// Extend the prefix with newly sealed segments. The first one may be
	// the sealed form of the segment the tail was mirroring (Seal
	// freezes the builder's segment in place), in which case its first
	// tailRows rows are already in the arena and only the suffix copies.
	prefixGrew := len(c.sealed) > vs.prefixSegs
	for _, g := range c.sealed[vs.prefixSegs:] {
		skip := 0
		if g == vs.tailSeg {
			skip = vs.tailRows
		}
		vs.appendSeg(g, skip)
		vs.clearTail()
	}

	// Mirror the open tail: copy only the rows past what is mirrored,
	// folding them into the running tail zone.
	if c.tail.rows > 0 {
		if vs.tailSeg == nil {
			vs.tailSeg = c.tail.seg
			vs.tailZone = ZoneMap{}
			vs.tailTT = enumSet{cap: zoneEnumCap}
			vs.tailAns = enumSet{cap: zoneEnumCap}
		}
		lo := vs.tailRows
		vs.batch = append(vs.batch, c.tail.batch[lo:]...)
		vs.taskType = append(vs.taskType, c.tail.taskType[lo:]...)
		vs.item = append(vs.item, c.tail.item[lo:]...)
		vs.worker = append(vs.worker, c.tail.worker[lo:]...)
		vs.answer = append(vs.answer, c.tail.answer[lo:]...)
		vs.start = append(vs.start, c.tail.start[lo:]...)
		vs.end = append(vs.end, c.tail.end[lo:]...)
		vs.trust = append(vs.trust, c.tail.trust[lo:]...)
		foldZone(&vs.tailZone, &vs.tailTT, &vs.tailAns,
			c.tail.taskType, c.tail.item, c.tail.worker, c.tail.answer,
			c.tail.start, c.tail.end, c.tail.trust, lo, c.tail.rows)
		vs.copiedRows += int64(c.tail.rows - lo)
		vs.tailRows = c.tail.rows
	}

	if prefixGrew || vs.gen == 0 {
		vs.gen = NextGeneration()
	}
}

// reset drops the arena for a rebuild. The column slices are set nil —
// not truncated — so the rebuild allocates fresh arrays and outstanding
// views keep reading the old ones untouched.
func (vs *viewState) reset() {
	vs.batch, vs.taskType, vs.item, vs.worker, vs.answer = nil, nil, nil, nil, nil
	vs.start, vs.end, vs.trust = nil, nil, nil
	vs.prefixSegs, vs.prefixRows = 0, 0
	vs.prefixIDs = nil
	vs.ranges, vs.segs, vs.zones = nil, nil, nil
	vs.clearTail()
}

// clearTail forgets the mirrored tail (its rows were either promoted
// into the prefix or discarded by a reset).
func (vs *viewState) clearTail() {
	vs.tailSeg = nil
	vs.tailRows = 0
	vs.tailZone = ZoneMap{}
	vs.tailTT = enumSet{cap: zoneEnumCap}
	vs.tailAns = enumSet{cap: zoneEnumCap}
}

// appendSeg extends the arena prefix with sealed segment g, skipping its
// first skip rows (already mirrored as the tail). Template slices only
// ever append here, so concurrent views built from shorter headers stay
// valid.
func (vs *viewState) appendSeg(g *Segment, skip int) {
	base := len(vs.start) - skip
	vs.batch = append(vs.batch, g.batch[skip:]...)
	vs.taskType = append(vs.taskType, g.taskType[skip:]...)
	vs.item = append(vs.item, g.item[skip:]...)
	vs.worker = append(vs.worker, g.worker[skip:]...)
	vs.answer = append(vs.answer, g.answer[skip:]...)
	vs.start = append(vs.start, g.start[skip:]...)
	vs.end = append(vs.end, g.end[skip:]...)
	vs.trust = append(vs.trust, g.trust[skip:]...)
	vs.copiedRows += int64(g.Len() - skip)
	for len(vs.ranges) < int(g.batchHi) {
		vs.ranges = append(vs.ranges, rowRange{})
	}
	for j, rr := range g.ranges {
		if rr.Hi > rr.Lo {
			vs.ranges[g.batchLo+uint32(j)] = rowRange{Lo: rr.Lo + int32(base), Hi: rr.Hi + int32(base)}
		}
	}
	vs.segs = append(vs.segs, SegmentInfo{RowLo: base, RowHi: base + g.Len(), BatchLo: g.batchLo, BatchHi: g.batchHi})
	vs.zones = append(vs.zones, g.zone)
	vs.prefixIDs = append(vs.prefixIDs, g)
	vs.prefixSegs++
	vs.prefixRows = base + g.Len()
}

// buildStore materializes the current arena state as an immutable view
// store: shared column headers clipped to the visible length, plus
// per-view copies of the small metadata (ranges, segment infos, zones —
// the only parts a later refresh would touch).
func (vs *viewState) buildStore(c *viewCapture) *Store {
	n := vs.prefixRows + vs.tailRows
	numBatches := len(vs.ranges)
	if vs.tailRows > 0 && int(c.tail.batchHi) > numBatches {
		numBatches = int(c.tail.batchHi)
	}
	ranges := make([]rowRange, numBatches)
	copy(ranges, vs.ranges)
	nseg := vs.prefixSegs
	if vs.tailRows > 0 {
		nseg++
	}
	segs := make([]SegmentInfo, vs.prefixSegs, nseg)
	copy(segs, vs.segs)
	zones := make([]ZoneMap, vs.prefixSegs, nseg)
	copy(zones, vs.zones)
	if vs.tailRows > 0 {
		off := int32(vs.prefixRows)
		for j, rr := range c.tail.ranges {
			if rr.Hi > rr.Lo {
				ranges[int(c.tail.batchLo)+j] = rowRange{Lo: rr.Lo + off, Hi: rr.Hi + off}
			}
		}
		segs = append(segs, SegmentInfo{RowLo: vs.prefixRows, RowHi: n, BatchLo: c.tail.batchLo, BatchHi: c.tail.batchHi})
		// The running enum sets mutate in place on later folds; views get
		// clones.
		tz := vs.tailZone
		tz.TaskTypes = append([]uint32(nil), tz.TaskTypes...)
		tz.Answers = append([]uint32(nil), tz.Answers...)
		zones = append(zones, tz)
	}
	return &Store{
		batch:    vs.batch[:n:n],
		taskType: vs.taskType[:n:n],
		item:     vs.item[:n:n],
		worker:   vs.worker[:n:n],
		answer:   vs.answer[:n:n],
		start:    vs.start[:n:n],
		end:      vs.end[:n:n],
		trust:    vs.trust[:n:n],
		rows:     n,
		ranges:   ranges,
		segs:     segs,
		zones:    zones,
		fill:     &fillState{},
		gen:      vs.gen,
	}
}

// ViewStats reports the view arena's counters, for /stats and tests.
type ViewStats struct {
	// Generation is the current view generation (0 before the first
	// view).
	Generation uint64
	// Views counts View calls; Refreshes the subset that found new data;
	// Rebuilds the subset that rebuilt the arena from scratch (first
	// view, compaction).
	Views, Refreshes, Rebuilds int64
	// CopiedRows is the total rows ever copied into the arena — the
	// measure of incremental work. Steady-state ingest of k rows costs
	// k copied rows regardless of store size.
	CopiedRows int64
	// Rows and Segments describe the latest view.
	Rows, Segments int
}

// ViewStats returns the current view-arena counters.
func (ls *LiveStore) ViewStats() ViewStats {
	vs := &ls.view
	vs.mu.Lock()
	defer vs.mu.Unlock()
	st := ViewStats{
		Generation: vs.gen,
		Views:      vs.views,
		Refreshes:  vs.refreshes,
		Rebuilds:   vs.rebuilds,
		CopiedRows: vs.copiedRows,
		Rows:       vs.prefixRows + vs.tailRows,
		Segments:   vs.prefixSegs,
	}
	if vs.tailRows > 0 {
		st.Segments++
	}
	return st
}
