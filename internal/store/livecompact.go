package store

import "slices"

// Compact merges runs of adjacent small sealed segments into single
// segments of at most maxRows rows (clamped to MaxSegmentRows, the
// segment cap snapshots rely on). Live ingest — especially with small
// seal thresholds — accumulates many tiny segments, and per-segment
// costs (zone checks, plan binding, snapshot framing) grow with their
// count; compaction bounds it.
//
// No row moves: a merged segment is the union row span of its run, with
// the granule directory (granules count from their segment's first row,
// so the run's own do not line up), zone map and column encodings
// recomputed over that span. The recompute runs outside ls.mu (sealed
// rows are immutable, so reading them unlocked is safe) and the result is
// spliced into the catalogue under the mutex only after re-verifying that
// the catalogue still begins with the entries it was planned on — a
// concurrent Compact loses the race and discards its work. Segments
// sealed while the recompute ran are preserved after the splice point.
// The spliced catalogue is freshly allocated slices, never an in-place
// edit, because views and other compactions hold headers into the old
// ones; the store draws a fresh view generation.
//
// Compaction changes segment boundaries but never row content or order,
// so query results are unchanged; a checkpoint taken after compaction
// persists the merged layout. Rows: content only — a recovery that
// replays the WAL re-seals at the original boundaries, which is why
// compaction is opt-in (the serve daemon runs it on a ticker) rather
// than automatic inside the deterministic apply path.
//
// It returns the number of segments merged away (0 when nothing
// qualified or a concurrent compaction won).
func (ls *LiveStore) Compact(maxRows int) int {
	if maxRows <= 0 {
		return 0
	}
	maxRows = min(maxRows, MaxSegmentRows) // a merged segment must stay snapshottable
	ls.mu.Lock()
	segs := ls.segs
	st := ls.prefixLocked(ls.sealRows)
	ls.mu.Unlock()

	// Plan greedy runs of ≥2 adjacent segments fitting within maxRows.
	type mergeRun struct {
		lo, hi int
		info   SegmentInfo
		zone   ZoneMap
		gran   []Granule
		enc    SegmentEnc
	}
	var runs []mergeRun
	for i := 0; i < len(segs); {
		j, rows := i, 0
		for j < len(segs) && rows+segs[j].Rows() <= maxRows {
			rows += segs[j].Rows()
			j++
		}
		if j-i >= 2 {
			runs = append(runs, mergeRun{lo: i, hi: j})
			i = j
		} else {
			i++
		}
	}
	if len(runs) == 0 {
		return 0
	}
	for k := range runs {
		r := &runs[k]
		lo, hi := segs[r.lo].RowLo, segs[r.hi-1].RowHi
		r.info = SegmentInfo{RowLo: lo, RowHi: hi, BatchLo: segs[r.lo].BatchLo, BatchHi: segs[r.hi-1].BatchHi}
		r.zone, r.gran, r.enc = st.sealSpan(lo, hi)
	}

	ls.mu.Lock()
	defer ls.mu.Unlock()
	if len(ls.segs) < len(segs) || !slices.Equal(ls.segs[:len(segs)], segs) {
		return 0
	}
	removed := 0
	newSegs := make([]SegmentInfo, 0, len(ls.segs))
	newZones := make([]ZoneMap, 0, len(ls.segs))
	newGrans := make([][]Granule, 0, len(ls.segs))
	newEncs := make([]SegmentEnc, 0, len(ls.segs))
	prev := 0
	for _, r := range runs {
		newSegs = append(append(newSegs, ls.segs[prev:r.lo]...), r.info)
		newZones = append(append(newZones, ls.zones[prev:r.lo]...), r.zone)
		newGrans = append(append(newGrans, ls.grans[prev:r.lo]...), r.gran)
		newEncs = append(append(newEncs, ls.encs[prev:r.lo]...), r.enc)
		prev = r.hi
		removed += r.hi - r.lo - 1
	}
	ls.segs = append(newSegs, ls.segs[prev:]...)
	ls.zones = append(newZones, ls.zones[prev:]...)
	ls.grans = append(newGrans, ls.grans[prev:]...)
	ls.encs = append(newEncs, ls.encs[prev:]...)
	ls.gen = NextGeneration()
	return removed
}
