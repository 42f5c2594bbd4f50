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
// recomputed over that span. The plan reads the published snapshot and
// the recompute runs outside ls.mu (sealed rows are immutable, so reading
// them unlocked is safe); the result is spliced into the catalogue under
// the mutex only after re-verifying that the catalogue still begins with
// the entries it was planned on — a concurrent Compact loses the race and
// discards its work. Segments sealed while the recompute ran are preserved
// after the splice point. The spliced catalogue is freshly allocated
// lists, never an in-place edit, because views and other compactions hold
// headers into the old ones; the store draws a fresh view generation and
// publishes the result.
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
	snap := ls.snap.Load()
	segs := snap.cat.segs
	rows := snap.cols.span(0, snap.cat.rowEnd())

	// Plan greedy runs of ≥2 adjacent segments fitting within maxRows.
	type mergeRun struct {
		lo, hi int
		sealed
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
		first, last := segs[r.lo], segs[r.hi-1]
		r.sealed = rows.seal(SegmentInfo{RowLo: first.RowLo, RowHi: last.RowHi, BatchLo: first.BatchLo, BatchHi: last.BatchHi}, sealAll)
	}

	ls.mu.Lock()
	defer ls.mu.Unlock()
	if len(ls.segs) < len(segs) || !slices.Equal(ls.segs[:len(segs)], segs) {
		return 0
	}
	removed := 0
	var merged catalogue
	prev := 0
	for _, r := range runs {
		merged.appendShifted(ls.run(prev, r.lo), 0)
		merged.add(r.sealed)
		prev = r.hi
		removed += r.hi - r.lo - 1
	}
	merged.appendShifted(ls.run(prev, len(ls.segs)), 0)
	ls.catalogue = merged
	ls.gen = nextGeneration()
	ls.publishLocked()
	return removed
}
