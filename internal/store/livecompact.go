package store

// Compact merges runs of adjacent small sealed segments into single
// segments of at most maxRows rows (clamped to MaxSegmentRows, the
// segment cap snapshots rely on), re-running the zone-map and
// column-encoding passes on each merged segment (Builder.Seal). Live
// ingest — especially with small seal thresholds — accumulates many
// tiny segments, and per-segment costs (zone checks, plan binding,
// snapshot framing) grow with their count; compaction bounds it.
//
// The merge runs outside ls.mu (segments are immutable, so reading them
// unlocked is safe) and splices the result in under the mutex only
// after re-verifying, by pointer identity, that the sealed list still
// begins with the snapshot it merged — a concurrent Compact loses the
// race and discards its work. Segments sealed while the merge ran are
// preserved after the splice point. The spliced list is a freshly
// allocated slice, never an in-place edit, because view captures hold
// headers into the old one.
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
	sealed := ls.sealed
	ls.mu.Unlock()

	// Plan greedy runs of ≥2 adjacent segments fitting within maxRows.
	type mergeRun struct {
		lo, hi int
		merged *Segment
	}
	var runs []mergeRun
	for i := 0; i < len(sealed); {
		j, rows := i, 0
		for j < len(sealed) && rows+sealed[j].Len() <= maxRows {
			rows += sealed[j].Len()
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
		runs[k].merged = mergeSegments(sealed[runs[k].lo:runs[k].hi])
	}

	ls.mu.Lock()
	defer ls.mu.Unlock()
	if len(ls.sealed) < len(sealed) {
		return 0
	}
	for i, g := range sealed {
		if ls.sealed[i] != g {
			return 0
		}
	}
	removed := 0
	newSealed := make([]*Segment, 0, len(ls.sealed))
	prev := 0
	for _, r := range runs {
		newSealed = append(newSealed, sealed[prev:r.lo]...)
		newSealed = append(newSealed, r.merged)
		prev = r.hi
		removed += r.hi - r.lo - 1
	}
	newSealed = append(newSealed, ls.sealed[prev:]...)
	ls.sealed = newSealed
	return removed
}

// mergeSegments concatenates adjacent sealed segments into one, sealing
// it to recompute the zone map and encodings over the merged rows. Row
// order is preserved exactly: live segments hold rows batch-contiguous
// in ascending batch order, so replaying them row by row through a
// builder reproduces the canonical order byte for byte.
func mergeSegments(segs []*Segment) *Segment {
	b := NewBuilder(segs[0].batchLo, segs[len(segs)-1].batchHi)
	for _, g := range segs {
		var prev uint32
		for i := 0; i < g.Len(); i++ {
			if i == 0 || g.batch[i] != prev {
				prev = g.batch[i]
				b.BeginBatch(prev)
			}
			b.Append(g.Row(i))
		}
	}
	return b.Seal()
}
