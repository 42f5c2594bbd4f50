package store

import "math"

// zoneEnumCap bounds the distinct-value sets a zone map keeps for the
// enum-like columns (task type, answer). A segment with more distinct
// values than this stores no set and pruning falls back to the min/max
// range; the cap keeps zone maps a few hundred bytes per segment.
const zoneEnumCap = 32

// MergeZoneMaps folds per-segment (or per-shard) zone maps into one
// summary zone: min/max bounds merge, and the enum sets union when every
// contributing zone kept one and the union stays within the cap.
// Zero-row zones are skipped. This is the selectivity-proxy source the
// query planner scores clauses against — a whole store or manifest
// summarized as a single segment-shaped zone.
func MergeZoneMaps(zs []ZoneMap) ZoneMap {
	var out ZoneMap
	rows := 0
	tts, ans := enumSet{cap: zoneEnumCap}, enumSet{cap: zoneEnumCap}
	ttOK, anOK := true, true
	for i := range zs {
		z := &zs[i]
		if z.Rows == 0 {
			continue
		}
		if rows == 0 {
			out = *z
		} else {
			out.TaskTypeMin = min(out.TaskTypeMin, z.TaskTypeMin)
			out.TaskTypeMax = max(out.TaskTypeMax, z.TaskTypeMax)
			out.ItemMin = min(out.ItemMin, z.ItemMin)
			out.ItemMax = max(out.ItemMax, z.ItemMax)
			out.WorkerMin = min(out.WorkerMin, z.WorkerMin)
			out.WorkerMax = max(out.WorkerMax, z.WorkerMax)
			out.AnswerMin = min(out.AnswerMin, z.AnswerMin)
			out.AnswerMax = max(out.AnswerMax, z.AnswerMax)
			out.StartMin = min(out.StartMin, z.StartMin)
			out.StartMax = max(out.StartMax, z.StartMax)
			out.EndMin = min(out.EndMin, z.EndMin)
			out.EndMax = max(out.EndMax, z.EndMax)
			out.TrustMin = min(out.TrustMin, z.TrustMin)
			out.TrustMax = max(out.TrustMax, z.TrustMax)
		}
		rows += z.Rows
		if z.TaskTypes == nil {
			ttOK = false
		} else {
			for _, v := range z.TaskTypes {
				tts.add(v)
			}
		}
		if z.Answers == nil {
			anOK = false
		} else {
			for _, v := range z.Answers {
				ans.add(v)
			}
		}
	}
	out.Rows = rows
	out.TaskTypes, out.Answers = nil, nil
	if ttOK && !tts.overflow {
		out.TaskTypes = tts.vals
	}
	if anOK && !ans.overflow {
		out.Answers = ans.vals
	}
	return out
}

// A ZoneMap summarizes one segment's column values for scan pruning: the
// per-column min/max, plus the full sorted distinct-value set for the
// enum-like columns when it is small. A query whose predicate cannot
// intersect a segment's zone skips the segment without touching a row —
// at full scale that turns a one-week scan over the 27M-row log into a
// scan of the two segments that cover the week.
//
// Zone maps are computed when a segment is sealed, carried through
// Assemble, persisted in snapshots, and computed lazily for stores that
// lack them (repair-mode loads).
type ZoneMap struct {
	// Rows is the number of rows the zone summarizes; a zone with zero
	// rows matches nothing.
	Rows int

	TaskTypeMin, TaskTypeMax uint32
	ItemMin, ItemMax         uint32
	WorkerMin, WorkerMax     uint32
	AnswerMin, AnswerMax     uint32
	StartMin, StartMax       int64
	EndMin, EndMax           int64
	TrustMin, TrustMax       float32

	// TaskTypes and Answers are the sorted distinct values of their
	// columns when a segment holds at most zoneEnumCap of them; nil when
	// the set overflowed (range pruning still applies).
	TaskTypes []uint32
	Answers   []uint32
}

// enumSet accumulates a small sorted distinct-value set, degrading to nil
// once it exceeds its cap (zoneEnumCap for zone maps, dictMaxEntries for
// the dictionary encoder).
type enumSet struct {
	cap      int
	vals     []uint32
	hit      int // index of the value added last
	overflow bool
}

func (e *enumSet) add(v uint32) {
	if e.overflow {
		return
	}
	// Values arrive in runs (a batch has one task type): the previous
	// value's position answers most calls.
	if e.hit < len(e.vals) && e.vals[e.hit] == v {
		return
	}
	// Sorted insert; sets this small are cheaper to keep sorted than to
	// hash and sort later.
	lo, hi := 0, len(e.vals)
	for lo < hi {
		mid := (lo + hi) / 2
		if e.vals[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	e.hit = lo
	if lo < len(e.vals) && e.vals[lo] == v {
		return
	}
	if len(e.vals) == e.cap {
		e.vals, e.overflow = nil, true
		return
	}
	e.vals = append(e.vals, 0)
	copy(e.vals[lo+1:], e.vals[lo:])
	e.vals[lo] = v
}

// computeZoneMap summarizes rows [lo, hi) of the arena: the fold of those
// rows into an empty zone.
func computeZoneMap(c *columns, lo, hi int) ZoneMap {
	var z ZoneMap
	tts, ans := enumSet{cap: zoneEnumCap}, enumSet{cap: zoneEnumCap}
	foldZone(&z, &tts, &ans, c, lo, hi)
	return z
}

// foldZone extends z (and its running enum sets) with rows [lo, hi) of
// the arena. It is the one place a zone map's bounds are derived: sealing
// folds a whole granule at once, a live view folds its open tail as rows
// arrive.
func foldZone(z *ZoneMap, tts, ans *enumSet, c *columns, lo, hi int) {
	if hi <= lo {
		return
	}
	taskType, item, worker, answer := c.taskType, c.item, c.worker, c.answer
	start, dur, trust := c.start, c.dur, c.trust
	if z.Rows == 0 {
		z.TaskTypeMin, z.TaskTypeMax = taskType[lo], taskType[lo]
		z.ItemMin, z.ItemMax = item[lo], item[lo]
		z.WorkerMin, z.WorkerMax = worker[lo], worker[lo]
		z.AnswerMin, z.AnswerMax = answer[lo], answer[lo]
		z.StartMin, z.StartMax = start[lo], start[lo]
		z.EndMin, z.EndMax = start[lo]+dur[lo], start[lo]+dur[lo]
		z.TrustMin, z.TrustMax = trust[lo], trust[lo]
	}
	for i := lo; i < hi; i++ {
		z.TaskTypeMin = min(z.TaskTypeMin, taskType[i])
		z.TaskTypeMax = max(z.TaskTypeMax, taskType[i])
		z.ItemMin = min(z.ItemMin, item[i])
		z.ItemMax = max(z.ItemMax, item[i])
		z.WorkerMin = min(z.WorkerMin, worker[i])
		z.WorkerMax = max(z.WorkerMax, worker[i])
		z.AnswerMin = min(z.AnswerMin, answer[i])
		z.AnswerMax = max(z.AnswerMax, answer[i])
		z.StartMin = min(z.StartMin, start[i])
		z.StartMax = max(z.StartMax, start[i])
		end := start[i] + dur[i]
		z.EndMin = min(z.EndMin, end)
		z.EndMax = max(z.EndMax, end)
		z.TrustMin = min(z.TrustMin, trust[i])
		z.TrustMax = max(z.TrustMax, trust[i])
		tts.add(taskType[i])
		ans.add(answer[i])
	}
	z.Rows += hi - lo
	z.TaskTypes, z.Answers = tts.vals, ans.vals
}

// GranuleRows is the granularity of the zone directory a sealed segment
// keeps beside its zone map: 64 selection-bitmap words, a sixteenth of a
// query chunk. It is a constant, not a knob — on the time-clustered log a
// worker's four-week window must filter 393k rows at segment granularity,
// 72k at 4,096 and only a quarter fewer at 1,024, for four times the
// directory.
const GranuleRows = 4096

// A Granule is the zone of GranuleRows consecutive segment-local rows (the
// segment's last one may be shorter): what a ZoneMap holds, plus the bounds
// of the batch column — a segment reads those off its SegmentInfo, a slice
// of one has to keep them. The directory of a segment is one Granule per
// GranuleRows rows; it lets a scan skip, or accept without a test, the
// slices of a large compacted segment a predicate cannot or must match.
// Directories exist only in memory: sealing computes them (the segment's
// own ZoneMap is their merge, so rows are still folded once), Assemble,
// views and compaction carry them, and no snapshot stores them — a store
// read from disk derives looser ones from its encodings (deriveGranules).
type Granule struct {
	ZoneMap
	BatchMin, BatchMax uint32
}

// computeGranules folds rows [lo, hi) of the arena into their granule
// directory.
func computeGranules(c *columns, lo, hi int) []Granule {
	gs := make([]Granule, 0, (hi-lo+GranuleRows-1)/GranuleRows)
	for ; lo < hi; lo += GranuleRows {
		ghi := min(lo+GranuleRows, hi)
		g := Granule{ZoneMap: computeZoneMap(c, lo, ghi), BatchMin: c.batch[lo], BatchMax: c.batch[lo]}
		for _, b := range c.batch[lo:ghi] {
			g.BatchMin = min(g.BatchMin, b)
			g.BatchMax = max(g.BatchMax, b)
		}
		gs = append(gs, g)
	}
	return gs
}

// mergeGranules returns the zone map of the rows a directory covers —
// field for field what computeZoneMap gives over the same rows, because
// min, max and the capped set union give the same answer in any grouping
// (a trust bound poisoned by a NaN row is NaN either way; only the NaN's
// payload bits, which min and max do not preserve, depend on it).
func mergeGranules(gs []Granule) ZoneMap {
	zs := make([]ZoneMap, len(gs))
	for i := range gs {
		zs[i] = gs[i].ZoneMap
	}
	return MergeZoneMaps(zs)
}

// deriveGranules gives a segment read from disk the granule directory no
// snapshot stores, from what the load kept: its zone z and the encodings
// e of the columns in disk. Each granule starts as the zone, its batch
// bounds the segment's interval, and a column e holds narrows it: a FOR
// column to the bounds of the granule's frames, [ref, ref+2^w-1] each; an
// RLE column to the granule's exact bounds and, for task type and answer,
// its exact distinct set; End to Start's bounds plus those of its stored
// offsets. Other codes keep the zone's bounds, as does trust where a frame
// reaches bit patterns that do not order as their values. Each granule
// contains the exact zone computeGranules gives on its rows, so pruning by
// it is sound.
func deriveGranules(si SegmentInfo, z *ZoneMap, e *SegmentEnc, disk colMask) []Granule {
	n := si.Rows()
	gs := make([]Granule, (n+GranuleRows-1)/GranuleRows)
	for g := range gs {
		gs[g] = Granule{ZoneMap: *z, BatchMin: si.BatchLo, BatchMax: si.BatchHi - 1}
		gs[g].Rows = min(GranuleRows, n-g*GranuleRows)
	}
	b := make([]ordRange, len(gs))
	// id narrows one uint32 column's bounds and, where set is given and
	// the runs tell it, its distinct set.
	id := func(col colMask, c *EncodedU32, bounds func(*Granule) (lo, hi *uint32), set func(*Granule) *[]uint32) {
		if disk&col == 0 {
			return
		}
		var sets []enumSet
		if set != nil && c.Code == CodeRLE {
			// Each set fills a capped window of one array: no add allocates.
			vals := make([]uint32, len(gs)*zoneEnumCap)
			sets = make([]enumSet, len(gs))
			for g := range sets {
				sets[g] = enumSet{cap: zoneEnumCap, vals: vals[g*zoneEnumCap : g*zoneEnumCap : (g+1)*zoneEnumCap]}
			}
		}
		if !c.granuleRanges(b, sets) {
			return
		}
		for g := range gs {
			lo, hi := bounds(&gs[g])
			*lo, *hi = max(*lo, uint32(b[g].lo)), min(*hi, uint32(b[g].hi))
			if sets != nil {
				*set(&gs[g]) = sets[g].vals
			}
		}
	}
	id(colMaskBatch, &e.Batch, func(g *Granule) (*uint32, *uint32) { return &g.BatchMin, &g.BatchMax }, nil)
	id(colMaskTaskType, &e.TaskType, func(g *Granule) (*uint32, *uint32) { return &g.TaskTypeMin, &g.TaskTypeMax },
		func(g *Granule) *[]uint32 { return &g.TaskTypes })
	id(colMaskItem, &e.Item, func(g *Granule) (*uint32, *uint32) { return &g.ItemMin, &g.ItemMax }, nil)
	id(colMaskWorker, &e.Worker, func(g *Granule) (*uint32, *uint32) { return &g.WorkerMin, &g.WorkerMax }, nil)
	id(colMaskAnswer, &e.Answer, func(g *Granule) (*uint32, *uint32) { return &g.AnswerMin, &g.AnswerMax },
		func(g *Granule) *[]uint32 { return &g.Answers })

	const sign = 1 << 63
	if disk&colMaskStart != 0 && e.Start.granuleRanges(b, nil) {
		for g := range gs {
			gs[g].StartMin = max(gs[g].StartMin, int64(b[g].lo^sign))
			gs[g].StartMax = min(gs[g].StartMax, int64(b[g].hi^sign))
		}
	}
	if disk&colMaskDuration != 0 && e.EndOff.granuleRanges(b, nil) {
		for g := range gs {
			z := &gs[g].ZoneMap
			if lo, ok := addInt64(z.StartMin, int64(b[g].lo^sign)); ok {
				z.EndMin = max(z.EndMin, lo)
			}
			if hi, ok := addInt64(z.StartMax, int64(b[g].hi^sign)); ok {
				z.EndMax = min(z.EndMax, hi)
			}
		}
	}
	if disk&colMaskTrust != 0 && e.Trust.granuleRanges(b, nil) {
		for g := range gs {
			// Patterns above +Inf's are negative values and NaNs.
			if b[g].hi > 0x7f800000 {
				continue
			}
			// Negated, so that a NaN bound, which no comparison holds, is
			// replaced.
			z := &gs[g].ZoneMap
			if lo := math.Float32frombits(uint32(b[g].lo)); !(z.TrustMin >= lo) {
				z.TrustMin = lo
			}
			if hi := math.Float32frombits(uint32(b[g].hi)); !(z.TrustMax <= hi) {
				z.TrustMax = hi
			}
		}
	}
	return gs
}

// addInt64 returns a+b and whether the sum did not overflow.
func addInt64(a, b int64) (int64, bool) {
	s := a + b
	return s, (b >= 0) == (s >= a)
}

// ordRange is an inclusive range of ordinals in value order.
type ordRange struct{ lo, hi uint64 }

// granuleRanges bounds the ordinals, in value order, of every granule of
// the column into b: a FOR column's from its frame directory, each frame
// lying in [ref, ref+2^w-1]; an RLE column's exactly, from the runs the
// granule's rows fall in, whose values it also adds to sets when sets is
// not nil. It reports whether the column's code bounds it that way.
func (e *Encoded[T]) granuleRanges(b []ordRange, sets []enumSet) bool {
	tr := traitsOf[T]()
	for g := range b {
		b[g] = ordRange{lo: ^uint64(0)}
	}
	switch e.Code {
	case CodeFOR:
		if e.frames == nil { // constant: every value is Ref
			for g := range b {
				b[g] = ordRange{e.Ref ^ tr.sign, e.Ref ^ tr.sign}
			}
			return true
		}
		for f := 0; f < len(e.frames)/2; f++ {
			ref, _, w := e.frame(f)
			lo := ref ^ tr.sign
			r := &b[f*frameRows/GranuleRows]
			r.lo, r.hi = min(r.lo, lo), max(r.hi, lo+min(uint64(1)<<w-1, tr.top()-lo))
		}
		return true
	case CodeRLE:
		var blk [frameRows]uint64
		row := 0
		for k := 0; k < len(e.RunVals); k += frameRows {
			m := loadBlock(&blk, e.RunVals[k:min(k+frameRows, len(e.RunVals))])
			for i, o := range blk[:m] {
				o ^= tr.sign
				end := int(e.RunEnds[k+i])
				for g := row / GranuleRows; g*GranuleRows < end; g++ {
					b[g].lo, b[g].hi = min(b[g].lo, o), max(b[g].hi, o)
					if sets != nil {
						sets[g].add(uint32(o))
					}
				}
				row = end
			}
		}
		return true
	}
	return false
}

// Granules returns one granule directory per leading Segments() entry, in
// segment order; a segment at or past the slice's length has none (a
// live view's open tail, a repair-mode load, a dataset shard before any
// column is loaded). Directories are sealed in or derived at load, never
// computed on demand.
func (s *Store) Granules() [][]Granule { return s.filled(0).grans }

// ZoneMaps returns one zone map per Segments() entry, in segment order.
// Stores whose zones were not sealed in (repair-mode loads) compute them
// on first use, in parallel over segments; see filled.
func (s *Store) ZoneMaps() []ZoneMap { return s.filled(sealZone).zones }
