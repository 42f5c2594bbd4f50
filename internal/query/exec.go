package query

import (
	"math"
	"math/bits"
	"sync"

	"crowdscope/internal/store"
)

// setBitsetMaxSpan bounds the value span a set predicate turns into a
// membership bitset (at most 256 KiB of bits); wider sets fall back to
// binary search over the sorted values.
const setBitsetMaxSpan = 1 << 21

// rleKernelMinRunLen is the average run length below which the RLE scan
// kernel loses to a flat compare over the resident raw column.
const rleKernelMinRunLen = 4

// compiled is a predicate prepared for the scan kernels: normalized
// bounds plus a fast membership structure for set predicates.
type compiled struct {
	col      Column
	lo, hi   int64
	flo, fhi float64
	set      []uint32 // sorted; nil unless a set predicate
	bs       []uint64 // membership bitset over [bsBase, bsBase+64*len)
	bsBase   uint32
}

func compile(where []Predicate) []compiled {
	out := make([]compiled, len(where))
	for i, p := range where {
		c := compiled{col: p.Col, lo: p.Lo, hi: p.Hi, flo: p.FLo, fhi: p.FHi, set: p.Set}
		if len(p.Set) > 0 {
			last := p.Set[len(p.Set)-1]
			c.lo, c.hi = int64(p.Set[0]), int64(last)
			if span := last - p.Set[0]; span < setBitsetMaxSpan {
				c.bsBase = p.Set[0]
				c.bs = make([]uint64, span/64+1)
				for _, v := range p.Set {
					d := v - c.bsBase
					c.bs[d/64] |= 1 << (d % 64)
				}
			}
		}
		out[i] = c
	}
	return out
}

// matchesU32 reports set membership for the slow path.
func (c *compiled) matchesU32(v uint32) bool {
	if c.set == nil {
		return int64(v) >= c.lo && int64(v) <= c.hi
	}
	if c.bs != nil {
		if v < c.bsBase {
			return false
		}
		d := v - c.bsBase
		return d/64 < uint32(len(c.bs)) && c.bs[d/64]&(1<<(d%64)) != 0
	}
	lo, hi := 0, len(c.set)
	for lo < hi {
		mid := (lo + hi) / 2
		if c.set[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(c.set) && c.set[lo] == v
}

// predKind selects the scan kernel one predicate uses within one segment.
// The choice is made once per (predicate, segment) at plan time: RLE and
// dictionary kernels always beat their raw counterparts (run-level tests,
// one shift per row), while FOR unpacking is used only when the raw
// column is not resident — unpacking trades a couple of ALU ops per row
// for touching a fraction of the bytes, which wins exactly when it also
// avoids materializing the column.
type predKind uint8

const (
	// kAll marks a predicate the segment's zone proves true for every
	// row; the kernel loop skips it entirely.
	kAll predKind = iota
	// kU32/kI64/kF32 compare a flat array: the segment's rows of the raw
	// column, or a raw-coded encoded column.
	kU32
	kI64
	kF32
	// kRLE ANDs run-level matches into the bitmap without per-row work.
	kRLE
	// kDict tests one bit of a per-segment code mask per row.
	kDict
	// kFOR32/kFOR64/kF32FOR run the flat compare of their value type over
	// a FOR column's frames, decoded one at a time. A duration leaf on an
	// encoded store is a kFOR64 over EndOff.
	kFOR32
	kFOR64
	kF32FOR
)

// matchFn computes one 64-row word of match bits: bit b is set when row
// base+b satisfies the predicate, for b in [0, n), n <= 64; the bits from
// n up are unspecified (evalChunk masks a chunk's tail). Rows are
// segment-local — every column a kernel sees starts at its segment's
// first row — and base is a multiple of 64, as every window evalChunk
// cuts is: one word of a packed column is then one frame, which the
// store's frame reader decodes whole. Every kernel sets its bits without
// a data-dependent branch: the one-armed `if cond { bit = 1 }` compiles
// to a flag move, and is spelled out in each row loop because a helper
// would not inline into a kernel closure that was itself inlined into
// its binder. Shifting by b&63
// spares the row loop the shift-range check the compiler cannot
// otherwise drop.
type matchFn func(base, n int) uint64

// segPred is one predicate resolved against one segment: the kernel kind
// (what EXPLAIN tallies) and the word test eachWord drives. kRLE carries
// its runs instead, because its loop keeps run state across words, and
// tests them against c — the leaf's compiled predicate, which is also
// what bindGranules judges the granule zones by.
type segPred struct {
	kind  predKind
	match matchFn

	runVals, runEnds []uint32
	c                *compiled

	// test[k] marks the granules of the segment's chunk k the leaf has to
	// be evaluated on (see bindGranules).
	test []granMask
}

// granMask holds one bit per granule of a chunk.
type granMask uint16

// chunkGranules is how many granules tile a full chunk.
const chunkGranules = ChunkRows / store.GranuleRows

// eachRun calls fn for every run of set granules in m, as the run's rows
// [r0, r1) within a chunk of n rows and the bitmap words [w0, w1) that
// hold them.
func (m granMask) eachRun(n int, fn func(r0, r1, w0, w1 int)) {
	const granWords = store.GranuleRows / 64
	for m != 0 {
		g0 := bits.TrailingZeros16(uint16(m))
		g1 := g0 + bits.TrailingZeros16(^uint16(m>>g0))
		m &^= 1<<g1 - 1
		fn(g0*store.GranuleRows, min(g1*store.GranuleRows, n), g0*granWords, min(g1*granWords, (n+63)/64))
	}
}

// segBound is a query's execution plan for one segment: the surviving
// clauses in execution order, each a list of OR-leaves. Leaves that cannot
// match any row of the segment are dropped, and a clause some leaf
// provably satisfies for every row is omitted entirely. pruned marks a
// segment some clause proves empty; it is never scanned. live[k] marks the
// granules of chunk k no clause proves empty (see bindGranules).
type segBound struct {
	clauses [][]segPred
	pruned  bool
	live    []granMask
}

// bindTally counts what one store's binding pruned: the numbers the scan
// reports in Stats and EXPLAIN prints, from the one classification both
// run on. Granules are counted over unpruned segments with a directory;
// covered ones are live and need no kernel.
type bindTally struct {
	segsPruned                        int
	granules, granPruned, granCovered int
}

// rawCols memoizes raw column fetches so plan building touches each store
// accessor (and its possible materialization) at most once.
type rawCols struct {
	st     *store.Store
	u32    [ColAnswer + 1][]uint32
	starts []int64
	durs   []int64
	trusts []float32
}

func (g *rawCols) u32Col(col Column) []uint32 {
	if g.u32[col] == nil {
		switch col {
		case ColBatch:
			g.u32[col] = g.st.Batches()
		case ColTaskType:
			g.u32[col] = g.st.TaskTypes()
		case ColItem:
			g.u32[col] = g.st.Items()
		case ColWorker:
			g.u32[col] = g.st.Workers()
		case ColAnswer:
			g.u32[col] = g.st.Answers()
		}
	}
	return g.u32[col]
}

func (g *rawCols) startCol() []int64 {
	if g.starts == nil {
		g.starts = g.st.Starts()
	}
	return g.starts
}

func (g *rawCols) durCol() []int64 {
	if g.durs == nil {
		g.durs = g.st.Durations()
	}
	return g.durs
}

func (g *rawCols) trustCol() []float32 {
	if g.trusts == nil {
		g.trusts = g.st.Trusts()
	}
	return g.trusts
}

// bindStore resolves the prepared clauses against every segment of one
// store, and against every granule of the segments that survive — the
// single bind loop behind both the scan and EXPLAIN. A segment's own
// encoding, where it has one (encodings cover a leading run of segments),
// refines its kernel choice. It returns one binding per segment and what
// was pruned (empty segments included).
func bindStore(st *store.Store, pr *prepared, raw *rawCols) (bound []segBound, t bindTally) {
	segs := st.Segments()
	zones := st.ZoneMaps()
	grans := st.Granules()
	encs := st.SegmentEncodings()
	resd := st.Residency()
	bound = make([]segBound, len(segs))
	for i, si := range segs {
		bound[i].pruned = true
		if si.Rows() > 0 {
			var enc *store.SegmentEnc
			if i < len(encs) {
				enc = &encs[i]
			}
			bound[i] = bindSegment(pr, &zones[i], si, enc, resd, raw)
		}
		if bound[i].pruned {
			t.segsPruned++
			continue
		}
		var dir []store.Granule
		if i < len(grans) {
			dir = grans[i]
		}
		bound[i].bindGranules(si.Rows(), dir, &t)
	}
	return bound, t
}

// bindGranules is the second pruning level: it puts every granule of an
// unpruned segment, per surviving clause, through the tests bindSegment
// put the segment through — leafDisjoint and containsSeg, on the
// granule's zone. A clause all of whose leaves are disjoint kills the
// granule for the whole query (its bitmap words are zero and its rows are
// never scanned, the rule a pruned segment follows); a clause with a
// covering leaf is satisfied there for free; otherwise each leaf runs on
// the granules it is not disjoint from. A segment without a directory is
// the case where nothing can be told: every granule live, every leaf
// tested everywhere.
func (sb *segBound) bindGranules(rows int, dir []store.Granule, t *bindTally) {
	chunks := (rows + ChunkRows - 1) / ChunkRows
	leaves := 0
	for _, cl := range sb.clauses {
		leaves += len(cl)
	}
	// One allocation holds live and every leaf's test masks; all start
	// out as the chunk's granules.
	masks := make([]granMask, (1+leaves)*chunks)
	sb.live, masks = masks[:chunks:chunks], masks[chunks:]
	for k := range sb.live {
		left := (rows - k*ChunkRows + store.GranuleRows - 1) / store.GranuleRows
		sb.live[k] = 1<<min(left, chunkGranules) - 1
	}
	for _, cl := range sb.clauses {
		for li := range cl {
			cl[li].test, masks = masks[:chunks:chunks], masks[chunks:]
			copy(cl[li].test, sb.live)
		}
	}
	for g := range dir {
		z := &dir[g].ZoneMap
		shape := store.SegmentInfo{BatchLo: dir[g].BatchMin, BatchHi: dir[g].BatchMax + 1}
		k, bit := g/chunkGranules, granMask(1)<<(g%chunkGranules)
		for _, cl := range sb.clauses {
			dead, covered := true, false
			for li := range cl {
				if leafDisjoint(cl[li].c, z, shape) {
					cl[li].test[k] &^= bit
					continue
				}
				dead = false
				covered = covered || containsSeg(cl[li].c, z, shape)
			}
			if dead {
				sb.live[k] &^= bit
				break
			}
			if covered {
				for li := range cl {
					cl[li].test[k] &^= bit
				}
			}
		}
	}
	if dir == nil {
		return
	}
	t.granules += len(dir)
	t.granPruned += len(dir)
	for k, live := range sb.live {
		var tested granMask
		for _, cl := range sb.clauses {
			for li := range cl {
				cl[li].test[k] &= live
				tested |= cl[li].test[k]
			}
		}
		t.granPruned -= bits.OnesCount16(uint16(live))
		t.granCovered += bits.OnesCount16(uint16(live &^ tested))
	}
}

// liveRows counts the rows of a chunk's live granules; n is the chunk's
// row count, whose last granule may be short.
func liveRows(live granMask, n int) int {
	rows := bits.OnesCount16(uint16(live)) * store.GranuleRows
	if last := (n - 1) / store.GranuleRows; live>>last&1 != 0 {
		rows -= (last+1)*store.GranuleRows - n
	}
	return rows
}

// bindSegment resolves every prepared clause against one segment. Per
// clause, each OR-leaf is zone-tested first: leaves disjoint from the
// segment are dropped, and a leaf that provably covers the whole segment
// satisfies the clause for free (it is omitted from the binding). A
// clause left with no leaf can match no row, so the whole segment is
// pruned — for a single-conjunct clause this is the classic zone-map
// prune; the encodings refine it (an empty dictionary mask, a FOR range
// outside the span).
func bindSegment(pr *prepared, z *store.ZoneMap, si store.SegmentInfo, enc *store.SegmentEnc, resd store.ColumnSet, raw *rawCols) segBound {
	sb := segBound{clauses: make([][]segPred, 0, len(pr.clauses))}
	for _, orLeaves := range pr.clauses {
		var leaves []segPred
		satisfied := false
		for li := range orLeaves {
			c := &orLeaves[li]
			if leafDisjoint(c, z, si) {
				continue
			}
			if containsSeg(c, z, si) {
				satisfied = true
				break
			}
			sp, empty := resolvePred(c, si, enc, resd, raw)
			if empty {
				continue
			}
			if sp.kind == kAll {
				satisfied = true
				break
			}
			sp.c = c
			leaves = append(leaves, sp)
		}
		if satisfied {
			continue
		}
		if len(leaves) == 0 {
			return segBound{pruned: true}
		}
		sb.clauses = append(sb.clauses, leaves)
	}
	return sb
}

// constPred binds a predicate whose answer is the same for every row of
// the segment (a width-0 FOR column holds one value): all rows or none.
func constPred(matches bool) (segPred, bool) {
	if matches {
		return segPred{kind: kAll}, false
	}
	return segPred{}, true
}

// dictPred binds a dictionary column: the predicate resolves once per
// segment to a mask of matching codes, which settles the segment outright
// when no code or every code matches.
func dictPred[T uint32 | float32](e *store.Encoded[T], matches func(v uint32) bool) (segPred, bool) {
	var mask uint64
	for ci, v := range e.Dict {
		if matches(v) {
			mask |= 1 << ci
		}
	}
	if mask == 0 || mask == uint64(1)<<len(e.Dict)-1 {
		return constPred(mask != 0)
	}
	return segPred{kind: kDict, match: matchDict(e, mask)}, false
}

// u32Pred binds a flat uint32 column.
func u32Pred(col []uint32, c *compiled) segPred {
	if c.set == nil {
		return segPred{kind: kU32, match: matchRange(col, c.lo, c.hi)}
	}
	return segPred{kind: kU32, match: matchSet(col, c)}
}

// resolvePred picks the kernel for one predicate in one segment. Raw
// columns are resliced to the segment's rows here, so every kernel —
// over a raw column or a segment's own encoded form — indexes
// segment-local rows. empty reports a predicate the encoding proves
// matches nothing.
func resolvePred(c *compiled, si store.SegmentInfo, enc *store.SegmentEnc, resd store.ColumnSet, raw *rawCols) (sp segPred, empty bool) {
	// A leaf reads the raw form only when its column is resident.
	resident := resd&colSet(c.col) != 0
	switch c.col {
	case ColStart:
		if enc != nil {
			switch e := &enc.Start; e.Code {
			case store.CodeRaw:
				return segPred{kind: kI64, match: matchRange(e.Raw, c.lo, c.hi)}, false
			case store.CodeFOR:
				if !resident {
					return forRange(kFOR64, e, c)
				}
			}
		}
		return segPred{kind: kI64, match: matchRange(raw.startCol()[si.RowLo:si.RowHi], c.lo, c.hi)}, false
	case ColEnd:
		// End is Start plus the stored duration, which no single-column
		// kernel can filter; scan the two raw columns (materializing them
		// on an encoded-only store — end predicates are rare).
		return segPred{kind: kI64, match: matchEnd(raw.startCol()[si.RowLo:si.RowHi], raw.durCol()[si.RowLo:si.RowHi], c.lo, c.hi)}, false
	case ColDuration:
		// Duration is a stored column: EndOff holds end-start. Like every
		// FOR column it is filtered packed unless its raw form is resident.
		if enc != nil && !resident {
			if enc.EndOff.Code == store.CodeFOR {
				return forRange(kFOR64, &enc.EndOff, c)
			}
			return segPred{kind: kI64, match: matchRange(enc.EndOff.Raw, c.lo, c.hi)}, false
		}
		return segPred{kind: kI64, match: matchRange(raw.durCol()[si.RowLo:si.RowHi], c.lo, c.hi)}, false
	case ColTrust:
		if enc == nil || resident {
			return segPred{kind: kF32, match: matchF32(raw.trustCol()[si.RowLo:si.RowHi], c.flo, c.fhi)}, false
		}
		// Trust encodes over IEEE-754 bit patterns.
		inTrust := func(pattern uint32) bool {
			v := float64(math.Float32frombits(pattern))
			return v >= c.flo && v <= c.fhi
		}
		switch e := &enc.Trust; e.Code {
		case store.CodeRaw:
			return segPred{kind: kF32, match: matchF32(e.Raw, c.flo, c.fhi)}, false
		case store.CodeDict:
			return dictPred(e, inTrust)
		default: // CodeFOR over bit patterns
			if e.Span() == 0 {
				return constPred(inTrust(uint32(e.Ref)))
			}
			return segPred{kind: kF32FOR, match: frameF32(e, c.flo, c.fhi)}, false
		}
	}
	if enc == nil {
		return u32Pred(raw.u32Col(c.col)[si.RowLo:si.RowHi], c), false
	}
	var e *store.EncodedU32
	switch c.col {
	case ColBatch:
		e = &enc.Batch
	case ColTaskType:
		e = &enc.TaskType
	case ColItem:
		e = &enc.Item
	case ColWorker:
		e = &enc.Worker
	case ColAnswer:
		e = &enc.Answer
	}
	switch e.Code {
	case store.CodeRaw:
		return u32Pred(e.Raw, c), false
	case store.CodeRLE:
		// Long runs make the run-level kernel nearly free; short runs
		// (e.g. per-assignment worker repeats) cost more per row than a
		// flat compare, so prefer the raw column when it is resident.
		if e.N < rleKernelMinRunLen*len(e.RunVals) && resident {
			return u32Pred(raw.u32Col(c.col)[si.RowLo:si.RowHi], c), false
		}
		return segPred{kind: kRLE, runVals: e.RunVals, runEnds: e.RunEnds}, false
	case store.CodeDict:
		return dictPred(e, c.matchesU32)
	default: // CodeFOR
		if e.Span() == 0 {
			return constPred(c.matchesU32(uint32(e.Ref)))
		}
		if resident {
			return u32Pred(raw.u32Col(c.col)[si.RowLo:si.RowHi], c), false
		}
		if c.set != nil {
			return segPred{kind: kFOR32, match: frameSet(e, c)}, false
		}
		return forRange(kFOR32, e, c)
	}
}

// forRange binds a range leaf over a FOR column of ids or times (Start,
// or EndOff for a duration leaf). Its values lie in [Ref, Ref+Span] with
// Ref the exact minimum, so a range that misses that interval is exactly
// empty and one covering it exactly full; any other scans the frames.
func forRange[T uint32 | int64](kind predKind, e *store.Encoded[T], c *compiled) (segPred, bool) {
	ref := int64(T(e.Ref))
	if c.hi < ref || c.lo > ref && uint64(c.lo)-uint64(ref) > e.Span() {
		return segPred{}, true
	}
	if c.lo <= ref && uint64(c.hi)-uint64(ref) >= e.Span() {
		return segPred{kind: kAll}, false
	}
	return segPred{kind: kind, match: frameRange(e, c.lo, c.hi)}, false
}

// scratch holds one scan worker's reusable buffers: the selection bitmaps
// (the main bitmap plus the OR-group accumulator and per-leaf install
// target) and the per-vector buffers of the probe, slot and fold stages —
// selected row offsets, the two key vectors, slots and gathered values.
type scratch struct {
	bm, or, tmp []uint64
	direct      []uint32 // dense slot table: slot+1 by key offset, 0 = unseen
	sel, slot   [vecRows]uint32
	runEnd      [vecRows]uint32 // last row of each run of equal slots
	k0, k1      [vecRows]int64
	fv          [vecRows]float64
}

// scratchPool recycles scratch across scans, so a point query does not pay
// for clearing 40 KiB of vector buffers it barely uses.
var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// chunkCtx carries everything evalChunk needs: the per-segment clause
// bindings and zone maps plus the fold-phase columns the query's
// aggregates read (fetched once in newChunkCtx; nil when the query does not
// need them, so count-only queries over an encoded store never
// materialize a column).
type chunkCtx struct {
	q     *Query
	segs  []store.SegmentInfo
	zones []store.ZoneMap
	bound []segBound

	vals    []int64 // the integer value: Durations for ValueDuration, Starts for ValueStart
	trusts  []float32
	distCol []uint32
	keys    [2]keySel
	// runs holds, per segment, the runs the fold walks instead of the key
	// column (foldRuns); nil where the segment folds by rows, and nil
	// throughout for a query the run form does not apply to.
	runs []*store.EncodedU32
}

// evalChunk runs the streaming stages for rows [lo, hi) of one segment:
// filter the chunk through the segment's bound clauses into a selection
// bitmap, then probe, slot and fold the surviving rows (in row order) into
// the chunk's columnar partial — see iter.go. The bitmap starts out as the
// chunk's live granules, all ones, and every leaf ANDs itself in over the
// runs of granules it has to be tested on: a dead granule's words stay
// zero, a covered one's stay set, and neither meets a kernel. The filter
// kernels see the chunk as segment-local rows; the fold reads the
// store-wide columns.
func evalChunk(cc *chunkCtx, seg, lo, hi int, sc *scratch) (partial, error) {
	n := hi - lo
	words := (n + 63) / 64
	if cap(sc.bm) < words {
		sc.bm = make([]uint64, words)
	}
	bm := sc.bm[:words]
	sb := &cc.bound[seg]
	llo := lo - cc.segs[seg].RowLo
	k := llo / ChunkRows

	clear(bm)
	sb.live[k].eachRun(n, func(_, _, w0, w1 int) {
		for w := w0; w < w1; w++ {
			bm[w] = ^uint64(0)
		}
	})
	for _, leaves := range sb.clauses {
		if len(leaves) == 1 {
			leaves[0].test[k].eachRun(n, func(r0, r1, w0, w1 int) {
				leaves[0].eval(llo+r0, llo+r1, bm[w0:w1], false)
			})
			continue
		}
		// OR-group: where any leaf is tested, install each tested leaf
		// into its own buffer (install mode writes every word, so no
		// clearing is needed), OR the leaves together, then combine the
		// group into the main bitmap like any other clause.
		var tested granMask
		for li := range leaves {
			tested |= leaves[li].test[k]
		}
		if tested == 0 {
			continue
		}
		if cap(sc.or) < words {
			sc.or = make([]uint64, words)
			sc.tmp = make([]uint64, words)
		}
		or, tmp := sc.or[:words], sc.tmp[:words]
		clear(or)
		for li := range leaves {
			leaves[li].test[k].eachRun(n, func(r0, r1, w0, w1 int) {
				leaves[li].eval(llo+r0, llo+r1, tmp[w0:w1], true)
				for w := w0; w < w1; w++ {
					or[w] |= tmp[w]
				}
			})
		}
		tested.eachRun(n, func(_, _, w0, w1 int) {
			for w := w0; w < w1; w++ {
				bm[w] &= or[w]
			}
		})
	}
	// Mask the tail bits beyond the chunk.
	if tail := n % 64; tail != 0 {
		bm[words-1] &= (1 << tail) - 1
	}

	return foldChunk(cc, seg, lo, bm, sc)
}

// eval filters segment-local rows [lo, hi) through one bound leaf into
// bm, which holds one bit per row of the window. With first=true the
// leaf's match word is installed into every bitmap word; otherwise it is
// ANDed in.
func (sp *segPred) eval(lo, hi int, bm []uint64, first bool) {
	if sp.kind == kRLE {
		evalRLE(sp.runVals, sp.runEnds, sp.c, lo, hi, bm, first)
		return
	}
	eachWord(bm, lo, hi, first, sp.match)
}

// eachWord is the one word loop behind every per-row kernel: it walks the
// window 64 rows at a time, skips words that are already dead (AND mode
// only — install mode must write every word), asks match for the word's
// bits and installs or ANDs them. A kernel is just its match function.
func eachWord(bm []uint64, lo, hi int, first bool, match matchFn) {
	for w := range bm {
		if !first && bm[w] == 0 {
			continue
		}
		base := lo + w*64
		word := match(base, min(64, hi-base))
		if first {
			bm[w] = word
		} else {
			bm[w] &= word
		}
	}
}

// matchNone is the kernel of a range no value lies in.
func matchNone(int, int) uint64 { return 0 }

// frameOf returns the frame a match word starting at segment-local row
// base covers: a packed kernel's windows start on a frame.
func frameOf(base int) int {
	if base&63 != 0 {
		panic("query: packed kernel window does not start on a frame")
	}
	return base >> 6
}

// matchRange tests lo <= v <= hi over uint32 or int64 values, as one
// unsigned compare of v-lo against the span.
func matchRange[T uint32 | int64](col []T, plo, phi int64) matchFn {
	if phi < plo {
		return matchNone
	}
	lo, span := uint64(plo), uint64(phi)-uint64(plo)
	return func(base, n int) uint64 { return rangeBits(col[base:base+n], lo, span) }
}

// frameRange is matchRange over a FOR column's frames. A value's ordinal
// is uint64(int64(v)) and a frame's are its reference plus its deltas, so
// the same compare runs on the deltas against lo less the reference. The
// frame directory decides most frames first (frameVerdict): a time-sorted
// column's frames are narrow, so a window's frames are nearly all wholly
// inside or outside it and never unpack.
func frameRange[T uint32 | int64](e *store.Encoded[T], plo, phi int64) matchFn {
	if phi < plo {
		return matchNone
	}
	lo, span := uint64(plo), uint64(phi)-uint64(plo)
	return func(base, n int) uint64 {
		f := frameOf(base)
		ref, fspan := e.FrameBounds(f)
		switch frameVerdict(ref-lo, fspan, span) {
		case frameIn:
			return ^uint64(0) >> (64 - n)
		case frameOut:
			return 0
		}
		var deltas [64]uint64
		e.Frame(&deltas, f)
		return rangeBits(deltas[:n], lo-ref, span)
	}
}

// The verdicts of frameVerdict.
const (
	frameMixed = iota // the deltas decide
	frameIn           // every row matches
	frameOut          // no row matches
)

// frameVerdict decides a frame against a range from the frame's bounds
// alone. A row matches when a+d <= span, modulo 2^64 as rangeBits
// compares, where a is the frame's reference less the range's low end and
// d the row's delta, which its width bounds by fspan. Every row matches
// when a <= span and a+fspan cannot pass span; none does when a > span and
// a+fspan does not wrap. Both rest only on d <= fspan, which every packed
// frame satisfies, so a verdict is the word the unpack would give;
// canonical frames (least delta 0 at the exact width, which the seal
// builds and checkFrames demands of every loaded column) keep fspan under
// twice the frame's real spread, so few frames the range's ends do not
// cut are left undecided.
func frameVerdict(a, fspan, span uint64) int {
	switch {
	case a <= span && fspan <= span-a:
		return frameIn
	case a > span && fspan <= ^uint64(0)-a:
		return frameOut
	}
	return frameMixed
}

func rangeBits[E uint32 | int64 | uint64](vals []E, lo, span uint64) uint64 {
	var word uint64
	for b, v := range vals {
		var bit uint64
		if uint64(int64(v))-lo <= span {
			bit = 1
		}
		word |= bit << (b & 63)
	}
	return word
}

// matchSet tests set membership over uint32 values.
func matchSet(col []uint32, c *compiled) matchFn {
	return func(base, n int) uint64 { return setBits(col[base:base+n], 0, c) }
}

// frameSet is matchSet over a FOR column's frames: each value is its
// frame's reference plus its delta.
func frameSet(e *store.EncodedU32, c *compiled) matchFn {
	return func(base, n int) uint64 {
		var deltas [64]uint64
		ref := e.Frame(&deltas, frameOf(base))
		return setBits(deltas[:n], ref, c)
	}
}

func setBits[E uint32 | uint64](vals []E, ref uint64, c *compiled) uint64 {
	var word uint64
	if bs := c.bs; bs != nil {
		// A bitset set without a branch: a value below the base wraps past
		// the bitset's words, so one range test of the word index answers
		// every value — it sends an index out of range to word 0 and masks
		// the bit read there.
		last := uint32(len(bs) - 1)
		for b, v := range vals {
			d := uint32(ref+uint64(v)) - c.bsBase
			w := d >> 6
			in := uint32(0)
			if w <= last {
				in = 1
			}
			word |= bs[w&-in] >> (d & 63) & uint64(in) << (b & 63)
		}
		return word
	}
	for b, v := range vals {
		var bit uint64
		if c.matchesU32(uint32(ref + uint64(v))) {
			bit = 1
		}
		word |= bit << (b & 63)
	}
	return word
}

// matchF32 tests lo <= v <= hi over float32 values; both compares are
// false for a NaN, which therefore never matches.
func matchF32(col []float32, plo, phi float64) matchFn {
	return func(base, n int) uint64 { return f32Bits(col[base:base+n], plo, phi) }
}

// frameF32 is matchF32 over a FOR column of bit patterns: the compare
// runs on the floats the frame reader's patterns spell.
func frameF32(e *store.EncodedF32, plo, phi float64) matchFn {
	return func(base, n int) uint64 {
		var deltas [64]uint64
		var vals [64]float32
		ref := e.Frame(&deltas, frameOf(base))
		for i, d := range deltas[:n] {
			vals[i] = math.Float32frombits(uint32(ref + d))
		}
		return f32Bits(vals[:n], plo, phi)
	}
}

func f32Bits(vals []float32, plo, phi float64) uint64 {
	var word uint64
	for b, v := range vals {
		var ge, le uint64
		if float64(v) >= plo {
			ge = 1
		}
		if float64(v) <= phi {
			le = 1
		}
		word |= (ge & le) << (b & 63)
	}
	return word
}

// matchEnd tests the end time, rebuilding start+duration per row from
// the two raw columns.
func matchEnd(starts, durs []int64, plo, phi int64) matchFn {
	if phi < plo {
		return matchNone
	}
	lo, span := uint64(plo), uint64(phi)-uint64(plo)
	return func(base, n int) uint64 {
		var word uint64
		durs := durs[base : base+n]
		for b, s := range starts[base : base+n] {
			var bit uint64
			if uint64(s+durs[b])-lo <= span {
				bit = 1
			}
			word |= bit << (b & 63)
		}
		return word
	}
}

// matchDict tests a dictionary column against the per-segment code mask:
// each row costs one mask bit of the code the frame reader returns.
func matchDict[T uint32 | float32](e *store.Encoded[T], mask uint64) matchFn {
	return func(base, _ int) uint64 {
		var codes [64]uint64
		e.Frame(&codes, frameOf(base))
		var word uint64
		for b, code := range &codes {
			word |= (mask >> (code & 63) & 1) << (b & 63)
		}
		return word
	}
}

// evalRLE evaluates a predicate over an RLE column with one test per run
// (memoized across the words a long run spans): matching runs translate
// to whole bit ranges, so a chunk costs work proportional to its run
// count, not its row count. It keeps its own word loop — the one kernel
// outside eachWord — because the run cursor carries across words, dead
// ones included. Short-run columns (e.g. per-assignment workers) stay
// competitive with a raw scan while long-run columns (batch, task type)
// cost almost nothing.
func evalRLE(runVals, runEnds []uint32, c *compiled, lo, hi int, bm []uint64, first bool) {
	// First run whose end exceeds lo.
	ri, rhi := 0, len(runEnds)
	for ri < rhi {
		mid := (ri + rhi) / 2
		if int(runEnds[mid]) <= lo {
			ri = mid + 1
		} else {
			rhi = mid
		}
	}
	memoRi, memoMatch := -1, false
	for w := range bm {
		base := lo + w*64
		wend := min(base+64, hi)
		if !first && bm[w] == 0 {
			for ri < len(runEnds) && int(runEnds[ri]) <= wend {
				ri++
			}
			continue
		}
		var word uint64
		pos := base
		for pos < wend {
			end := min(int(runEnds[ri]), wend)
			if ri != memoRi {
				memoRi, memoMatch = ri, c.matchesU32(runVals[ri])
			}
			if memoMatch {
				n := end - pos
				word |= (^uint64(0) >> (64 - n)) << (pos - base)
			}
			pos = end
			if int(runEnds[ri]) <= wend {
				ri++
			}
		}
		if first {
			bm[w] = word
		} else {
			bm[w] &= word
		}
	}
}
