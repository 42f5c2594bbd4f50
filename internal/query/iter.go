package query

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"crowdscope/internal/model"
	"crowdscope/internal/store"
)

// This file is the result half of chunk execution. The filter stage
// (evalChunk, exec.go) leaves a selection bitmap; its rows then flow, at
// most vecRows at a time, through three vectorized stages: probe gathers
// the selected row offsets and fills one key vector per group key, slot
// maps keys to group slots, fold runs one tight loop per requested
// aggregate over (row, slot) into the chunk's columnar partial. Vectors
// are cut and walked in ascending row order, so every slot receives its
// rows in row order; with chunk-order merging (mergeFinalize) that keeps
// results, float sums included, bit-identical for every Workers value.

const (
	// vecRows is the stage granularity: the per-vector buffers stay in L1.
	vecRows = 1024
	// denseMaxSlots bounds a direct-indexed slot table (4 MiB of uint32).
	// A chunk uses one when its composite key domain spans no more slots
	// than this, and the merge when the merged keys' domain does; any other
	// finds slots through keyIndex. A table is all zero between uses: each
	// use clears only the entries of the keys it handed out, so a point
	// query pays for what it folds, not for the domain.
	denseMaxSlots = 1 << 20
)

// keySel is the probe stage for one group key: the column, time bucket or
// joined attribute array its keys come from, and the zone column or
// attribute bounds that give the key's domain within a segment.
type keySel struct {
	g      GroupBy
	zcol   Column
	col    []uint32 // key/ID column for direct and joined keys
	starts []int64  // start column for the time buckets
	attr   []int64  // joined keys are attr[col[row]]
	bounds [2]int64 // min and max of attr
}

// resolveKeys binds the query's group keys to their probe sources. A
// single-key query keeps GroupNone (key 0) in the second position, so the
// stages always handle two key vectors. byRows false means every segment
// folds by the key's runs, so no key column is fetched.
func (cc *chunkCtx) resolveKeys(q *Query, raw *rawCols, tabs *SideTables, byRows bool) {
	for i, g := range q.groupKeys() {
		ks := keySel{g: g, zcol: zoneCols[g]}
		if ks.zcol == ColStart {
			ks.starts = raw.startCol()
		} else if ks.zcol != ColNone && byRows {
			ks.col = raw.u32Col(ks.zcol)
		}
		if jc := g.groupCol(); jc != ColNone {
			ks.attr, ks.bounds = tabs.attrArray(jc), tabs.bounds[jc]
		}
		cc.keys[i] = ks
	}
}

// zoneCols names the physical column behind each group key: the one its
// probe reads and whose zone bounds the key (or the joined ID).
var zoneCols = map[GroupBy]Column{
	GroupBatch: ColBatch, GroupWorker: ColWorker, GroupTaskType: ColTaskType,
	GroupWeek: ColStart, GroupDay: ColStart, GroupBatchWeek: ColBatch,
	GroupWorkerSource: ColWorker, GroupWorkerCountry: ColWorker, GroupWorkerClass: ColWorker,
}

var groupCols = map[GroupBy]Column{
	GroupWorkerSource: ColWorkerSource, GroupWorkerCountry: ColWorkerCountry,
	GroupWorkerClass: ColWorkerClass, GroupBatchWeek: ColBatchWeek,
}

// groupCol returns the join column a grouped attribute key reads, or
// ColNone for direct keys — the planner's coverage check uses it.
func (g GroupBy) groupCol() Column { return groupCols[g] }

// probe fills keys[i] with the key of chunk row sel[i], one typed loop per
// key kind; lo is the chunk's first store row. False reports an ID beyond
// its attribute table, which coverage rules out unless a zone map lies.
func (ks *keySel) probe(keys []int64, sel []uint32, lo int) bool {
	switch {
	case ks.g == GroupNone:
		clear(keys)
	case ks.starts != nil:
		starts := ks.starts[lo:]
		if ks.g == GroupWeek {
			for i, r := range sel {
				keys[i] = int64(model.WeekOfUnix(starts[r]))
			}
		} else {
			for i, r := range sel {
				keys[i] = int64(model.DayOfUnix(starts[r]))
			}
		}
	case ks.attr != nil:
		col, attr := ks.col[lo:], ks.attr
		for i, r := range sel {
			id := col[r]
			if int(id) >= len(attr) {
				return false
			}
			keys[i] = attr[id]
		}
	default:
		col := ks.col[lo:]
		for i, r := range sel {
			keys[i] = int64(col[r])
		}
	}
	return true
}

// domain returns the key's range [lo, lo+span) within one segment, from
// the zone map or the attribute bounds; ok is false when it is unknown,
// empty or wider than denseMaxSlots.
func (ks *keySel) domain(z *store.ZoneMap, si store.SegmentInfo) (lo, span int64, ok bool) {
	var hi int64
	switch {
	case ks.g == GroupNone:
	case ks.attr != nil:
		lo, hi = ks.bounds[0], ks.bounds[1]
	default:
		d := zoneDomain(ks.zcol, z, si)
		lo, hi = d.lo, d.hi
		if ks.starts != nil && lo <= hi {
			// Buckets are monotone in the start time only while sec-epoch
			// does not wrap and the day index fits its int32.
			if epoch := model.DayUnix(0); lo < math.MinInt64+epoch || (hi-epoch)/86400 > math.MaxInt32 {
				return 0, 0, false
			}
			if ks.g == GroupWeek {
				lo, hi = int64(model.WeekOfUnix(lo)), int64(model.WeekOfUnix(hi))
			} else {
				lo, hi = int64(model.DayOfUnix(lo)), int64(model.DayOfUnix(hi))
			}
		}
	}
	if hi < lo || uint64(hi-lo) >= denseMaxSlots {
		return 0, 0, false
	}
	return lo, hi - lo + 1, true
}

// keyIndex assigns slots to group keys in first-seen order: one flat
// open-addressing table of slot+1 (0 is empty) over the keys themselves.
// It is the general slot stage of a chunk and the group index of the merge.
type keyIndex struct {
	keys []gkey
	tab  []uint32 // len is a power of two, at most half full
}

// slot returns the key's slot, assigning the next one to a new key.
func (x *keyIndex) slot(k gkey) uint32 {
	if 2*len(x.keys) >= len(x.tab) {
		x.tab = make([]uint32, max(64, 2*len(x.tab)))
		for i, k := range x.keys {
			h := x.hash(k)
			for x.tab[h] != 0 {
				h = (h + 1) & uint32(len(x.tab)-1)
			}
			x.tab[h] = uint32(i + 1)
		}
	}
	for h := x.hash(k); ; h = (h + 1) & uint32(len(x.tab)-1) {
		switch e := x.tab[h]; {
		case e == 0:
			x.keys = append(x.keys, k)
			x.tab[h] = uint32(len(x.keys))
			return uint32(len(x.keys) - 1)
		case x.keys[e-1] == k:
			return e - 1
		}
	}
}

func (x *keyIndex) hash(k gkey) uint32 {
	h := uint64(k[0])*0x9E3779B97F4A7C15 ^ uint64(k[1])*0xC2B2AE3D27D4EB4F
	return uint32(h>>32) & uint32(len(x.tab)-1)
}

// cols are the columnar aggregates, one element per slot; only the columns
// the query's Value reads are allocated. Duration and start sum exactly in
// sumI, trust in sumF; min and max are float64 for every value kind.
type cols struct {
	count, sumI    []int64
	sumF, min, max []float64
}

// grow extends the columns to n slots holding each aggregate's identity.
func (c *cols) grow(v Value, n int) {
	c.count = growTo(c.count, n, 0)
	if v == ValueNone {
		return
	}
	if v == ValueTrust {
		c.sumF = growTo(c.sumF, n, 0)
	} else {
		c.sumI = growTo(c.sumI, n, 0)
	}
	c.min = growTo(c.min, n, math.Inf(1))
	c.max = growTo(c.max, n, math.Inf(-1))
}

// reserve makes room in the columns for n slots without adding any.
func (c *cols) reserve(v Value, n int) {
	c.grow(v, n)
	c.count, c.sumI, c.sumF, c.min, c.max = c.count[:0], c.sumI[:0], c.sumF[:0], c.min[:0], c.max[:0]
}

func growTo[T any](s []T, n int, fill T) []T {
	old := len(s)
	if n <= old {
		return s
	}
	s = slices.Grow(s, n-old)[:n]
	for i := old; i < n; i++ {
		s[i] = fill
	}
	return s
}

// distinctSets holds one set of uint32 values per slot: words bitset words
// per slot over [base, base+64*words) when the distinct column's zone
// domain times the slots stays within setBitsetMaxSpan bits, one map of
// slot<<32|value pairs otherwise.
type distinctSets struct {
	base  uint32
	words int
	bits  []uint64
	pairs map[uint64]struct{}
}

// newDistinctSets picks the form for values in [lo, hi] and up to n slots.
func newDistinctSets(lo, hi int64, n int) distinctSets {
	if lo >= 0 && lo <= hi && hi <= math.MaxUint32 {
		base := uint32(lo) &^ 63
		if words := int((uint32(hi)-base)/64) + 1; n*words*64 <= setBitsetMaxSpan {
			return distinctSets{base: base, words: words}
		}
	}
	return distinctSets{pairs: make(map[uint64]struct{})}
}

// add inserts col[sel[i]] into slot[i]'s set, of n slots so far; false
// reports a value outside the bitset's range.
func (d *distinctSets) add(col []uint32, sel, slot []uint32, n int) bool {
	if d.words == 0 {
		for i, r := range sel {
			d.pairs[uint64(slot[i])<<32|uint64(col[r])] = struct{}{}
		}
		return true
	}
	d.bits = growTo(d.bits, n*d.words, 0)
	for i, r := range sel {
		v := col[r] - d.base
		if int(v>>6) >= d.words {
			return false
		}
		d.bits[int(slot[i])*d.words+int(v>>6)] |= 1 << (v & 63)
	}
	return true
}

// union merges o's sets into d's, slot s into slot gid[s]. A bitset d only
// takes bitset partials whose range it covers (mergeFinalize sees to it).
func (d *distinctSets) union(o *distinctSets, gid []uint32) {
	for p := range o.pairs {
		d.pairs[uint64(gid[p>>32])<<32|p&math.MaxUint32] = struct{}{}
	}
	for s := 0; s*o.words < len(o.bits); s++ {
		g := int(gid[s])
		for w, word := range o.bits[s*o.words : (s+1)*o.words] {
			if d.words > 0 {
				d.bits[g*d.words+int(o.base-d.base)/64+w] |= word
				continue
			}
			for ; word != 0; word &= word - 1 {
				v := o.base + uint32(w*64+bits.TrailingZeros64(word))
				d.pairs[uint64(g)<<32|uint64(v)] = struct{}{}
			}
		}
	}
}

// sizes returns the distinct count of each of n slots.
func (d *distinctSets) sizes(n int) []int {
	out := make([]int, n)
	for p := range d.pairs {
		out[p>>32]++
	}
	for i, word := range d.bits {
		out[i/d.words] += bits.OnesCount64(word)
	}
	return out
}

// partial is one chunk's aggregation output: its groups' keys in
// first-seen order (idx.keys), their aggregates by slot, and for p50 the
// chunk's values with their slots in row order (mergeFinalize scatters
// them by group).
type partial struct {
	matched int64
	idx     keyIndex
	cols
	vals  []float64
	vslot []uint32
	dist  distinctSets
	gid   []uint32 // slot → merged group, filled by mergeFinalize
}

// testCountOnly counts the chunks foldChunk folded count-only, for the
// tests that check the path is taken.
var testCountOnly atomic.Int64

// foldChunk folds the selected rows of one chunk (bm holds one bit per
// row from store row lo on) into its partial: as one counted group for a
// count-only query, by runs where the chunk's segment stores the one group
// key as runs (cc.runs, see foldRuns), by probe → slot → fold over vectors
// of rows everywhere else. Slots are handed out in first-seen order either
// way — a dense chunk finds a key's slot in sc.direct at
// (k0-lo0)*span1 + (k1-lo1), any other in p.idx's hash table — so
// everything after the slot stage is one path.
func foldChunk(cc *chunkCtx, seg, lo int, bm []uint64, sc *scratch) (p partial, _ error) {
	for _, word := range bm {
		p.matched += int64(bits.OnesCount64(word))
	}
	if p.matched == 0 {
		return p, nil
	}
	q, z, si := cc.q, &cc.zones[seg], cc.segs[seg]
	if cc.keys[0].g == GroupNone && cc.keys[1].g == GroupNone && q.Value == ValueNone && q.Distinct == ColNone {
		// One group, counted by the popcount above: no key, value or
		// distinct column has a row to read or a zone to check.
		testCountOnly.Add(1)
		p.idx.keys, p.count = []gkey{{}}, []int64{p.matched}
		return p, nil
	}
	lo0, span0, ok0 := cc.keys[0].domain(z, si)
	lo1, span1, ok1 := cc.keys[1].domain(z, si)
	slots := p.matched // a chunk hands out at most one slot per row
	dense := ok0 && ok1 && span0*span1 <= denseMaxSlots
	if dense {
		sc.direct = growTo(sc.direct, int(span0*span1), 0)
		defer clearDirect(sc.direct, &p.idx, lo0, lo1, span1)
		slots = min(slots, span0*span1)
	}
	if q.P50 {
		p.vals = make([]float64, 0, p.matched)
		p.vslot = make([]uint32, 0, p.matched)
	}
	if q.Distinct != ColNone {
		d := zoneDomain(q.Distinct, z, si)
		p.dist = newDistinctSets(d.lo, d.hi, int(slots))
	}
	// corrupt reports a key, joined ID or distinct value outside what the
	// segment's zone map admits.
	corrupt := func(what string) error {
		return fmt.Errorf("query: segment %d: %s outside its zone domain: %w", seg, what, store.ErrCorrupt)
	}
	if cc.runs != nil && cc.runs[seg] != nil {
		return p, p.foldRuns(cc, seg, lo, bm, sc, dense, corrupt)
	}

	// foldVec pushes the n gathered rows of sc.sel through the stages.
	foldVec := func(n int) error {
		if n == 0 {
			return nil
		}
		sel, slot, k0, k1 := sc.sel[:n], sc.slot[:n], sc.k0[:n], sc.k1[:n]
		if !cc.keys[0].probe(k0, sel, lo) || !cc.keys[1].probe(k1, sel, lo) {
			return corrupt("joined ID")
		}

		if dense {
			direct, span0, span1 := sc.direct, uint64(span0), uint64(span1)
			for i := range slot {
				d0, d1 := uint64(k0[i]-lo0), uint64(k1[i]-lo1)
				if d0 >= span0 || d1 >= span1 {
					return corrupt("group key")
				}
				e := direct[d0*span1+d1]
				if e == 0 {
					p.idx.keys = append(p.idx.keys, gkey{k0[i], k1[i]})
					e = uint32(len(p.idx.keys))
					direct[d0*span1+d1] = e
				}
				slot[i] = e - 1
			}
		} else {
			// Keys arrive in long runs (rows are batch-contiguous and
			// time-sorted): the previous row's slot answers most lookups.
			for i := range slot {
				if i > 0 && k0[i] == k0[i-1] && k1[i] == k1[i-1] {
					slot[i] = slot[i-1]
				} else {
					slot[i] = p.idx.slot(gkey{k0[i], k1[i]})
				}
			}
		}
		p.cols.grow(q.Value, len(p.idx.keys))

		// Count each run of equal slots once: consecutive rows often share
		// a slot, and an increment per row would wait on the last one's
		// store. The runs' last rows are gathered without a branch first.
		count, ends, m := p.count, sc.runEnd[:n], 0
		for i := 0; i < n-1; i++ {
			ends[m] = uint32(i)
			step := 0
			if slot[i] != slot[i+1] {
				step = 1
			}
			m += step
		}
		ends[m] = uint32(n - 1)
		prev := -1
		for _, e := range ends[:m+1] {
			count[slot[e]] += int64(int(e) - prev)
			prev = int(e)
		}
		if q.Value != ValueNone {
			fv := sc.fv[:n]
			if q.Value == ValueTrust {
				trusts, sum := cc.trusts[lo:], p.sumF
				for i, r := range sel {
					fv[i] = float64(trusts[r])
				}
				for i, s := range slot {
					sum[s] += fv[i]
				}
			} else {
				vals, sum := cc.vals[lo:], p.sumI
				for i, r := range sel {
					v := vals[r]
					sum[slot[i]] += v
					fv[i] = float64(v)
				}
			}
			mn, mx := p.min, p.max
			for i, s := range slot {
				// Inside the bounds, and not a zero, nothing moves.
				if v := fv[i]; !(v >= mn[s] && v <= mx[s]) || v == 0 {
					mn[s], mx[s] = minMax(mn[s], mx[s], v)
				}
			}
			if q.P50 {
				p.vals = append(p.vals, fv...)
				p.vslot = append(p.vslot, slot...)
			}
		}
		if q.Distinct != ColNone && !p.dist.add(cc.distCol[lo:], sel, slot, len(count)) {
			return corrupt("distinct value")
		}
		return nil
	}

	n := 0
	for w, word := range bm {
		if n+64 > vecRows {
			if err := foldVec(n); err != nil {
				return p, err
			}
			n = 0
		}
		for ; word != 0; word &= word - 1 {
			sc.sel[n] = uint32(w*64 + bits.TrailingZeros64(word))
			n++
		}
	}
	return p, foldVec(n)
}

// foldRuns is the run form of the fold. It walks the runs its segment
// stores the query's one group key as (segment-local RunVals/RunEnds) over
// the chunk's bitmap: a run holding selected rows has its key checked
// against the key's zone domain and finds its slot once; count adds the
// run's selected rows; sum folds in a register over them in row order,
// starting from the slot's running value — the additions the row form
// makes, in the same order, so both forms give the same bits; min and max,
// whose results do not depend on order, fold branch-free over the run and
// meet the slot's bounds once. p50 values and distinct members are
// appended per selected row. A run gathers its selected rows a vector at
// a time.
func (p *partial) foldRuns(cc *chunkCtx, seg, lo int, bm []uint64, sc *scratch, dense bool, corrupt func(string) error) error {
	q, si, runs := cc.q, cc.segs[seg], cc.runs[seg]
	d := zoneDomain(cc.keys[0].zcol, &cc.zones[seg], si)
	llo, rows := lo-si.RowLo, 64*len(bm)
	runEnds := runs.RunEnds
	ri := sort.Search(len(runEnds), func(i int) bool { return int(runEnds[i]) > llo })
	// Slots arrive one run at a time: size for one per run up front.
	nruns := sort.Search(len(runEnds), func(i int) bool { return int(runEnds[i]) >= llo+rows }) + 1 - ri
	p.idx.keys = make([]gkey, 0, nruns)
	p.cols.reserve(q.Value, nruns)

	// foldSel folds the rows of sel, all of run ri, into the run's slot s,
	// which it first assigns when s is negative.
	foldSel := func(ri int, s int64, sel []uint32) (int64, error) {
		if len(sel) == 0 {
			return s, nil
		}
		if s < 0 {
			k := int64(runs.RunVals[ri])
			if k < d.lo || k > d.hi {
				return s, corrupt("group key")
			}
			if dense {
				e := &sc.direct[k-d.lo]
				if *e == 0 {
					p.idx.keys = append(p.idx.keys, gkey{k, 0})
					*e = uint32(len(p.idx.keys))
				}
				s = int64(*e - 1)
			} else {
				s = int64(p.idx.slot(gkey{k, 0}))
			}
			p.cols.grow(q.Value, len(p.idx.keys))
		}
		p.count[s] += int64(len(sel))
		fv := sc.fv[:len(sel)]
		switch q.Value {
		case ValueTrust:
			// The bounds of the rows are kept as ordered keys of the float32
			// bits (min and max without a branch); a NaN, whose keys lie
			// beyond the infinities', sends the rows through minMax one by
			// one.
			trusts := cc.trusts[lo:]
			sum, kmin, kmax := p.sumF[s], int32(math.MaxInt32), int32(math.MinInt32)
			for i, r := range sel {
				v := trusts[r]
				sum += float64(v)
				k := f32Key(v)
				kmin, kmax = min(kmin, k), max(kmax, k)
				fv[i] = float64(v)
			}
			p.sumF[s] = sum
			if kmin < f32Key(float32(math.Inf(-1))) || kmax > f32Key(float32(math.Inf(1))) {
				for _, v := range fv {
					p.min[s], p.max[s] = minMax(p.min[s], p.max[s], v)
				}
			} else {
				p.min[s], p.max[s] = minMax(p.min[s], p.max[s], float64(f32OfKey(kmin)))
				p.min[s], p.max[s] = minMax(p.min[s], p.max[s], float64(f32OfKey(kmax)))
			}
		case ValueDuration, ValueStart:
			// float64 rounds monotonically, so the integer bounds convert
			// to the bounds of the converted values.
			vals := cc.vals[lo:]
			sum, imin, imax := p.sumI[s], int64(math.MaxInt64), int64(math.MinInt64)
			for i, r := range sel {
				v := vals[r]
				sum += v
				imin, imax = min(imin, v), max(imax, v)
				fv[i] = float64(v)
			}
			p.sumI[s] = sum
			p.min[s], p.max[s] = minMax(p.min[s], p.max[s], float64(imin))
			p.min[s], p.max[s] = minMax(p.min[s], p.max[s], float64(imax))
		}
		if q.P50 || q.Distinct != ColNone {
			slot := sc.slot[:len(sel)]
			for i := range slot {
				slot[i] = uint32(s)
			}
			if q.P50 {
				p.vals = append(p.vals, fv...)
				p.vslot = append(p.vslot, slot...)
			}
			if q.Distinct != ColNone && !p.dist.add(cc.distCol[lo:], sel, slot, len(p.count)) {
				return s, corrupt("distinct value")
			}
		}
		return s, nil
	}

	for a := 0; a < rows && ri < len(runEnds); ri++ {
		b := min(int(runEnds[ri])-llo, rows)
		s, n := int64(-1), 0
		var err error
		for w := a >> 6; w < (b+63)>>6; w++ {
			if n+64 > vecRows {
				if s, err = foldSel(ri, s, sc.sel[:n]); err != nil {
					return err
				}
				n = 0
			}
			word := bm[w]
			if w == a>>6 {
				word &= ^uint64(0) << (a & 63)
			}
			if w == (b-1)>>6 && b&63 != 0 {
				word &= 1<<(b&63) - 1
			}
			for ; word != 0; word &= word - 1 {
				sc.sel[n] = uint32(w*64 + bits.TrailingZeros64(word))
				n++
			}
		}
		if _, err = foldSel(ri, s, sc.sel[:n]); err != nil {
			return err
		}
		a = b
	}
	return nil
}

// clearDirect zeroes the entries of a dense fold's table that idx's keys
// took, leaving the table all zero for the next fold; foldChunk defers it,
// so an error mid-chunk clears what was handed out too.
func clearDirect(direct []uint32, idx *keyIndex, lo0, lo1, span1 int64) {
	for _, k := range idx.keys {
		direct[(k[0]-lo0)*span1+k[1]-lo1] = 0
	}
}

// bufPool recycles one kind of buffer across queries.
type bufPool[T any] struct{ p sync.Pool }

// p50Merged holds the merge's p50 scatter buffer, a whole query's
// values: mergeFinalize returns it once the medians are taken, so a query
// reuses the last one's memory instead of zeroing a fresh allocation.
// mergeDirect and mergeTaken hold the merge's dense slot tables and their
// bitsets of taken offsets, all zero whenever they are in the pool.
var (
	p50Merged   bufPool[float64]
	mergeDirect bufPool[uint32]
	mergeTaken  bufPool[uint64]
)

// get returns an empty buffer with room for n elements.
func (bp *bufPool[T]) get(n int) []T {
	if b, ok := bp.p.Get().(*[]T); ok {
		return slices.Grow((*b)[:0], n)
	}
	return make([]T, 0, n)
}

// put hands b back; the caller keeps no reference to it.
func (bp *bufPool[T]) put(b []T) {
	if cap(b) > 0 {
		bp.p.Put(&b)
	}
}

// f32Key maps a float32 to an int32 whose order is the floats' total
// order: -0 below +0, the infinities at the ends, NaNs beyond them.
func f32Key(v float32) int32 {
	b := int32(math.Float32bits(v))
	return b ^ b>>31&math.MaxInt32
}

// f32OfKey inverts f32Key.
func f32OfKey(k int32) float32 { return math.Float32frombits(uint32(k ^ k>>31&math.MaxInt32)) }

// minMax is the fold's one exact min/max step, taken for a value outside
// the bounds, on one of them, or zero: it returns math.Min(mn, v) and
// math.Max(mx, v) bit for bit. Plain compares decide every case but a NaN
// value or bound and a zero meeting a zero bound, whose signs decide;
// only those take the math calls.
func minMax(mn, mx, v float64) (float64, float64) {
	if v != v || mn != mn || mx != mx || v == 0 && (mn == 0 || mx == 0) {
		return math.Min(mn, v), math.Max(mx, v)
	}
	if v < mn {
		mn = v
	}
	if v > mx {
		mx = v
	}
	return mn, mx
}
