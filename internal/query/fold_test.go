package query

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"crowdscope/internal/model"
	"crowdscope/internal/stats"
	"crowdscope/internal/store"
)

// foldStore builds a store of one segment per entry of rows, one batch per
// segment, its column values drawn by row(seg, i).
func foldStore(t testing.TB, rows []int, row func(seg, i int) model.Instance) *store.Store {
	t.Helper()
	var segs []*store.Segment
	for k, n := range rows {
		b := store.NewBuilder(uint32(k), uint32(k+1))
		b.BeginBatch(uint32(k))
		for i := 0; i < n; i++ {
			in := row(k, i)
			in.Batch = uint32(k)
			b.Append(in)
		}
		segs = append(segs, b.Seal())
	}
	st, err := store.Assemble(len(rows), segs)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// foldCtx is the chunk context bindPart would build for q over st, with
// no predicates bound: the tests hand foldChunk their own bitmaps.
func foldCtx(st *store.Store, q *Query) *chunkCtx {
	return newChunkCtx(st, q, &rawCols{st: st}, nil)
}

// refFold is the per-row reference of one chunk's fold: a map from key to
// accumulator, every aggregate updated the way the row iterator did it —
// math.Min/Max per row, append per p50 value, a set per group.
func refFold(st *store.Store, q *Query, rows []int) []Group {
	type acc struct {
		g    Group
		sumI int64
		vals []float64
		set  map[uint32]struct{}
	}
	gks := q.groupKeys()
	accs := map[gkey]*acc{}
	for _, row := range rows {
		var k gkey
		for i, g := range gks {
			k[i] = refKey(st, q.Tables, g, row)
		}
		a := accs[k]
		if a == nil {
			a = &acc{g: Group{Key: k[0], Key2: k[1], Min: math.Inf(1), Max: math.Inf(-1)}, set: map[uint32]struct{}{}}
			accs[k] = a
		}
		a.g.Count++
		var v float64
		switch q.Value {
		case ValueDuration:
			d := st.Ends()[row] - st.Starts()[row]
			a.sumI += d
			v = float64(d)
		case ValueStart:
			a.sumI += st.Starts()[row]
			v = float64(st.Starts()[row])
		case ValueTrust:
			v = float64(st.Trusts()[row])
			a.g.Sum += v
		}
		a.g.Min, a.g.Max = math.Min(a.g.Min, v), math.Max(a.g.Max, v)
		a.vals = append(a.vals, v)
		if q.Distinct != ColNone {
			a.set[(&rawCols{st: st}).u32Col(q.Distinct)[row]] = struct{}{}
		}
	}
	out := make([]Group, 0, len(accs))
	for _, a := range accs {
		switch q.Value {
		case ValueNone:
			a.g.Min, a.g.Max = 0, 0
		case ValueDuration, ValueStart:
			a.g.Sum = float64(a.sumI)
		}
		if q.P50 {
			a.g.P50 = stats.Median(a.vals)
		}
		a.g.Distinct = len(a.set)
		out = append(out, a.g)
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].Key < out[j].Key || (out[i].Key == out[j].Key && out[i].Key2 < out[j].Key2)
	})
	return out
}

// sameGroups compares results bit for bit (NaN equals NaN, -0 differs
// from +0).
func sameGroups(a, b []Group) bool {
	if len(a) != len(b) {
		return false
	}
	bitsEq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	for i := range a {
		x, y := a[i], b[i]
		if x.Key != y.Key || x.Key2 != y.Key2 || x.Count != y.Count || x.Distinct != y.Distinct ||
			!bitsEq(x.Sum, y.Sum) || !bitsEq(x.Min, y.Min) || !bitsEq(x.Max, y.Max) || !bitsEq(x.P50, y.P50) {
			return false
		}
	}
	return true
}

// foldWindow folds the set rows of one segment's first chunk through
// foldChunk and finalizes the single partial.
func foldWindow(t *testing.T, cc *chunkCtx, seg int, rows []int) (partial, []Group, error) {
	t.Helper()
	si := cc.segs[seg]
	n := min(si.Rows(), ChunkRows)
	bm := make([]uint64, (n+63)/64)
	for _, r := range rows {
		bm[(r-si.RowLo)/64] |= 1 << ((r - si.RowLo) % 64)
	}
	p, err := foldChunk(cc, seg, si.RowLo, bm, new(scratch))
	if err != nil {
		return p, nil, err
	}
	res := &Result{}
	mergeFinalize(res, cc.q, []span{{cc, si.RowLo, si.RowLo + n, seg, n}}, []partial{p})
	return p, res.Groups, nil
}

// TestFoldMatchesRowReference: probe → slot → fold over one chunk equals
// the per-row map reference for every group key (alone and in pairs) ×
// value × p50 × distinct, over row windows aligned neither to the 64-row
// bitmap words nor to vecRows, full and thinned.
func TestFoldMatchesRowReference(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	st := foldStore(t, []int{5000, 3000}, func(_, i int) model.Instance {
		start := model.Epoch.Unix() + int64(r.Intn(90*86400)) - 3*86400 // some pre-epoch
		return model.Instance{
			TaskType: uint32(r.Intn(9)), Item: uint32(r.Intn(300)), Worker: uint32(5 + r.Intn(40)),
			Start: start, End: start + int64(r.Intn(900)), Trust: float32(r.Intn(100)) / 99, Answer: uint32(r.Intn(5)),
		}
	})
	tabs := randTables(r, 64, 2)
	keys := []GroupBy{GroupNone, GroupBatch, GroupWorker, GroupTaskType, GroupWeek, GroupDay,
		GroupWorkerSource, GroupWorkerCountry, GroupWorkerClass, GroupBatchWeek}
	shapes := [][]GroupBy{}
	for _, g := range keys {
		shapes = append(shapes, []GroupBy{g})
	}
	for _, g := range keys[1:] {
		shapes = append(shapes, []GroupBy{g, keys[1+r.Intn(len(keys)-1)]})
	}
	windows := [][3]int{{0, 5000, 1}, {3, 4999, 1}, {1000, 1000 + vecRows + 37, 1}, {65, 2*vecRows + 1, 1},
		{17, 4001, 3}, {0, 5000, 97}, {700, 763, 1}, {129, 130, 1}}
	for _, gks := range shapes {
		for _, v := range []Value{ValueNone, ValueDuration, ValueTrust, ValueStart} {
			for _, p50 := range []bool{false, true} {
				for _, dist := range []Column{ColNone, ColWorker, ColItem} {
					if p50 && v == ValueNone {
						continue
					}
					q := &Query{GroupBys: gks, Value: v, P50: p50, Distinct: dist, Tables: tabs}
					cc := foldCtx(st, q)
					for wi, w := range windows {
						seg := wi % 2
						si := cc.segs[seg]
						var rows []int
						for row := si.RowLo + w[0]; row < min(si.RowLo+w[1], si.RowHi); row += 1 + r.Intn(w[2]) {
							rows = append(rows, row)
						}
						_, got, err := foldWindow(t, cc, seg, rows)
						if err != nil {
							t.Fatalf("%s window %v: %v", q.Text(), w, err)
						}
						if want := refFold(st, q, rows); !sameGroups(got, want) {
							t.Fatalf("%s window %v (%d rows):\n got  %+v\n want %+v", q.Text(), w, len(rows), got, want)
						}
					}
				}
			}
		}
	}
}

// TestFoldSlotFormBoundaries pins the dense/hashed rule — dense when the
// key domain spans at most denseMaxSlots and at most the selected rows —
// and the distinct bitset/map rule, with equal results on both sides.
func TestFoldSlotFormBoundaries(t *testing.T) {
	const rows = denseMaxSlots + 64
	for _, span := range []int{denseMaxSlots - 1, denseMaxSlots, denseMaxSlots + 1} {
		st := foldStore(t, []int{rows}, func(_, i int) model.Instance {
			return model.Instance{Worker: uint32(7 + i%span), Item: uint32(i % 50), Start: int64(i), End: int64(2 * i)}
		})
		q := &Query{GroupBys: []GroupBy{GroupWorker}, Value: ValueDuration, P50: true}
		cc := foldCtx(st, q)
		all := make([]int, rows)
		for i := range all {
			all[i] = i
		}
		for _, sel := range [][]int{all, all[:span], all[:span-1]} {
			p, got, err := foldWindow(t, cc, 0, sel)
			if err != nil {
				t.Fatal(err)
			}
			wantDense := span <= denseMaxSlots && span <= len(sel)
			if dense := p.idx.tab == nil; dense != wantDense {
				t.Fatalf("span %d, %d rows selected: dense = %v, want %v", span, len(sel), dense, wantDense)
			}
			if want := refFold(st, q, sel); !sameGroups(got, want) {
				t.Fatalf("span %d, %d rows selected: result differs from the row reference", span, len(sel))
			}
		}
	}

	// Distinct sets: a bitset while slots × 64-bit words of the distinct
	// column's zone domain fit setBitsetMaxSpan bits, a map past it.
	const groups = 64
	for _, words := range []int{setBitsetMaxSpan / 64 / groups, setBitsetMaxSpan/64/groups + 1} {
		top := uint32(words*64 - 1) // the zone domain [0, top] takes exactly words words
		st := foldStore(t, []int{4096}, func(_, i int) model.Instance {
			return model.Instance{Worker: uint32(i % groups), Item: uint32(i*7919)%(top+1) | top*uint32((i+1)/4096)}
		})
		q := &Query{GroupBys: []GroupBy{GroupWorker}, Distinct: ColItem}
		cc := foldCtx(st, q)
		all := make([]int, 4096)
		for i := range all {
			all[i] = i
		}
		p, got, err := foldWindow(t, cc, 0, all)
		if err != nil {
			t.Fatal(err)
		}
		if bitset, want := p.dist.words > 0, groups*words*64 <= setBitsetMaxSpan; bitset != want || (p.dist.pairs != nil) == want {
			t.Fatalf("%d words × %d slots: bitset = %v, want %v", words, groups, bitset, want)
		}
		if want := refFold(st, q, all); !sameGroups(got, want) {
			t.Fatalf("%d words per slot: distinct counts differ from the row reference", words)
		}
	}
}

// TestFoldTrustSpecials: trust columns holding NaN, ±0 and ±Inf fold to
// exactly what math.Min/Max and a running sum give row by row, in the row
// form and, for task types the encoder keeps as runs, the run form — the
// fast paths past the exact min/max step may not change a bit.
func TestFoldTrustSpecials(t *testing.T) {
	nan, inf, negZero := float32(math.NaN()), float32(math.Inf(1)), float32(math.Copysign(0, -1))
	specials := []float32{0, negZero, nan, inf, -inf, 0.5, 0.25, 0.75, 1, -1}
	r := rand.New(rand.NewSource(3))
	byRuns := 0 // task-type folds that went by runs
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(40)
		seq := make([]float32, n)
		for i := range seq {
			seq[i] = specials[r.Intn(len(specials))]
			if r.Intn(3) == 0 {
				seq[i] = specials[r.Intn(2)] // runs of ±0 decide the sign of min and max
			}
		}
		st := foldStore(t, []int{n}, func(_, i int) model.Instance {
			return model.Instance{Worker: uint32(i % 3), TaskType: uint32(i / 4), Trust: seq[i]}
		})
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		for _, g := range []GroupBy{GroupNone, GroupWorker, GroupTaskType} {
			q := &Query{GroupBys: []GroupBy{g}, Value: ValueTrust, P50: true}
			cc := foldCtx(st, q)
			if cc.runs != nil && cc.runs[0] != nil {
				byRuns++
			}
			_, got, err := foldWindow(t, cc, 0, all)
			if err != nil {
				t.Fatal(err)
			}
			if want := refFold(st, q, all); !sameGroups(got, want) {
				t.Fatalf("trusts %v group %s:\n got  %+v\n want %+v", seq, g, got, want)
			}
		}
	}
	if byRuns == 0 {
		t.Fatal("no task-type fold went by runs")
	}
}

// TestFoldOutOfDomainIsCorrupt: a key, joined ID or distinct value outside
// what the segment's zone map admits yields an error wrapping
// store.ErrCorrupt — never an index panic, never a wrong group.
func TestFoldOutOfDomainIsCorrupt(t *testing.T) {
	st := foldStore(t, []int{500}, func(_, i int) model.Instance {
		return model.Instance{Worker: uint32(10 + i%20), TaskType: uint32(i % 4), Item: uint32(100 + i%50),
			Start: model.Epoch.Unix() + int64(i)*86400}
	})
	all := make([]int, 500)
	for i := range all {
		all[i] = i
	}
	tabs := randTables(rand.New(rand.NewSource(1)), 64, 1)
	lie := func(q *Query, edit func(z *store.ZoneMap)) error {
		cc := foldCtx(st, q)
		cc.zones = append([]store.ZoneMap(nil), cc.zones...)
		edit(&cc.zones[0])
		_, _, err := foldWindow(t, cc, 0, all)
		return err
	}
	cases := map[string]error{
		"key above":      lie(&Query{GroupBys: []GroupBy{GroupWorker}}, func(z *store.ZoneMap) { z.WorkerMax = 20 }),
		"key below":      lie(&Query{GroupBys: []GroupBy{GroupWorker}}, func(z *store.ZoneMap) { z.WorkerMin = 15 }),
		"second key":     lie(&Query{GroupBys: []GroupBy{GroupTaskType, GroupWorker}}, func(z *store.ZoneMap) { z.WorkerMax = 12 }),
		"time bucket":    lie(&Query{GroupBys: []GroupBy{GroupWeek}}, func(z *store.ZoneMap) { z.StartMax = z.StartMin + 86400 }),
		"distinct value": lie(&Query{GroupBys: []GroupBy{GroupTaskType}, Distinct: ColItem}, func(z *store.ZoneMap) { z.ItemMax = 101 }),
	}
	short := &Query{GroupBys: []GroupBy{GroupWorkerClass}, Tables: tabs}
	cc := foldCtx(st, short)
	cc.keys[0].attr = cc.keys[0].attr[:15] // IDs run to 29
	_, _, cases["joined ID"] = foldWindow(t, cc, 0, all)
	for name, err := range cases {
		if !errors.Is(err, store.ErrCorrupt) {
			t.Errorf("%s: err = %v, want one wrapping store.ErrCorrupt", name, err)
		}
	}
	if err := lie(&Query{GroupBys: []GroupBy{GroupWorker}, Distinct: ColItem}, func(*store.ZoneMap) {}); err != nil {
		t.Fatalf("honest zones: %v", err)
	}
}

// TestFoldWorkersBitIdentical: on a store of several segments, some longer
// than a chunk, every query shape answers bit for bit the same for
// Workers 1, 2, 3 and 8 — float sums and medians included.
func TestFoldWorkersBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	rows := []int{ChunkRows + 900, 700, ChunkRows/2 + 13, 5}
	if testing.Short() {
		rows = []int{3000, 700, 1500, 5}
	}
	st := foldStore(t, rows, func(_, i int) model.Instance {
		start := model.Epoch.Unix() + int64(r.Intn(400*86400))
		return model.Instance{
			TaskType: uint32(r.Intn(30)), Item: uint32(r.Intn(5000)), Worker: uint32(r.Intn(900)),
			Start: start, End: start + int64(r.Intn(7200)), Trust: float32(r.Float64()), Answer: uint32(r.Intn(4)),
		}
	})
	tabs := randTables(r, 900, len(rows))
	for _, text := range []string{
		"group batch", "group week | distinct worker", "group worker | value duration | p50",
		"where duration >= 600 | group tasktype | value trust",
		"where worker.class == super or duration < 60 | group tasktype, worker.country | value trust | p50",
		"group tasktype, week | value start | distinct item", "value trust | p50 | distinct answer",
	} {
		q, err := ParseQuery(text)
		if err != nil {
			t.Fatal(err)
		}
		q.Tables = tabs
		var first []Group
		for _, w := range []int{1, 2, 3, 8} {
			q.Workers = w
			res, err := Run(st, q)
			if err != nil {
				t.Fatalf("%s workers %d: %v", text, w, err)
			}
			if w == 1 {
				first = res.Groups
				if len(first) == 0 || totalCount(res.Groups) != res.Stats.RowsMatched {
					t.Fatalf("%s: %d groups hold %d of %d matched rows", text, len(first), totalCount(res.Groups), res.Stats.RowsMatched)
				}
			} else if !sameGroups(res.Groups, first) {
				t.Fatalf("%s: workers %d differs from workers 1", text, w)
			}
		}
		if want := referenceRun(st, tabs, q); !sameGroups(first, want) {
			t.Fatalf("%s: differs from the reference run", text)
		}
	}
}

// TestFoldExtremeStartTimes: starts at both ends of int64 wrap sec-epoch
// and overflow the int32 bucket, so a segment holding them has no monotone
// week/day domain — the fold must hash, and still agree with the reference.
func TestFoldExtremeStartTimes(t *testing.T) {
	e := model.Epoch.Unix()
	secs := []int64{math.MinInt64, math.MinInt64 + e - 1, math.MinInt64 + e, -1, 0, e - 1, e, e + 1, e + 86399, e + 86400,
		e + 7*86400 - 1, e + 7*86400, e + 86400*math.MaxInt32, e + 86400*(math.MaxInt32+1), math.MaxInt64}
	for _, starts := range [][]int64{secs, secs[3:12], secs[2:], secs[:13]} {
		st := foldStore(t, []int{len(starts)}, func(_, i int) model.Instance { return model.Instance{Start: starts[i]} })
		for _, g := range []GroupBy{GroupWeek, GroupDay} {
			q := Query{GroupBys: []GroupBy{g}, Value: ValueStart}
			res, err := Run(st, q)
			if err != nil {
				t.Fatalf("group %s over starts %v: %v", g, starts, err)
			}
			if want := referenceRun(st, nil, q); !sameGroups(res.Groups, want) {
				t.Fatalf("group %s over starts %v:\n got  %+v\n want %+v", g, starts, res.Groups, want)
			}
		}
	}
}

// TestFoldAllocCeilings: a reintroduced per-group or per-row allocation
// fails here rather than in a bench run. The count-only and the p50 shape
// allocate per chunk and per merge, never per group: the ceilings leave
// room for slice growth, not for one allocation per key.
func TestFoldAllocCeilings(t *testing.T) {
	const keys = 4000
	st := foldStore(t, []int{20000, 20000}, func(_, i int) model.Instance {
		return model.Instance{Worker: uint32(i % keys), Start: int64(i), End: int64(i + i%977)}
	})
	for _, c := range []struct {
		q       Query
		ceiling float64
	}{
		{Query{GroupBys: []GroupBy{GroupWorker}, Workers: 1}, 200},
		{Query{GroupBys: []GroupBy{GroupWorker}, Value: ValueDuration, P50: true, Workers: 1}, 300},
	} {
		run := func() {
			res, err := Run(st, c.q)
			if err != nil || len(res.Groups) != keys {
				panic(fmt.Sprint(len(res.Groups), err))
			}
		}
		run() // fill the scratch pool and the store's lazy indexes
		if got := testing.AllocsPerRun(10, run); got > c.ceiling {
			t.Errorf("%s: %.0f allocations per run over %d groups, ceiling %.0f", c.q.Text(), got, keys, c.ceiling)
		}
	}
}
