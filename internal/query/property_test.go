package query

import (
	"bytes"
	"context"
	"io"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"crowdscope/internal/model"
	"crowdscope/internal/stats"
	"crowdscope/internal/store"
)

// randStore builds a random multi-segment store: segment count, batch
// sizes, and all column values are drawn from r.
func randStore(r *rand.Rand, rowsTarget int) *store.Store {
	numSegs := 1 + r.Intn(5)
	batchesPerSeg := 1 + r.Intn(3)
	numBatches := numSegs * batchesPerSeg
	rowsPerBatch := rowsTarget / numBatches

	var segs []*store.Segment
	for k := 0; k < numSegs; k++ {
		lo, hi := uint32(k*batchesPerSeg), uint32((k+1)*batchesPerSeg)
		b := store.NewBuilder(lo, hi)
		for batch := lo; batch < hi; batch++ {
			b.BeginBatch(batch)
			n := rowsPerBatch/2 + r.Intn(rowsPerBatch+1)
			for i := 0; i < n; i++ {
				start := model.Epoch.Unix() + int64(r.Intn(200*7*86400)) - 86400 // occasionally pre-epoch
				b.Append(model.Instance{
					Batch:    batch,
					TaskType: uint32(r.Intn(10)),
					Item:     uint32(r.Intn(200)),
					Worker:   uint32(r.Intn(60)),
					Start:    start,
					End:      start + int64(r.Intn(3600)),
					Trust:    float32(r.Intn(1000)) / 999,
					Answer:   uint32(r.Intn(40)),
				})
			}
		}
		segs = append(segs, b.Seal())
	}
	s, err := store.Assemble(numBatches, segs)
	if err != nil {
		panic(err)
	}
	return s
}

// randLeaf draws one random predicate over the physical columns.
func randLeaf(r *rand.Rand) Predicate {
	switch r.Intn(7) {
	case 0:
		return Eq(ColWorker, uint32(r.Intn(70)))
	case 1:
		vs := make([]uint32, 1+r.Intn(3))
		for i := range vs {
			vs[i] = uint32(r.Intn(12))
		}
		return In(ColTaskType, vs...)
	case 2:
		lo := model.Epoch.Unix() + int64(r.Intn(200*7*86400))
		return Range(ColStart, lo, lo+int64(r.Intn(30*86400)))
	case 3:
		lo, hi := float64(r.Intn(100))/100, float64(r.Intn(120))/100
		return TrustRange(lo, hi) // sometimes inverted: matches nothing
	case 4:
		lo := int64(r.Intn(250))
		return Range(ColItem, lo, lo+int64(r.Intn(50)))
	case 5:
		return Eq(ColBatch, uint32(r.Intn(16)))
	default:
		vs := make([]uint32, 1+r.Intn(4))
		for i := range vs {
			vs[i] = uint32(r.Intn(50))
		}
		return In(ColAnswer, vs...)
	}
}

// randLeafEx draws a predicate from the full column space: physical
// columns plus the derived duration and the joined attribute columns.
func randLeafEx(r *rand.Rand) Predicate {
	switch r.Intn(10) {
	case 0:
		lo := int64(r.Intn(1800))
		return Range(ColDuration, lo, lo+int64(r.Intn(1800)))
	case 1:
		return Eq(ColWorkerClass, uint32(r.Intn(4)))
	case 2:
		return In(ColWorkerCountry, uint32(r.Intn(12)), uint32(r.Intn(12)))
	case 3:
		lo := int64(r.Intn(400))
		return Range(ColBatchItems, lo, lo+int64(r.Intn(200)))
	case 4:
		return Eq(ColBatchSampled, uint32(r.Intn(2)))
	case 5:
		return Eq(ColWorkerSource, uint32(r.Intn(8)))
	default:
		return randLeaf(r)
	}
}

// randQuery draws a random predicate set, grouping and aggregate shape.
func randQuery(r *rand.Rand) Query {
	q := Query{
		GroupBys: []GroupBy{GroupBy(r.Intn(6))},
		Value:    Value(r.Intn(4)),
	}
	if q.Value != ValueNone && r.Intn(2) == 0 {
		q.P50 = true
	}
	if r.Intn(3) == 0 {
		q.Distinct = []Column{ColBatch, ColTaskType, ColItem, ColWorker, ColAnswer}[r.Intn(5)]
	}
	for n := r.Intn(4); n > 0; n-- {
		q.Where = append(q.Where, randLeaf(r))
	}
	return q
}

// randQueryEx widens randQuery to the full language surface: joined
// attribute predicates, duration predicates, OR-groups, joined group
// keys, and two-key grouping. Queries drawn here require Query.Tables.
func randQueryEx(r *rand.Rand) Query {
	q := Query{Value: Value(r.Intn(4))}
	if q.Value != ValueNone && r.Intn(2) == 0 {
		q.P50 = true
	}
	if r.Intn(4) == 0 {
		q.Distinct = []Column{ColBatch, ColTaskType, ColItem, ColWorker, ColAnswer}[r.Intn(5)]
	}
	keys := []GroupBy{
		GroupNone, GroupBatch, GroupWorker, GroupTaskType, GroupWeek, GroupDay,
		GroupWorkerSource, GroupWorkerCountry, GroupWorkerClass, GroupBatchWeek,
	}
	q.GroupBys = []GroupBy{keys[r.Intn(len(keys))]}
	if k := q.GroupBys[0]; k != GroupNone && r.Intn(3) == 0 {
		if k2 := keys[1+r.Intn(len(keys)-1)]; k2 != k {
			q.GroupBys = append(q.GroupBys, k2)
		}
	}
	for n := r.Intn(4); n > 0; n-- {
		q.Where = append(q.Where, randLeafEx(r))
	}
	for n := r.Intn(3); n > 0; n-- {
		group := make([]Predicate, 0, 3)
		for m := 2 + r.Intn(2); m > 0; m-- {
			group = append(group, randLeafEx(r))
		}
		q.Or = append(q.Or, group)
	}
	return q
}

// randTables draws random worker and batch attribute tables sized to
// cover every ID randStore can emit.
func randTables(r *rand.Rand, numWorkers, numBatches int) *SideTables {
	ws := make([]model.Worker, numWorkers)
	for i := range ws {
		ws[i] = model.Worker{
			ID:      uint32(i),
			Source:  uint16(r.Intn(8)),
			Country: uint16(r.Intn(12)),
			Class:   model.EngagementClass(r.Intn(model.NumEngagementClasses)),
		}
	}
	bs := make([]model.Batch, numBatches)
	for i := range bs {
		bs[i] = model.Batch{
			ID:         uint32(i),
			Items:      int32(1 + r.Intn(500)),
			Redundancy: int16(1 + r.Intn(9)),
			Sampled:    r.Intn(2) == 0,
			CreatedAt:  model.Epoch.AddDate(0, 0, r.Intn(200*7)),
		}
	}
	return NewTables(ws, bs)
}

// refMatches evaluates one predicate against a row the slow, obvious way:
// derived and joined columns are computed per row, never lowered.
func refMatches(st *store.Store, tabs *SideTables, p Predicate, row int) bool {
	var v int64
	switch p.Col {
	case ColBatch:
		v = int64(st.Batches()[row])
	case ColTaskType:
		v = int64(st.TaskTypes()[row])
	case ColItem:
		v = int64(st.Items()[row])
	case ColWorker:
		v = int64(st.Workers()[row])
	case ColAnswer:
		v = int64(st.Answers()[row])
	case ColStart:
		v = st.Starts()[row]
	case ColEnd:
		v = st.Ends()[row]
	case ColDuration:
		v = st.Ends()[row] - st.Starts()[row]
	case ColTrust:
		f := float64(st.Trusts()[row])
		return f >= p.FLo && f <= p.FHi
	default:
		if base := p.Col.joinBase(); base != ColNone {
			id := st.Workers()[row]
			if base == ColBatch {
				id = st.Batches()[row]
			}
			v = tabs.attrArray(p.Col)[id]
		}
	}
	if p.Set != nil {
		for _, s := range p.Set {
			if int64(s) == v {
				return true
			}
		}
		return false
	}
	return v >= p.Lo && v <= p.Hi
}

// refMatchesQuery evaluates the full clause set: every conjunct, and at
// least one leaf of every OR-group.
func refMatchesQuery(st *store.Store, tabs *SideTables, q *Query, row int) bool {
	for _, p := range q.Where {
		if !refMatches(st, tabs, p, row) {
			return false
		}
	}
groups:
	for _, g := range q.Or {
		for _, p := range g {
			if refMatches(st, tabs, p, row) {
				continue groups
			}
		}
		return false
	}
	return true
}

// refKey resolves one group key for a row, probing the attribute tables
// for joined keys.
func refKey(st *store.Store, tabs *SideTables, g GroupBy, row int) int64 {
	switch g {
	case GroupBatch:
		return int64(st.Batches()[row])
	case GroupWorker:
		return int64(st.Workers()[row])
	case GroupTaskType:
		return int64(st.TaskTypes()[row])
	case GroupWeek:
		return int64(model.WeekOfUnix(st.Starts()[row]))
	case GroupDay:
		return int64(model.DayOfUnix(st.Starts()[row]))
	case GroupWorkerSource:
		return tabs.wSource[st.Workers()[row]]
	case GroupWorkerCountry:
		return tabs.wCountry[st.Workers()[row]]
	case GroupWorkerClass:
		return tabs.wClass[st.Workers()[row]]
	case GroupBatchWeek:
		return tabs.bWeek[st.Batches()[row]]
	}
	return 0
}

type refAcc struct {
	count      int64
	sumI       int64
	sumF       float64
	minF, maxF float64
	vals       []float64
	distinct   map[uint32]struct{}
}

// referenceRun is an independent, deliberately naive implementation of
// the query semantics: a plain row loop with no bitmaps, no zone maps and
// no parallelism. Floating-point Sums follow the documented contract —
// folded per ChunkRows-sized chunk within each segment, chunk subtotals
// folded in order — which is the one aggregation detail a naive
// implementation must share for bit-identical results.
func referenceRun(st *store.Store, tabs *SideTables, q Query) []Group {
	gks := q.groupKeys()
	groups := map[gkey]*refAcc{}
	var keys []gkey
	for _, si := range st.Segments() {
		for chunkLo := si.RowLo; chunkLo < si.RowHi; chunkLo += ChunkRows {
			chunkHi := chunkLo + ChunkRows
			if chunkHi > si.RowHi {
				chunkHi = si.RowHi
			}
			chunkSums := map[gkey]float64{}
			var chunkKeys []gkey
			for row := chunkLo; row < chunkHi; row++ {
				if !refMatchesQuery(st, tabs, &q, row) {
					continue
				}
				var key gkey
				for i, g := range gks {
					key[i] = refKey(st, tabs, g, row)
				}
				a := groups[key]
				if a == nil {
					a = &refAcc{minF: math.Inf(1), maxF: math.Inf(-1), distinct: map[uint32]struct{}{}}
					if q.Value == ValueNone {
						a.minF, a.maxF = 0, 0
					}
					groups[key] = a
					keys = append(keys, key)
				}
				a.count++
				var v float64
				switch q.Value {
				case ValueDuration:
					d := st.Ends()[row] - st.Starts()[row]
					a.sumI += d
					v = float64(d)
				case ValueTrust:
					v = float64(st.Trusts()[row])
				case ValueStart:
					s := st.Starts()[row]
					a.sumI += s
					v = float64(s)
				}
				if q.Value != ValueNone {
					a.minF = math.Min(a.minF, v)
					a.maxF = math.Max(a.maxF, v)
					if q.P50 {
						a.vals = append(a.vals, v)
					}
					if q.Value == ValueTrust {
						if _, ok := chunkSums[key]; !ok {
							chunkKeys = append(chunkKeys, key)
						}
						chunkSums[key] += v
					}
				}
				switch q.Distinct {
				case ColBatch:
					a.distinct[st.Batches()[row]] = struct{}{}
				case ColTaskType:
					a.distinct[st.TaskTypes()[row]] = struct{}{}
				case ColItem:
					a.distinct[st.Items()[row]] = struct{}{}
				case ColWorker:
					a.distinct[st.Workers()[row]] = struct{}{}
				case ColAnswer:
					a.distinct[st.Answers()[row]] = struct{}{}
				}
			}
			for _, k := range chunkKeys {
				groups[k].sumF += chunkSums[k]
			}
		}
	}

	sortGKeys(keys)
	out := make([]Group, len(keys))
	for i, k := range keys {
		a := groups[k]
		g := Group{Key: k[0], Key2: k[1], Count: a.count}
		switch q.Value {
		case ValueDuration, ValueStart:
			g.Sum, g.Min, g.Max = float64(a.sumI), a.minF, a.maxF
		case ValueTrust:
			g.Sum, g.Min, g.Max = a.sumF, a.minF, a.maxF
		}
		if q.P50 {
			g.P50 = stats.Median(a.vals)
		}
		if q.Distinct != ColNone {
			g.Distinct = len(a.distinct)
		}
		out[i] = g
	}
	return out
}

func sortGKeys(xs []gkey) {
	less := func(a, b gkey) bool { return a[0] < b[0] || (a[0] == b[0] && a[1] < b[1]) }
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && less(xs[j], xs[j-1]); j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// TestPropertyEngineMatchesReference: for random stores, random
// predicates and random group-bys, the engine's result is bit-identical
// to the naive reference scan for workers 0, 1, 2 and 8 — both on the
// assembled store (raw columns resident, encoded kernels used where they
// win) and on the same store freshly loaded from a compressed snapshot
// (encoded-resident, where the filter kernels run entirely on the
// encoded columns). Runs under -race in CI's race tier.
func TestPropertyEngineMatchesReference(t *testing.T) {
	workerCounts := []int{0, 1, 2, 8}
	queriesPerStore := 24
	stores := 6
	countOnly := map[int]int64{} // count-only chunks folded, by Workers
	if testing.Short() {
		stores, queriesPerStore = 2, 8
	}
	for si := 0; si < stores; si++ {
		r := rand.New(rand.NewSource(int64(1000 + si)))
		st := randStore(r, 2000+r.Intn(4000))
		// The encoded twin: a strict snapshot round trip leaves raw
		// columns unmaterialized, so its filter scans run on the encoded
		// kernels. Grouped queries materialize their fold columns as they
		// go, so across the query mix this store covers every residency
		// combination the planner can see.
		var buf bytes.Buffer
		if _, err := st.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		encoded := &store.Store{}
		if _, err := encoded.ReadFrom(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatal(err)
		}
		// Two more queries per store are count-only — no key, value or
		// distinct — one over every row, one under a drawn filter, so the
		// count-only chunk is checked at every worker count.
		for qi := 0; qi < queriesPerStore+2; qi++ {
			q := randQuery(r)
			if qi >= queriesPerStore {
				q = Query{Where: q.Where[:min(qi-queriesPerStore, len(q.Where))]}
			}
			for _, w := range workerCounts {
				q.Workers = w
				before := testCountOnly.Load()
				resEnc, err := Run(encoded, q)
				if err != nil {
					t.Fatalf("store %d query %d (%+v) on encoded store: %v", si, qi, q, err)
				}
				res, err := Run(st, q)
				if err != nil {
					t.Fatalf("store %d query %d (%+v): %v", si, qi, q, err)
				}
				want := referenceRun(st, nil, q)
				if !reflect.DeepEqual(res.Groups, want) && !(len(res.Groups) == 0 && len(want) == 0) {
					t.Fatalf("store %d query %d workers %d: engine result differs\n query: %+v\n got:  %+v\n want: %+v",
						si, qi, w, q, res.Groups, want)
				}
				if !reflect.DeepEqual(resEnc.Groups, want) && !(len(resEnc.Groups) == 0 && len(want) == 0) {
					t.Fatalf("store %d query %d workers %d: encoded-store result differs\n query: %+v\n got:  %+v\n want: %+v",
						si, qi, w, q, resEnc.Groups, want)
				}
				if res.Stats.RowsMatched != totalCount(want) || resEnc.Stats.RowsMatched != totalCount(want) {
					t.Fatalf("store %d query %d workers %d: matched %d/%d rows, reference %d",
						si, qi, w, res.Stats.RowsMatched, resEnc.Stats.RowsMatched, totalCount(want))
				}
				countOnly[w] += testCountOnly.Load() - before
			}
		}
	}
	for _, w := range []int{1, 2, 8} {
		if countOnly[w] == 0 {
			t.Errorf("workers %d: no chunk took the count-only fold", w)
		}
	}
}

// TestPropertyChunkBoundary runs the same equivalence across a store
// large enough that single segments span multiple execution chunks, so
// the chunked float-sum contract and bitmap tail masking are exercised.
func TestPropertyChunkBoundary(t *testing.T) {
	if testing.Short() {
		t.Skip("large store")
	}
	r := rand.New(rand.NewSource(7))
	st := randStore(r, ChunkRows*2+1234)
	for qi := 0; qi < 6; qi++ {
		q := randQuery(r)
		want := referenceRun(st, nil, q)
		for _, w := range []int{0, 1, 2, 8} {
			q.Workers = w
			res, err := Run(st, q)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res.Groups, want) && !(len(res.Groups) == 0 && len(want) == 0) {
				t.Fatalf("query %d workers %d: engine differs from reference (query %+v)", qi, w, q)
			}
		}
	}
}

func totalCount(gs []Group) int64 {
	var n int64
	for _, g := range gs {
		n += g.Count
	}
	return n
}

// datasetFrom shards an arbitrary store into an in-memory dataset.
func datasetFrom(t *testing.T, st *store.Store, nshards int) *store.Dataset {
	t.Helper()
	var mu sync.Mutex
	files := make(map[string][]byte)
	var manBuf bytes.Buffer
	man, err := st.WriteDataset(&manBuf, nshards, "prop", func(name string) (io.WriteCloser, error) {
		buf := &bytes.Buffer{}
		return closeWriter{buf, func() {
			mu.Lock()
			files[name] = buf.Bytes()
			mu.Unlock()
		}}, nil
	}, store.WriteOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	d, err := store.OpenDataset(man, openFrom(files, nil))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// checkGroups fails the test when an engine result differs from the
// reference, labelling which execution path diverged.
func checkGroups(t *testing.T, path string, si, qi, w int, got, want []Group, q Query) {
	t.Helper()
	if !reflect.DeepEqual(got, want) && !(len(got) == 0 && len(want) == 0) {
		t.Fatalf("store %d query %d workers %d: %s result differs\n query: %s\n got:  %+v\n want: %+v",
			si, qi, w, path, q.Text(), got, want)
	}
}

// TestPropertyPlannerEquivalence draws queries over the full language
// surface — OR-groups, join predicates, duration predicates, joined and
// two-key group keys — and checks four execution paths against the naive
// reference scan for workers 0, 1, 2 and 8: the planner's greedy clause
// order, the unplanned written order (noReorder), the cached-plan path
// (Options.Planner), and the sharded dataset path. Reordering,
// caching and sharding must all be invisible in the results, bit for
// bit. Runs under -race in CI's race tier.
func TestPropertyPlannerEquivalence(t *testing.T) {
	workerCounts := []int{0, 1, 2, 8}
	stores, queriesPerStore := 4, 16
	if testing.Short() {
		stores, queriesPerStore = 2, 6
	}
	for si := 0; si < stores; si++ {
		r := rand.New(rand.NewSource(int64(4200 + si)))
		st := randStore(r, 1500+r.Intn(3000))
		tabs := randTables(r, 70, 16)
		d := datasetFrom(t, st, 1+r.Intn(4))
		pl := NewPlanner(8)
		for qi := 0; qi < queriesPerStore; qi++ {
			q := randQueryEx(r)
			q.Tables = tabs
			want := referenceRun(st, tabs, q)
			for _, w := range workerCounts {
				q.Workers = w
				res, err := Run(st, q)
				if err != nil {
					t.Fatalf("store %d query %d (%s): %v", si, qi, q.Text(), err)
				}
				checkGroups(t, "planned", si, qi, w, res.Groups, want, q)
				if res.Stats.RowsMatched != totalCount(want) {
					t.Fatalf("store %d query %d workers %d: matched %d rows, reference %d",
						si, qi, w, res.Stats.RowsMatched, totalCount(want))
				}

				qn := q
				qn.noReorder = true
				resN, err := Run(st, qn)
				if err != nil {
					t.Fatalf("store %d query %d (%s) unplanned: %v", si, qi, q.Text(), err)
				}
				checkGroups(t, "unplanned written-order", si, qi, w, resN.Groups, want, q)

				resC, err := Exec(context.Background(), Source{Store: st}, q, Options{Planner: pl})
				if err != nil {
					t.Fatalf("store %d query %d (%s) cached: %v", si, qi, q.Text(), err)
				}
				checkGroups(t, "cached-plan", si, qi, w, resC.Groups, want, q)

				resD, err := Exec(context.Background(), Source{Dataset: d}, q, Options{})
				if err != nil {
					t.Fatalf("store %d query %d (%s) dataset: %v", si, qi, q.Text(), err)
				}
				checkGroups(t, "dataset", si, qi, w, resD.Groups, want, q)
			}
		}
	}
}
