package query

import (
	"bytes"
	"math"
	"sync"
	"testing"

	"crowdscope/internal/model"
	"crowdscope/internal/store"
)

// testStore builds a four-segment store with well-separated time windows
// and worker/task-type ranges, so every pruning path is exercisable.
//
// Segment k (k = 0..3) covers batches [2k, 2k+2), 40 rows per batch:
// starts in week k (one row per 3h), workers 100k..100k+9, task types
// {k, k+10}, trust k*0.2 + i%5*0.02, answers 1000k+i.
func testStore(t testing.TB) *store.Store {
	t.Helper()
	var segs []*store.Segment
	for k := 0; k < 4; k++ {
		b := store.NewBuilder(uint32(2*k), uint32(2*k+2))
		for bi := 0; bi < 2; bi++ {
			batch := uint32(2*k + bi)
			b.BeginBatch(batch)
			for i := 0; i < 40; i++ {
				start := model.DayUnix(int32(k)*7) + int64(bi)*43200 + int64(i)*10800
				tt := uint32(k)
				if i%2 == 1 {
					tt = uint32(k + 10)
				}
				b.Append(model.Instance{
					Batch:    batch,
					TaskType: tt,
					Item:     uint32(i),
					Worker:   uint32(100*k + i%10),
					Start:    start,
					End:      start + 60 + int64(i%7)*30,
					Trust:    float32(k)*0.2 + float32(i%5)*0.02,
					Answer:   uint32(1000*k + i),
				})
			}
		}
		segs = append(segs, b.Seal())
	}
	s, err := store.Assemble(8, segs)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// repairLoaded round-trips st through a snapshot loaded in repair mode: the
// rows and segment layout, resident raw, with no zone maps and no
// encodings — what the lazy fills and the raw kernels serve.
func repairLoaded(t testing.TB, st *store.Store) *store.Store {
	t.Helper()
	var buf bytes.Buffer
	if _, err := st.WriteSnapshot(&buf, store.WriteOptions{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	back := new(store.Store)
	if _, err := back.ReadSnapshot(bytes.NewReader(buf.Bytes()), store.LoadOptions{Mode: store.LoadRepair}); err != nil {
		t.Fatal(err)
	}
	if len(back.SegmentEncodings()) != 0 || back.Residency() != store.ColSetAll {
		t.Fatal("repair load left encodings or missing raw columns")
	}
	return back
}

func mustRun(t testing.TB, st *store.Store, q Query) *Result {
	t.Helper()
	res, err := Run(st, q)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func TestCountAll(t *testing.T) {
	st := testStore(t)
	res := mustRun(t, st, Query{})
	if got := res.Stats.RowsMatched; got != int64(st.Len()) {
		t.Errorf("matched %d of %d rows", got, st.Len())
	}
	if len(res.Groups) != 1 || res.Groups[0].Key != 0 || res.Groups[0].Count != int64(st.Len()) {
		t.Errorf("ungrouped result = %+v", res.Groups)
	}
	if res.Stats.SegmentsPruned != 0 {
		t.Errorf("empty filter pruned %d segments", res.Stats.SegmentsPruned)
	}
}

func TestWorkerEqPrunesSegments(t *testing.T) {
	st := testStore(t)
	// Worker 203 exists only in segment 2 (workers 200..209).
	res := mustRun(t, st, Query{Where: []Predicate{Eq(ColWorker, 203)}})
	if res.Stats.SegmentsPruned != 3 {
		t.Errorf("pruned %d segments, want 3 (stats %+v)", res.Stats.SegmentsPruned, res.Stats)
	}
	if res.Stats.RowsScanned != 80 {
		t.Errorf("scanned %d rows, want the 80 of segment 2", res.Stats.RowsScanned)
	}
	if res.Stats.RowsMatched != 8 { // 2 batches × 40 rows, i%10 == 3
		t.Errorf("matched %d rows, want 8", res.Stats.RowsMatched)
	}
}

func TestStartWindowPruning(t *testing.T) {
	st := testStore(t)
	// Week 1 lives entirely in segment 1.
	lo, hi := model.DayUnix(7), model.DayUnix(14)
	res := mustRun(t, st, Query{Where: []Predicate{Range(ColStart, lo, hi)}, GroupBys: []GroupBy{GroupBatch}})
	if res.Stats.SegmentsPruned != 3 {
		t.Errorf("pruned %d segments, want 3", res.Stats.SegmentsPruned)
	}
	if len(res.Groups) != 2 || res.Groups[0].Key != 2 || res.Groups[1].Key != 3 {
		t.Errorf("groups = %+v, want batches 2 and 3", res.Groups)
	}
}

func TestTaskTypeSetUsesZoneEnumSet(t *testing.T) {
	st := testStore(t)
	// Task type 12 appears only in segment 2; type 7 nowhere. The zone
	// min/max for segment 1 is [1, 11], which contains 7 — only the
	// distinct-value set can prune it.
	res := mustRun(t, st, Query{Where: []Predicate{In(ColTaskType, 12, 7)}})
	if res.Stats.SegmentsPruned != 3 {
		t.Errorf("pruned %d segments, want 3", res.Stats.SegmentsPruned)
	}
	if res.Stats.RowsMatched != 40 {
		t.Errorf("matched %d rows, want 40", res.Stats.RowsMatched)
	}
}

func TestTrustRangePruning(t *testing.T) {
	st := testStore(t)
	// Trust in [0.61, 0.7]: only segment 3 (trust 0.6..0.68) qualifies.
	res := mustRun(t, st, Query{Where: []Predicate{TrustRange(0.61, 0.7)}, Value: ValueTrust})
	if res.Stats.SegmentsPruned != 3 {
		t.Errorf("pruned %d segments, want 3", res.Stats.SegmentsPruned)
	}
	if res.Stats.RowsMatched == 0 {
		t.Fatal("no rows matched")
	}
	g := res.Groups[0]
	if g.Min < 0.61 || g.Max > 0.7 {
		t.Errorf("trust bounds [%g, %g] escape the predicate", g.Min, g.Max)
	}
}

func TestGroupWeekAggregates(t *testing.T) {
	st := testStore(t)
	res := mustRun(t, st, Query{GroupBys: []GroupBy{GroupWeek}, Value: ValueDuration, P50: true, Distinct: ColWorker})
	if len(res.Groups) != 4 {
		t.Fatalf("groups = %+v, want 4 weeks", res.Groups)
	}
	for i, g := range res.Groups {
		if g.Key != int64(i) {
			t.Errorf("group %d key = %d", i, g.Key)
		}
		if g.Count != 80 {
			t.Errorf("week %d count = %d, want 80", i, g.Count)
		}
		if g.Distinct != 10 {
			t.Errorf("week %d distinct workers = %d, want 10", i, g.Distinct)
		}
		// Durations are 60 + (i%7)*30 over i = 0..39: min 60, max 240.
		if g.Min != 60 || g.Max != 240 {
			t.Errorf("week %d duration bounds [%g, %g]", i, g.Min, g.Max)
		}
		if g.P50 <= g.Min || g.P50 >= g.Max {
			t.Errorf("week %d p50 %g outside (%g, %g)", i, g.P50, g.Min, g.Max)
		}
		if m := g.Mean(); m != g.Sum/float64(g.Count) {
			t.Errorf("mean %g inconsistent", m)
		}
	}
}

func TestConjunctionAcrossColumns(t *testing.T) {
	st := testStore(t)
	res := mustRun(t, st, Query{Where: []Predicate{
		Eq(ColBatch, 4),
		In(ColTaskType, 2),
		{Col: ColItem, Lo: 10, Hi: math.MaxUint32},
	}})
	// Batch 4 is segment 2's first batch; even items have type 2; items
	// 10..39 → 15 even ones.
	if res.Stats.RowsMatched != 15 {
		t.Errorf("matched %d, want 15", res.Stats.RowsMatched)
	}
	if res.Stats.SegmentsPruned != 3 {
		t.Errorf("pruned %d, want 3 (batch bound prunes via the segment table)", res.Stats.SegmentsPruned)
	}
}

func TestEmptyResult(t *testing.T) {
	st := testStore(t)
	res := mustRun(t, st, Query{Where: []Predicate{Eq(ColWorker, 999)}})
	if len(res.Groups) != 0 || res.Stats.RowsMatched != 0 {
		t.Errorf("result = %+v", res)
	}
	if res.Stats.SegmentsPruned != 4 {
		t.Errorf("pruned %d segments, want all 4", res.Stats.SegmentsPruned)
	}
}

func TestMonolithicStoreNoZones(t *testing.T) {
	// A repair-loaded store carries no zone maps and no encodings; queries
	// compute the zones lazily and answer exactly like the sealed store.
	seg := testStore(t)
	st := repairLoaded(t, seg)
	want := mustRun(t, seg, Query{Where: []Predicate{Eq(ColWorker, 203)}, GroupBys: []GroupBy{GroupBatch}, Value: ValueDuration})
	got := mustRun(t, st, Query{Where: []Predicate{Eq(ColWorker, 203)}, GroupBys: []GroupBy{GroupBatch}, Value: ValueDuration})
	if len(got.Groups) != len(want.Groups) {
		t.Fatalf("groups %d vs %d", len(got.Groups), len(want.Groups))
	}
	for i := range got.Groups {
		if got.Groups[i] != want.Groups[i] {
			t.Errorf("group %d: %+v vs %+v", i, got.Groups[i], want.Groups[i])
		}
	}
}

func TestWorkersInvariant(t *testing.T) {
	st := testStore(t)
	base := mustRun(t, st, Query{GroupBys: []GroupBy{GroupWorker}, Value: ValueTrust, P50: true, Workers: 1})
	for _, w := range []int{0, 2, 8} {
		got := mustRun(t, st, Query{GroupBys: []GroupBy{GroupWorker}, Value: ValueTrust, P50: true, Workers: w})
		if len(got.Groups) != len(base.Groups) {
			t.Fatalf("workers=%d: %d groups vs %d", w, len(got.Groups), len(base.Groups))
		}
		for i := range got.Groups {
			if got.Groups[i] != base.Groups[i] {
				t.Errorf("workers=%d group %d: %+v vs %+v", w, i, got.Groups[i], base.Groups[i])
			}
		}
	}
}

func TestValidateRejects(t *testing.T) {
	st := testStore(t)
	for name, q := range map[string]Query{
		"set on trust":        {Where: []Predicate{{Col: ColTrust, Set: []uint32{1}}}},
		"set on start":        {Where: []Predicate{{Col: ColStart, Set: []uint32{1}}}},
		"unknown column":      {Where: []Predicate{{Col: Column(200), Hi: 1}}},
		"zero-value pred":     {Where: []Predicate{{}}},
		"nan trust bound":     {Where: []Predicate{{Col: ColTrust, FLo: math.NaN()}}},
		"p50 without value":   {P50: true},
		"distinct over trust": {Distinct: ColTrust},
		"bad group":           {GroupBys: []GroupBy{GroupBy(99)}},
		"bad value":           {Value: Value(99)},
	} {
		if _, err := Run(st, q); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

func TestResultGroupLookup(t *testing.T) {
	st := testStore(t)
	res := mustRun(t, st, Query{GroupBys: []GroupBy{GroupTaskType}})
	if g, ok := res.Group(12); !ok || g.Count != 40 {
		t.Errorf("Group(12) = %+v, %v", g, ok)
	}
	if _, ok := res.Group(7); ok {
		t.Error("Group(7) should not exist")
	}
	if n := totalCount(res.Groups); n != int64(st.Len()) {
		t.Errorf("groups hold %d of %d rows", n, st.Len())
	}
}

// TestRangeMinInt64Sentinel: an exclusive upper bound of MinInt64 cannot
// wrap into an unbounded-above predicate — it matches nothing.
func TestRangeMinInt64Sentinel(t *testing.T) {
	st := testStore(t)
	res := mustRun(t, st, Query{Where: []Predicate{Range(ColStart, 0, math.MinInt64)}})
	if res.Stats.RowsMatched != 0 {
		t.Errorf("matched %d rows, want 0", res.Stats.RowsMatched)
	}
}

// TestZoneMapsConcurrentRuns: parallel Run calls on a store without
// sealed-in zone maps share the lazy fill safely (the -race tier is the
// real assertion here).
func TestZoneMapsConcurrentRuns(t *testing.T) {
	st := repairLoaded(t, testStore(t))
	var wg sync.WaitGroup
	counts := make([]int64, 8)
	for g := range counts {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			res, err := Run(st, Query{Where: []Predicate{Eq(ColWorker, 203)}, Workers: 2})
			if err == nil {
				counts[g] = res.Stats.RowsMatched
			}
		}(g)
	}
	wg.Wait()
	for g, n := range counts {
		if n != 8 {
			t.Errorf("goroutine %d matched %d rows, want 8", g, n)
		}
	}
}

func TestCountHelper(t *testing.T) {
	st := testStore(t)
	res, err := Run(st, Query{Where: []Predicate{Eq(ColWorker, 203)}})
	if err != nil || res.Stats.RowsMatched != 8 {
		t.Errorf("count-only Run matched %+v, %v", res, err)
	}
}
