package metrics

import (
	"math"
	"testing"

	"crowdscope/internal/model"
	"crowdscope/internal/rng"
	"crowdscope/internal/stats"
	"crowdscope/internal/store"
)

// storeOf seals rows — each batch's rows contiguous, batches ascending —
// into a one-segment store of numBatches batches.
func storeOf(numBatches int, rows []model.Instance) *store.Store {
	b := store.NewBuilder(0, uint32(numBatches))
	for i, in := range rows {
		if i == 0 || in.Batch != rows[i-1].Batch {
			b.BeginBatch(in.Batch)
		}
		b.Append(in)
	}
	s, err := store.Assemble(numBatches, []*store.Segment{b.Seal()})
	if err != nil {
		panic(err)
	}
	return s
}

// buildBatch stores rows for a single batch: answers[item][rep], all
// starting at base + rep seconds with duration dur.
func buildBatch(answers [][]uint32, base int64, durs []int64) *store.Store {
	var rows []model.Instance
	for item, reps := range answers {
		for rep, ans := range reps {
			d := int64(60)
			if k := len(rows); k < len(durs) {
				d = durs[k]
			}
			rows = append(rows, model.Instance{
				Batch: 0, Item: uint32(item), Worker: uint32(100 + rep + item*10),
				Start: base + int64(rep)*100, End: base + int64(rep)*100 + d,
				Answer: ans,
			})
		}
	}
	return storeOf(1, rows)
}

func TestDisagreementAllAgree(t *testing.T) {
	s := buildBatch([][]uint32{{1, 1, 1}, {2, 2, 2}}, 1000, nil)
	m := ComputeBatch(s, 0)
	if m.Disagreement != 0 {
		t.Errorf("Disagreement = %v, want 0", m.Disagreement)
	}
	if m.Pairs != 6 {
		t.Errorf("Pairs = %d, want 6", m.Pairs)
	}
}

func TestDisagreementAllDiffer(t *testing.T) {
	s := buildBatch([][]uint32{{1, 2, 3}}, 1000, nil)
	m := ComputeBatch(s, 0)
	if m.Disagreement != 1 {
		t.Errorf("Disagreement = %v, want 1", m.Disagreement)
	}
}

func TestDisagreementMixed(t *testing.T) {
	// Item with answers {a,a,b}: pairs aa agree, ab, ab disagree → 2/3.
	s := buildBatch([][]uint32{{7, 7, 9}}, 1000, nil)
	m := ComputeBatch(s, 0)
	if math.Abs(m.Disagreement-2.0/3.0) > 1e-12 {
		t.Errorf("Disagreement = %v, want 2/3", m.Disagreement)
	}
}

func TestDisagreementAveragesAcrossItems(t *testing.T) {
	// Item1: all agree (3 pairs, 0 disagreements); item2: all differ
	// (3 pairs, 3 disagreements) → 3/6 = 0.5 overall.
	s := buildBatch([][]uint32{{1, 1, 1}, {5, 6, 7}}, 1000, nil)
	m := ComputeBatch(s, 0)
	if math.Abs(m.Disagreement-0.5) > 1e-12 {
		t.Errorf("Disagreement = %v, want 0.5", m.Disagreement)
	}
}

func TestDisagreementSingleAnswerItem(t *testing.T) {
	// Items with one answer contribute no pairs.
	s := buildBatch([][]uint32{{4}}, 1000, nil)
	m := ComputeBatch(s, 0)
	if m.Pairs != 0 {
		t.Errorf("Pairs = %d, want 0", m.Pairs)
	}
	if !math.IsNaN(m.Disagreement) {
		t.Errorf("Disagreement = %v, want NaN", m.Disagreement)
	}
	if !m.Pruned() {
		t.Error("pair-less batch should prune from error analyses")
	}
}

func TestPruneThreshold(t *testing.T) {
	low := Batch{Disagreement: 0.3, Pairs: 10, Instances: 10}
	if low.Pruned() {
		t.Error("0.3 disagreement should survive pruning")
	}
	high := Batch{Disagreement: 0.8, Pairs: 10, Instances: 10}
	if !high.Pruned() {
		t.Error("0.8 disagreement must be pruned (subjective text)")
	}
}

func TestTaskTimeMedian(t *testing.T) {
	s := buildBatch([][]uint32{{1, 1, 1}}, 1000, []int64{10, 50, 90})
	m := ComputeBatch(s, 0)
	if m.TaskTime != 50 {
		t.Errorf("TaskTime = %v, want 50", m.TaskTime)
	}
}

func TestPickupTimeUsesEarliestStartProxy(t *testing.T) {
	// Starts at base+0, base+100, base+200 → pickups 0,100,200; median 100.
	s := buildBatch([][]uint32{{1, 1, 1}}, 5000, nil)
	m := ComputeBatch(s, 0)
	if m.PickupTime != 100 {
		t.Errorf("PickupTime = %v, want 100", m.PickupTime)
	}
}

func TestComputeBatchEmpty(t *testing.T) {
	s := store.New(2)
	m := ComputeBatch(s, 1)
	if m.Valid() {
		t.Error("empty batch should be invalid")
	}
}

func TestComputeAll(t *testing.T) {
	s := storeOf(3, []model.Instance{
		{Batch: 0, Item: 0, Worker: 1, Start: 10, End: 20, Answer: 1},
		{Batch: 0, Item: 0, Worker: 2, Start: 15, End: 40, Answer: 1},
		{Batch: 2, Item: 0, Worker: 3, Start: 100, End: 160, Answer: 5},
	})
	all := ComputeAll(s)
	if len(all) != 3 {
		t.Fatalf("ComputeAll length %d", len(all))
	}
	if !all[0].Valid() || all[1].Valid() || !all[2].Valid() {
		t.Errorf("validity flags wrong: %+v", all)
	}
	if all[0].Disagreement != 0 {
		t.Errorf("batch 0 disagreement = %v", all[0].Disagreement)
	}
}

// computeBatchReference is the historical allocation-heavy kernel:
// per-batch slices plus the map-based disagreement grouping. The fused
// scratch kernel must be bit-equal to it.
func computeBatchReference(st *store.Store, batchID uint32) Batch {
	lo, hi := st.BatchRange(batchID)
	n := hi - lo
	if n == 0 {
		return Batch{}
	}
	starts := st.Starts()[lo:hi]
	ends := st.Ends()[lo:hi]

	durs := make([]float64, n)
	minStart := starts[0]
	for i := 0; i < n; i++ {
		durs[i] = float64(ends[i] - starts[i])
		if starts[i] < minStart {
			minStart = starts[i]
		}
	}
	pickups := make([]float64, n)
	for i := 0; i < n; i++ {
		pickups[i] = float64(starts[i] - minStart)
	}
	agree, total := disagreementCountsByMap(st.Items()[lo:hi], st.Answers()[lo:hi])
	out := Batch{
		Pairs:      total,
		TaskTime:   stats.MedianInPlace(durs),
		PickupTime: stats.MedianInPlace(pickups),
		Instances:  n,
	}
	if total > 0 {
		out.Disagreement = 1 - float64(agree)/float64(total)
	} else {
		out.Disagreement = math.NaN()
	}
	return out
}

func batchesBitEqual(a, b Batch) bool {
	return math.Float64bits(a.Disagreement) == math.Float64bits(b.Disagreement) &&
		a.Pairs == b.Pairs &&
		math.Float64bits(a.TaskTime) == math.Float64bits(b.TaskTime) &&
		math.Float64bits(a.PickupTime) == math.Float64bits(b.PickupTime) &&
		a.Instances == b.Instances
}

// randomStore builds a multi-batch store with randomized redundancy,
// durations, and answer agreement — contiguous item grouping, as the
// generator produces.
func randomStore(seed uint64, batches int) *store.Store {
	r := rng.New(seed)
	var rows []model.Instance
	for b := 0; b < batches; b++ {
		rows = appendRandomBatch(r, rows, uint32(b))
	}
	return storeOf(batches, rows)
}

// appendRandomBatch appends batch b's randomized rows to rows — none one
// time in five, leaving some batches empty.
func appendRandomBatch(r *rng.Rand, rows []model.Instance, b uint32) []model.Instance {
	if r.Intn(5) == 0 {
		return rows
	}
	items := 1 + r.Intn(8)
	base := int64(1000 + r.Intn(100000))
	for it := 0; it < items; it++ {
		reps := 1 + r.Intn(20)
		for rep := 0; rep < reps; rep++ {
			rows = append(rows, model.Instance{
				Batch: b, Item: uint32(it),
				Worker: uint32(r.Intn(50)),
				Start:  base + int64(r.Intn(5000)),
				End:    base + int64(5000+r.Intn(5000)),
				Answer: uint32(r.Intn(3)),
			})
		}
	}
	return rows
}

// segmentedStore builds a store of nseg segments of per batches each,
// randomized like randomStore. Every segment's batch interval starts and
// ends on an empty batch, and the two batches past the last interval
// belong to no segment.
func segmentedStore(seed uint64, nseg, per int) *store.Store {
	r := rng.New(seed)
	segs := make([]*store.Segment, nseg)
	for g := range segs {
		lo := uint32(g * per)
		bld := store.NewBuilder(lo, lo+uint32(per))
		for b := lo + 1; b < lo+uint32(per)-1; b++ {
			rows := appendRandomBatch(r, nil, b)
			if len(rows) > 0 {
				bld.BeginBatch(b)
			}
			for _, in := range rows {
				bld.Append(in)
			}
		}
		segs[g] = bld.Seal()
	}
	s, err := store.Assemble(nseg*per+2, segs)
	if err != nil {
		panic(err)
	}
	return s
}

// TestComputeBatchMatchesReference: the scratch kernel is bit-equal to
// the historical map kernel across randomized batches, including when one
// scratch is reused across every batch.
func TestComputeBatchMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		s := randomStore(seed, 40)
		var sc Scratch
		for b := 0; b < 40; b++ {
			want := computeBatchReference(s, uint32(b))
			got := sc.ComputeBatch(s, uint32(b))
			if !batchesBitEqual(got, want) {
				t.Fatalf("seed %d batch %d: %+v != reference %+v", seed, b, got, want)
			}
		}
	}
}

// TestDisagreementNonContiguousFallback: rows whose items interleave must
// take the map fallback and still count every pair.
func TestDisagreementNonContiguousFallback(t *testing.T) {
	// Items 0,1,0,1: each item has answers {1,1} and {1,2} respectively.
	var rows []model.Instance
	for i, rw := range []struct{ item, ans uint32 }{{0, 1}, {1, 1}, {0, 1}, {1, 2}} {
		rows = append(rows, model.Instance{Batch: 0, Item: rw.item, Worker: uint32(i), Start: 100, End: 160, Answer: rw.ans})
	}
	s := storeOf(1, rows)
	m := ComputeBatch(s, 0)
	if m.Pairs != 2 {
		t.Fatalf("Pairs = %d, want 2", m.Pairs)
	}
	if m.Disagreement != 0.5 {
		t.Fatalf("Disagreement = %v, want 0.5", m.Disagreement)
	}
	if !batchesBitEqual(m, computeBatchReference(s, 0)) {
		t.Fatal("fallback result differs from reference")
	}
}

// TestComputeBatchAllocs: with a warm scratch the per-batch kernel is
// allocation-free on contiguous (generator-shaped) batches.
func TestComputeBatchAllocs(t *testing.T) {
	s := buildBatch([][]uint32{{1, 1, 2}, {3, 3, 3}, {4, 5, 4}, {6, 6, 6, 6, 6}}, 1000, nil)
	var sc Scratch
	sc.ComputeBatch(s, 0) // warm the buffers
	allocs := testing.AllocsPerRun(20, func() {
		sc.ComputeBatch(s, 0)
	})
	if allocs != 0 {
		t.Errorf("ComputeBatch allocs = %v, want 0 with warm scratch", allocs)
	}
}

// TestComputeAllWorkersInvariant: metrics fanned out over runs of
// segments are bit-equal to ComputeBatch per batch, and so to each other,
// for any worker count — on a store of eight segments whose intervals
// start and end on empty batches, with batches outside every interval.
func TestComputeAllWorkersInvariant(t *testing.T) {
	s := segmentedStore(42, 8, 9)
	if n := len(s.Segments()); n != 8 {
		t.Fatalf("%d segments, want 8", n)
	}
	var sc Scratch
	want := make([]Batch, s.NumBatches())
	nonEmpty := 0
	for b := range want {
		if lo, hi := s.BatchRange(uint32(b)); lo < hi {
			want[b] = sc.ComputeBatch(s, uint32(b))
			nonEmpty++
		}
	}
	if nonEmpty < 8 {
		t.Fatalf("only %d batches hold rows", nonEmpty)
	}
	for _, w := range []int{0, 1, 2, 3, 7} {
		got := ComputeAllWorkers(s, w)
		if len(got) != len(want) {
			t.Fatalf("workers=%d length %d != %d", w, len(got), len(want))
		}
		for b := range got {
			if !batchesBitEqual(got[b], want[b]) {
				t.Fatalf("workers=%d batch %d differs from ComputeBatch", w, b)
			}
		}
	}
}

func TestReduce(t *testing.T) {
	bms := []Batch{
		{Disagreement: 0.1, Pairs: 5, TaskTime: 100, PickupTime: 1000, Instances: 10},
		{Disagreement: 0.3, Pairs: 5, TaskTime: 300, PickupTime: 3000, Instances: 10},
		{Disagreement: 0.2, Pairs: 5, TaskTime: 200, PickupTime: 2000, Instances: 10},
		{}, // invalid, skipped
		{Disagreement: math.NaN(), Pairs: 0, TaskTime: 999, PickupTime: 99, Instances: 4}, // no pairs
	}
	cm := Reduce(bms, []uint32{0, 1, 2, 3, 4})
	if cm.Batches != 4 {
		t.Errorf("Batches = %d, want 4", cm.Batches)
	}
	if cm.Disagreement != 0.2 {
		t.Errorf("Disagreement = %v, want 0.2", cm.Disagreement)
	}
	// Task time median over {100,300,200,999}.
	if cm.TaskTime != 250 {
		t.Errorf("TaskTime = %v, want 250", cm.TaskTime)
	}
}

func TestReduceAllInvalid(t *testing.T) {
	cm := Reduce([]Batch{{}, {}}, []uint32{0, 1})
	if cm.Batches != 0 {
		t.Errorf("Batches = %d", cm.Batches)
	}
	if !math.IsNaN(cm.Disagreement) || !math.IsNaN(cm.TaskTime) {
		t.Error("empty reduction should be NaN")
	}
	// Out-of-range IDs are ignored.
	cm = Reduce([]Batch{{}}, []uint32{99})
	if cm.Batches != 0 {
		t.Error("out-of-range batch counted")
	}
}
