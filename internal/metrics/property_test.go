package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"crowdscope/internal/model"
	"crowdscope/internal/rng"
	"crowdscope/internal/store"
)

// randomBatchStore builds one batch with random items/answers/timings.
func randomBatchStore(seed uint64) *store.Store {
	r := rng.New(seed)
	var rows []model.Instance
	items := 1 + r.Intn(12)
	base := model.Epoch.Unix() + r.Int63n(100000)
	for it := 0; it < items; it++ {
		reps := 1 + r.Intn(6)
		for rep := 0; rep < reps; rep++ {
			start := base + r.Int63n(50000)
			rows = append(rows, model.Instance{
				Batch: 0, Item: uint32(it), Worker: uint32(it*10 + rep),
				Start: start, End: start + 1 + r.Int63n(500),
				Answer: uint32(r.Intn(4)),
			})
		}
	}
	return storeOf(1, rows)
}

// TestPropertyDisagreementBounds: disagreement stays in [0,1] whenever
// pairs exist, and pickup/task times are non-negative.
func TestPropertyDisagreementBounds(t *testing.T) {
	f := func(seed uint64) bool {
		m := ComputeBatch(randomBatchStore(seed), 0)
		if !m.Valid() {
			return false
		}
		if m.Pairs > 0 && (m.Disagreement < 0 || m.Disagreement > 1) {
			return false
		}
		if m.Pairs == 0 && !math.IsNaN(m.Disagreement) {
			return false
		}
		return m.TaskTime >= 0 && m.PickupTime >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyDisagreementPermutationInvariant: row order within a batch
// must not change any metric (the definition is per-item set based).
func TestPropertyDisagreementPermutationInvariant(t *testing.T) {
	f := func(seed uint64) bool {
		base := randomBatchStore(seed)
		m1 := ComputeBatch(base, 0)

		// Rebuild with rows reversed.
		var rows []model.Instance
		for i := base.Len() - 1; i >= 0; i-- {
			rows = append(rows, base.Row(i))
		}
		m2 := ComputeBatch(storeOf(1, rows), 0)

		close := func(a, b float64) bool {
			if math.IsNaN(a) && math.IsNaN(b) {
				return true
			}
			return math.Abs(a-b) < 1e-9
		}
		return close(m1.Disagreement, m2.Disagreement) &&
			close(m1.TaskTime, m2.TaskTime) &&
			close(m1.PickupTime, m2.PickupTime) &&
			m1.Pairs == m2.Pairs
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyUnanimityZero: if every answer in the batch is identical,
// disagreement is exactly zero.
func TestPropertyUnanimityZero(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		var rows []model.Instance
		items := 1 + r.Intn(8)
		for it := 0; it < items; it++ {
			for rep := 0; rep < 2+r.Intn(4); rep++ {
				rows = append(rows, model.Instance{
					Batch: 0, Item: uint32(it), Worker: uint32(it*10 + rep),
					Start: model.Epoch.Unix(), End: model.Epoch.Unix() + 60,
					Answer: 42,
				})
			}
		}
		m := ComputeBatch(storeOf(1, rows), 0)
		return m.Disagreement == 0 && m.Pairs > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyAllDistinctOne: if every answer on an item differs,
// disagreement is exactly one.
func TestPropertyAllDistinctOne(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		var rows []model.Instance
		items := 1 + r.Intn(5)
		ans := uint32(0)
		for it := 0; it < items; it++ {
			for rep := 0; rep < 2+r.Intn(4); rep++ {
				ans++
				rows = append(rows, model.Instance{
					Batch: 0, Item: uint32(it), Worker: uint32(it*10 + rep),
					Start: model.Epoch.Unix(), End: model.Epoch.Unix() + 60,
					Answer: ans, // globally unique → all pairs disagree
				})
			}
		}
		m := ComputeBatch(storeOf(1, rows), 0)
		return m.Disagreement == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyReduceWithinRange: cluster medians lie within the min/max
// of their member batches.
func TestPropertyReduceWithinRange(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + r.Intn(10)
		bms := make([]Batch, n)
		ids := make([]uint32, n)
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := range bms {
			tt := 1 + r.Float64()*500
			bms[i] = Batch{Disagreement: r.Float64() * 0.4, Pairs: 5, TaskTime: tt, PickupTime: tt * 10, Instances: 3}
			ids[i] = uint32(i)
			if tt < lo {
				lo = tt
			}
			if tt > hi {
				hi = tt
			}
		}
		cm := Reduce(bms, ids)
		return cm.TaskTime >= lo-1e-9 && cm.TaskTime <= hi+1e-9 && cm.Batches == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
