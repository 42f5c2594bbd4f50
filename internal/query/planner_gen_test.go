package query

import (
	"math/rand"
	"runtime"
	"testing"

	"crowdscope/internal/model"
	"crowdscope/internal/store"
)

// genStore builds a one-segment store with a handful of rows; content is
// deterministic so two calls produce equal stores with distinct
// generations.
func genStore(t *testing.T, rows int) *store.Store {
	t.Helper()
	b := store.NewBuilder(0, 4)
	for batch := uint32(0); batch < 4; batch++ {
		b.BeginBatch(batch)
		for i := 0; i < rows/4; i++ {
			b.Append(model.Instance{
				Batch:    batch,
				TaskType: uint32(i % 7),
				Item:     uint32(i % 50),
				Worker:   uint32(i % 20),
				Start:    model.Epoch.Unix() + int64(i),
				End:      model.Epoch.Unix() + int64(i) + 60,
				Trust:    0.5,
				Answer:   uint32(i % 3),
			})
		}
	}
	st, err := store.Assemble(4, []*store.Segment{b.Seal()})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func explain(t *testing.T, pn *Planner, st *store.Store, q Query) bool {
	t.Helper()
	pl, err := pn.Explain(st, q)
	if err != nil {
		t.Fatal(err)
	}
	return pl.Cached
}

// TestPlannerGenerationKeying pins the plan-cache identity contract: a
// repeated query on the same store hits, while a rebuilt store — even
// one with byte-identical content, even one whose allocation may reuse
// the old store's address — always misses, because the key is the
// store's process-monotonic generation, not its pointer.
func TestPlannerGenerationKeying(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	tabs := randTables(r, 32, 8)
	q := Query{GroupBys: []GroupBy{GroupTaskType}, Tables: tabs}

	pn := NewPlanner(8)
	stA := genStore(t, 400)
	if stA.Generation() == 0 {
		t.Fatal("assembled store has zero generation")
	}
	if explain(t, pn, stA, q) {
		t.Fatal("first lookup reported a cache hit")
	}
	if !explain(t, pn, stA, q) {
		t.Fatal("repeat lookup on the same store missed the cache")
	}

	stB := genStore(t, 400)
	if stB.Generation() == stA.Generation() {
		t.Fatalf("two stores share generation %d", stA.Generation())
	}
	if explain(t, pn, stB, q) {
		t.Fatal("rebuilt store reused the old store's cached binding")
	}

	// Distinct tables with identical content must also miss: the tables
	// generation is part of the key.
	r2 := rand.New(rand.NewSource(99))
	q2 := q
	q2.Tables = randTables(r2, 32, 8)
	if explain(t, pn, stB, q2) {
		t.Fatal("rebuilt tables reused the old tables' cached binding")
	}
}

// TestPlannerRecycledAddressNeverHits rebuilds stores in a loop, letting
// each die and nudging the GC so the allocator is free to hand a later
// store the earlier one's address — the exact aliasing scenario the old
// %p-keyed cache was vulnerable to. Every fresh store must miss.
func TestPlannerRecycledAddressNeverHits(t *testing.T) {
	pn := NewPlanner(64)
	q := Query{Value: ValueTrust}
	for i := 0; i < 16; i++ {
		st := genStore(t, 200)
		if explain(t, pn, st, q) {
			t.Fatalf("iteration %d: fresh store hit a stale cache entry", i)
		}
		if !explain(t, pn, st, q) {
			t.Fatalf("iteration %d: repeat lookup missed", i)
		}
		runtime.GC()
	}
	hits, misses := pn.CacheStats()
	if hits != 16 || misses != 16 {
		t.Fatalf("cache stats hits=%d misses=%d, want 16/16", hits, misses)
	}
}

// TestPlannerZeroGenerationUncached: zero-value stores and tables carry
// generation 0, which is not a valid identity — the planner must plan
// fresh every time rather than let two unrelated zero-gen values share
// an entry.
func TestPlannerZeroGenerationUncached(t *testing.T) {
	pn := NewPlanner(8)
	st := &store.Store{}
	q := Query{}
	if explain(t, pn, st, q) {
		t.Fatal("zero-generation store lookup reported a hit")
	}
	if explain(t, pn, st, q) {
		t.Fatal("zero-generation store was cached")
	}

	// A versioned store with zero-generation tables is equally uncacheable.
	st2 := genStore(t, 100)
	q2 := Query{Tables: &SideTables{}}
	if explain(t, pn, st2, q2) {
		t.Fatal("zero-generation tables lookup reported a hit")
	}
	if explain(t, pn, st2, q2) {
		t.Fatal("zero-generation tables were cached")
	}
	if hits, _ := pn.CacheStats(); hits != 0 {
		t.Fatalf("uncacheable lookups produced %d hits", hits)
	}
}
