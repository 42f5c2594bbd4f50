package store

import (
	"bytes"
	"sync"
	"testing"
)

// encodedTwin round-trips the store through an encoded snapshot so its
// raw columns start unmaterialized.
func encodedTwin(t testing.TB, s *Store) *Store {
	t.Helper()
	var buf bytes.Buffer
	if _, err := s.WriteSnapshot(&buf, WriteOptions{Workers: 1}); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	var twin Store
	if _, err := twin.ReadSnapshot(bytes.NewReader(buf.Bytes()), LoadOptions{Workers: 1}); err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	return &twin
}

// TestConcurrentColumnMaterialization exercises the per-column fill
// guards: eight goroutines lazily materialize eight different columns of
// one freshly loaded store at once (plus zone-map and encoding readers,
// and two first callers of the derived end column), and every column must
// come out exactly as written. Run with -race to
// check the guard structure, not just the values.
func TestConcurrentColumnMaterialization(t *testing.T) {
	src := bigFixtureStore(t, 4, 400)
	for round := 0; round < 8; round++ {
		st := encodedTwin(t, src)
		var wg sync.WaitGroup
		fetch := []func(){
			func() { st.Batches() },
			func() { st.TaskTypes() },
			func() { st.Items() },
			func() { st.Workers() },
			func() { st.Starts() },
			func() { st.Durations() },
			func() { st.Ends() },
			func() { st.Ends() }, // two first callers share one derivation
			func() { st.Trusts() },
			func() { st.Answers() },
			func() { st.ZoneMaps() },
			func() { st.encodings() },
		}
		wg.Add(len(fetch))
		for _, f := range fetch {
			go func(f func()) {
				defer wg.Done()
				f()
			}(f)
		}
		wg.Wait()
		for r := 0; r < src.Len(); r++ {
			if src.Row(r) != st.Row(r) {
				t.Fatalf("round %d row %d differs after concurrent fill", round, r)
			}
		}
	}
}

// BenchmarkColumnMaterializeContended measures the satellite case the
// per-column guards exist for: concurrent queries materializing
// different columns of the same freshly loaded store. Before the split a
// single fill mutex serialized all eight decodes.
func BenchmarkColumnMaterializeContended(b *testing.B) {
	src := bigFixtureStore(b, 8, 4000)
	twin := encodedTwin(b, src)
	encs, zones := twin.encs, twin.zones
	fresh := func() *Store {
		return &Store{
			rows: twin.rows, numBatches: twin.numBatches, fill: &fillState{},
			catalogue: catalogue{segs: twin.segs, zones: zones, encs: encs},
		}
	}
	fetch := []func(s *Store){
		func(s *Store) { s.Batches() },
		func(s *Store) { s.TaskTypes() },
		func(s *Store) { s.Items() },
		func(s *Store) { s.Workers() },
		func(s *Store) { s.Starts() },
		func(s *Store) { s.Ends() },
		func(s *Store) { s.Trusts() },
		func(s *Store) { s.Answers() },
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := fresh()
		var wg sync.WaitGroup
		wg.Add(len(fetch))
		for _, f := range fetch {
			go func(f func(*Store)) {
				defer wg.Done()
				f(st)
			}(f)
		}
		wg.Wait()
	}
}

// TestConcurrentWorkerIndex: the first readers of a fresh store's worker
// posting lists — one through EachWorker, one through WorkerRows, on two
// goroutines — share one index build and both see every posting. Run
// with -race: an unguarded lazy build is a write/write race.
func TestConcurrentWorkerIndex(t *testing.T) {
	src := bigFixtureStore(t, 4, 400)
	want := make(map[uint32]int)
	for _, w := range src.Workers() {
		want[w]++
	}
	w0 := src.Workers()[0]
	for round := 0; round < 8; round++ {
		st := encodedTwin(t, src)
		got := make(map[uint32]int)
		var n0 int
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			st.EachWorker(func(id uint32, rows []int32) { got[id] = len(rows) })
		}()
		go func() {
			defer wg.Done()
			n0 = len(st.WorkerRows(w0))
		}()
		wg.Wait()
		if len(got) != len(want) || n0 != want[w0] {
			t.Fatalf("round %d: %d workers indexed (want %d), worker %d has %d rows (want %d)",
				round, len(got), len(want), w0, n0, want[w0])
		}
		for id, n := range want {
			if got[id] != n {
				t.Fatalf("round %d: worker %d has %d rows, want %d", round, id, got[id], n)
			}
		}
	}
}
