package store

import (
	"testing"

	"crowdscope/internal/model"
)

func bigStore(rows int) *Store {
	s := New(1)
	s.BeginBatch(0)
	for i := 0; i < rows; i++ {
		s.Append(model.Instance{
			Batch: 0, Worker: uint32(i % 97), Start: int64(i), End: int64(i + 10),
		})
	}
	return s
}

func TestParallelScanCoversAllRows(t *testing.T) {
	s := bigStore(10007)
	for _, workers := range []int{1, 2, 4, 16, 10007, 20000} {
		parts := ParallelScan(s, workers, func(lo, hi int) int { return hi - lo })
		total := 0
		for _, p := range parts {
			total += p
		}
		if total != s.Len() {
			t.Errorf("workers=%d covered %d of %d rows", workers, total, s.Len())
		}
	}
}

func TestParallelScanEmpty(t *testing.T) {
	s := New(0)
	parts := ParallelScan(s, 4, func(lo, hi int) int { return hi - lo })
	if len(parts) != 0 {
		t.Errorf("empty store produced %d parts", len(parts))
	}
}

func TestParallelSumMatchesSerial(t *testing.T) {
	s := bigStore(5000)
	serial := int64(0)
	for _, v := range s.Starts() {
		serial += v
	}
	for _, workers := range []int{0, 1, 3, 8} {
		if got := parallelSum(s, s.Starts(), workers); got != serial {
			t.Errorf("workers=%d sum=%d want %d", workers, got, serial)
		}
	}
}

// parallelSum sums an int64 column through ParallelScan.
func parallelSum(s *Store, col []int64, workers int) int64 {
	var total int64
	for _, part := range ParallelScan(s, workers, func(lo, hi int) int64 {
		var t int64
		for _, v := range col[lo:hi] {
			t += v
		}
		return t
	}) {
		total += part
	}
	return total
}

func TestParallelCountByMatchesSerial(t *testing.T) {
	s := bigStore(5000)
	serial := map[uint32]int64{}
	for _, v := range s.Workers() {
		serial[v]++
	}
	col := s.Workers()
	got := map[uint32]int64{}
	for _, part := range ParallelScan(s, 6, func(lo, hi int) map[uint32]int64 {
		m := make(map[uint32]int64)
		for _, v := range col[lo:hi] {
			m[v]++
		}
		return m
	}) {
		for k, v := range part {
			got[k] += v
		}
	}
	if len(got) != len(serial) {
		t.Fatalf("key counts differ: %d vs %d", len(got), len(serial))
	}
	for k, v := range serial {
		if got[k] != v {
			t.Errorf("key %d: %d vs %d", k, got[k], v)
		}
	}
}

func TestParallelScanChunkOrder(t *testing.T) {
	s := bigStore(1000)
	parts := ParallelScan(s, 4, func(lo, hi int) int { return lo })
	for i := 1; i < len(parts); i++ {
		if parts[i] <= parts[i-1] {
			t.Fatal("chunk results out of order")
		}
	}
}

func TestParallelScanNonPositiveWorkers(t *testing.T) {
	s := bigStore(1000)
	for _, workers := range []int{0, -1, -42} {
		parts := ParallelScan(s, workers, func(lo, hi int) int { return hi - lo })
		total := 0
		for _, p := range parts {
			total += p
		}
		if total != s.Len() {
			t.Errorf("workers=%d covered %d of %d rows", workers, total, s.Len())
		}
	}
}

func TestParallelScanEmptyAnyWorkers(t *testing.T) {
	s := New(0)
	for _, workers := range []int{-1, 0, 1, 8} {
		if parts := ParallelScan(s, workers, func(lo, hi int) int { return hi - lo }); len(parts) != 0 {
			t.Errorf("workers=%d: empty store produced %d parts", workers, len(parts))
		}
	}
}

func TestParallelScanSingleRow(t *testing.T) {
	s := bigStore(1)
	parts := ParallelScan(s, 8, func(lo, hi int) [2]int { return [2]int{lo, hi} })
	if len(parts) != 1 || parts[0] != [2]int{0, 1} {
		t.Errorf("single-row scan parts = %v", parts)
	}
}

// TestParallelScanSegmented: chunking over an assembled store still covers
// every row exactly once, in order, for worker counts below, at, and above
// the segment count.
func TestParallelScanSegmented(t *testing.T) {
	segs := []*Segment{
		buildSegment(t, 0, 10, 17),
		buildSegment(t, 10, 12, 400),
		buildSegment(t, 12, 30, 3),
		buildSegment(t, 30, 31, 250),
	}
	s, err := Assemble(31, segs)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 9, 100} {
		parts := ParallelScan(s, workers, func(lo, hi int) [2]int { return [2]int{lo, hi} })
		next := 0
		for _, p := range parts {
			if p[0] != next || p[1] <= p[0] {
				t.Fatalf("workers=%d: chunk %v not contiguous at %d", workers, p, next)
			}
			next = p[1]
		}
		if next != s.Len() {
			t.Fatalf("workers=%d covered %d of %d rows", workers, next, s.Len())
		}
	}
}

// TestParallelScanBatchesCovers: batch chunks partition the batch space
// and never split one batch across two chunks.
func TestParallelScanBatchesCovers(t *testing.T) {
	segs := []*Segment{
		buildSegment(t, 0, 8, 5),
		buildSegment(t, 8, 20, 2),
	}
	s, err := Assemble(25, segs) // batches 20..24 empty
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 1, 2, 5, 50} {
		parts := ParallelScanBatches(s, workers, func(lo, hi uint32) [2]uint32 { return [2]uint32{lo, hi} })
		next := uint32(0)
		for _, p := range parts {
			if p[0] != next || p[1] <= p[0] {
				t.Fatalf("workers=%d: batch chunk %v not contiguous at %d", workers, p, next)
			}
			next = p[1]
		}
		if next != uint32(s.NumBatches()) {
			t.Fatalf("workers=%d covered %d of %d batches", workers, next, s.NumBatches())
		}
	}
	if parts := ParallelScanBatches(New(0), 4, func(lo, hi uint32) int { return 0 }); len(parts) != 0 {
		t.Errorf("empty store produced %d batch chunks", len(parts))
	}
}

func BenchmarkParallelSum(b *testing.B) {
	s := bigStore(2_000_000)
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			parallelSum(s, s.Starts(), 1)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			parallelSum(s, s.Starts(), 0)
		}
	})
}
