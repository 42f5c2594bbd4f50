package store

import (
	"testing"

	"crowdscope/internal/model"
)

// bigStore assembles a one-segment store of the given row count whose
// batches are heavily skewed in size (batch b holds about b+1 shares),
// the shape ParallelScanBatches' row-mass split exists for.
func bigStore(rows int) *Store {
	out := make([]model.Instance, rows)
	b, left := uint32(0), 0
	for i := range out {
		if left == 0 {
			if i > 0 {
				b++
			}
			left = 1 + int(b)*rows/64
		}
		left--
		out[i] = model.Instance{Batch: b, Worker: uint32(i % 97), Start: int64(i), End: int64(i + 10)}
	}
	return storeOf(int(b)+1, out)
}

// batchChunks returns the [batchLo, batchHi) chunks of a batch scan.
func batchChunks(s *Store, workers int) [][2]uint32 {
	return ParallelScanBatches(s, workers, func(lo, hi uint32) [2]uint32 { return [2]uint32{lo, hi} })
}

// chunkRows returns the row span a batch chunk covers.
func chunkRows(s *Store, c [2]uint32) (lo, hi int) {
	lo, _ = s.BatchRange(c[0])
	_, hi = s.BatchRange(c[1] - 1)
	return lo, hi
}

func TestParallelScanCoversAllRows(t *testing.T) {
	s := bigStore(10007)
	for _, workers := range []int{1, 2, 4, 16, 10007, 20000} {
		total := 0
		for _, c := range batchChunks(s, workers) {
			lo, hi := chunkRows(s, c)
			total += hi - lo
		}
		if total != s.Len() {
			t.Errorf("workers=%d covered %d of %d rows", workers, total, s.Len())
		}
	}
}

func TestParallelScanEmpty(t *testing.T) {
	if parts := batchChunks(New(0), 4); len(parts) != 0 {
		t.Errorf("empty store produced %d parts", len(parts))
	}
}

func TestParallelSumMatchesSerial(t *testing.T) {
	s := bigStore(5000)
	serial := int64(0)
	for _, v := range s.Starts() {
		serial += v
	}
	for _, workers := range []int{0, 1, 2, 3, 8} {
		if got := parallelSum(s, s.Starts(), workers); got != serial {
			t.Errorf("workers=%d sum=%d want %d", workers, got, serial)
		}
	}
}

// parallelSum sums an int64 column through ParallelScanBatches.
func parallelSum(s *Store, col []int64, workers int) int64 {
	var total int64
	for _, part := range ParallelScanBatches(s, workers, func(lo, hi uint32) int64 {
		rlo, rhi := chunkRows(s, [2]uint32{lo, hi})
		var t int64
		for _, v := range col[rlo:rhi] {
			t += v
		}
		return t
	}) {
		total += part
	}
	return total
}

// TestParallelCountByMatchesSerial: per-chunk maps merged in chunk order
// equal the serial count, and the worker posting lists — built from row
// chunks above workerIndexParallelMin — equal a serial build.
func TestParallelCountByMatchesSerial(t *testing.T) {
	s := bigStore(workerIndexParallelMin + 500)
	col := s.Workers()
	serial := map[uint32][]int32{}
	for i, v := range col {
		serial[v] = append(serial[v], int32(i))
	}
	got := map[uint32]int64{}
	for _, part := range ParallelScanBatches(s, 6, func(lo, hi uint32) map[uint32]int64 {
		rlo, rhi := chunkRows(s, [2]uint32{lo, hi})
		m := make(map[uint32]int64)
		for _, v := range col[rlo:rhi] {
			m[v]++
		}
		return m
	}) {
		for k, v := range part {
			got[k] += v
		}
	}
	indexed := 0
	s.EachWorker(func(uint32, []int32) { indexed++ })
	if len(got) != len(serial) || indexed != len(serial) {
		t.Fatalf("key counts differ: %d and %d vs %d", len(got), indexed, len(serial))
	}
	for k, rows := range serial {
		if got[k] != int64(len(rows)) {
			t.Errorf("key %d: %d vs %d", k, got[k], len(rows))
		}
		if idx := s.WorkerRows(k); len(idx) != len(rows) {
			t.Errorf("worker %d: %d posting rows, want %d", k, len(idx), len(rows))
		} else {
			for i := range rows {
				if idx[i] != rows[i] {
					t.Fatalf("worker %d: posting %d is row %d, want %d", k, i, idx[i], rows[i])
				}
			}
		}
	}
}

func TestParallelScanChunkOrder(t *testing.T) {
	s := bigStore(1000)
	parts := batchChunks(s, 4)
	if len(parts) < 2 {
		t.Fatalf("%d chunks for 4 workers", len(parts))
	}
	for i := 1; i < len(parts); i++ {
		if parts[i][0] != parts[i-1][1] {
			t.Fatal("chunk results out of order")
		}
	}
	// The split is by row mass, not batch count: no chunk of the skewed
	// store exceeds an even share by more than the largest batch.
	maxBatch := 0
	for b := 0; b < s.NumBatches(); b++ {
		lo, hi := s.BatchRange(uint32(b))
		maxBatch = max(maxBatch, hi-lo)
	}
	for _, c := range parts {
		if lo, hi := chunkRows(s, c); hi-lo > s.Len()/4+maxBatch {
			t.Fatalf("chunk %v holds %d of %d rows", c, hi-lo, s.Len())
		}
	}
}

func TestParallelScanNonPositiveWorkers(t *testing.T) {
	s := bigStore(1000)
	for _, workers := range []int{0, -1, -42} {
		total := 0
		for _, c := range batchChunks(s, workers) {
			lo, hi := chunkRows(s, c)
			total += hi - lo
		}
		if total != s.Len() {
			t.Errorf("workers=%d covered %d of %d rows", workers, total, s.Len())
		}
	}
}

func TestParallelScanEmptyAnyWorkers(t *testing.T) {
	s := New(0)
	for _, workers := range []int{-1, 0, 1, 8} {
		if parts := batchChunks(s, workers); len(parts) != 0 {
			t.Errorf("workers=%d: empty store produced %d parts", workers, len(parts))
		}
	}
}

func TestParallelScanSingleRow(t *testing.T) {
	s := bigStore(1)
	parts := batchChunks(s, 8)
	if len(parts) != 1 || parts[0] != [2]uint32{0, 1} {
		t.Errorf("single-row scan parts = %v", parts)
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
		next := uint32(0)
		for _, p := range batchChunks(s, workers) {
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
