package store

import (
	"runtime"
	"sync"
)

// ParallelScan splits the row range into contiguous chunks, runs fn over
// each on its own goroutine, and returns the per-chunk results in chunk
// order. Analyses over the 27M-row full-scale log (weekly rollups,
// per-worker sums) are embarrassingly parallel over rows; this is the
// harness for them.
//
// Chunk boundaries are snapped to segment boundaries when one lies near
// the even split point, so scans over an assembled store tend to stay
// within the memory a single generation shard wrote.
//
// fn receives the [lo, hi) row range of its chunk and must not mutate the
// store.
func ParallelScan[T any](s *Store, workers int, fn func(lo, hi int) T) []T {
	n := s.Len()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		if n == 0 {
			return nil
		}
		return []T{fn(0, n)}
	}
	bounds := s.chunkBounds(workers)
	out := make([]T, len(bounds)-1)
	var wg sync.WaitGroup
	for i := 0; i+1 < len(bounds); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = fn(bounds[i], bounds[i+1])
		}(i)
	}
	wg.Wait()
	return out
}

// chunkBounds returns ascending row boundaries 0 = b0 < b1 < ... = Len()
// defining at most `workers` contiguous chunks. Callers guarantee
// workers >= 2 and Len() > 0. Even split points move to a nearby segment
// boundary when the detour costs less than a quarter chunk of imbalance.
func (s *Store) chunkBounds(workers int) []int {
	n := s.Len()
	chunk := (n + workers - 1) / workers
	bounds := make([]int, 1, workers+1)
	for w := 1; w < workers; w++ {
		b := w * n / workers
		if sb, ok := s.nearestSegmentBoundary(b, chunk/4); ok {
			b = sb
		}
		if b > bounds[len(bounds)-1] && b < n {
			bounds = append(bounds, b)
		}
	}
	return append(bounds, n)
}

// nearestSegmentBoundary returns the segment row boundary closest to
// target when it lies within tol rows, excluding the trivial 0 boundary.
func (s *Store) nearestSegmentBoundary(target, tol int) (int, bool) {
	if len(s.segs) < 2 || tol <= 0 {
		return 0, false
	}
	lo, hi := 0, len(s.segs)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.segs[mid].RowLo < target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	best, found := 0, false
	for _, i := range []int{lo - 1, lo} {
		if i <= 0 || i >= len(s.segs) {
			continue
		}
		b := s.segs[i].RowLo
		if d := b - target; d >= -tol && d <= tol {
			if !found || abs(b-target) < abs(best-target) {
				best, found = b, true
			}
		}
	}
	return best, found
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// ParallelScanBatches splits the batch-ID space into contiguous chunks of
// roughly equal row mass, runs fn over each on its own goroutine, and
// returns per-chunk results in chunk order. Per-batch computations
// (metrics, rollups) parallelize over batches rather than rows so one
// batch never straddles two goroutines. Chunk boundaries are snapped to
// segment batch intervals when one is close.
//
// fn receives the [batchLo, batchHi) batch-ID range of its chunk and must
// not mutate the store.
func ParallelScanBatches[T any](s *Store, workers int, fn func(batchLo, batchHi uint32) T) []T {
	nb := s.NumBatches()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > nb {
		workers = nb
	}
	if workers <= 1 {
		if nb == 0 {
			return nil
		}
		return []T{fn(0, uint32(nb))}
	}
	// Cumulative row mass per batch prefix steers boundaries toward equal
	// work per chunk; batches are heavily skewed in size.
	cum := make([]int, nb+1)
	for b := 0; b < nb; b++ {
		lo, hi := s.BatchRange(uint32(b))
		cum[b+1] = cum[b] + (hi - lo)
	}
	total := cum[nb]
	bounds := make([]uint32, 1, workers+1)
	for w := 1; w < workers; w++ {
		targetRows := w * total / workers
		// First batch whose prefix mass reaches the target.
		lo, hi := 0, nb
		for lo < hi {
			mid := (lo + hi) / 2
			if cum[mid] < targetRows {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		b := uint32(lo)
		if sb, ok := s.nearestSegmentBatchBoundary(b, uint32(nb/(4*workers)+1)); ok {
			b = sb
		}
		if b > bounds[len(bounds)-1] && int(b) < nb {
			bounds = append(bounds, b)
		}
	}
	bounds = append(bounds, uint32(nb))
	out := make([]T, len(bounds)-1)
	var wg sync.WaitGroup
	for i := 0; i+1 < len(bounds); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = fn(bounds[i], bounds[i+1])
		}(i)
	}
	wg.Wait()
	return out
}

// nearestSegmentBatchBoundary mirrors nearestSegmentBoundary in batch-ID
// space.
func (s *Store) nearestSegmentBatchBoundary(target, tol uint32) (uint32, bool) {
	if len(s.segs) < 2 {
		return 0, false
	}
	best, found := uint32(0), false
	for _, si := range s.segs[1:] {
		b := si.BatchLo
		var d uint32
		if b > target {
			d = b - target
		} else {
			d = target - b
		}
		if d <= tol {
			if !found || d < absU32(best, target) {
				best, found = b, true
			}
		}
	}
	return best, found
}

func absU32(a, b uint32) uint32 {
	if a > b {
		return a - b
	}
	return b - a
}
