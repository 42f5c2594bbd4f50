package store

import (
	"runtime"
	"sort"

	"crowdscope/internal/par"
)

// ParallelScanBatches splits the batch-ID space into contiguous chunks of
// roughly equal row mass, runs fn over each on its own goroutine, and
// returns per-chunk results in chunk order. Per-batch computations
// (metrics, rollups) parallelize over batches rather than rows so one
// batch never straddles two goroutines.
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
		b := uint32(sort.Search(nb, func(b int) bool { return cum[b] >= targetRows }))
		if b > bounds[len(bounds)-1] && int(b) < nb {
			bounds = append(bounds, b)
		}
	}
	bounds = append(bounds, uint32(nb))
	out := make([]T, len(bounds)-1)
	par.EachShard(len(out), len(out), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = fn(bounds[i], bounds[i+1])
		}
	})
	return out
}
