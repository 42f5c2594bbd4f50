// Package par holds the shared goroutine fan-out harness of the parallel
// generation and analysis phases.
package par

import (
	"context"
	"errors"
	"runtime"
	"sync"
)

// EachShard splits [0, n) into at most `workers` contiguous ranges and
// runs fn over each on its own goroutine; workers <= 0 means GOMAXPROCS,
// 1 runs inline. Shards must write disjoint slots, which keeps callers
// deterministic for every worker count.
func EachShard(n, workers int, fn func(lo, hi int)) {
	// Cannot fail: the background context never fires and the body
	// returns nil.
	_ = EachShardCtx(context.Background(), n, workers, func(_ context.Context, lo, hi int) error {
		fn(lo, hi)
		return nil
	})
}

// EachShardCtx is the cancellable shard fan-out. Each shard body receives
// a context that is cancelled as soon as any shard returns an error or
// the parent ctx is done; long-running bodies should check it between
// units of work and return ctx.Err() when it fires. Every started shard
// is always waited for — the function never returns while a shard
// goroutine is still running, so there are no leaks and no writes after
// return.
//
// The returned error is deterministic under the error model callers rely
// on: among shards that failed with a real error (anything that is not
// context.Canceled/DeadlineExceeded), the lowest-indexed one wins, so a
// sibling that merely observed the cancellation fan-out can never mask
// the error that caused it. When every failure is a cancellation — the
// parent ctx fired — the parent's ctx.Err() is returned. A parent ctx
// that is already done fails fast without running any shard.
func EachShardCtx(ctx context.Context, n, workers int, fn func(ctx context.Context, lo, hi int) error) error {
	if n == 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		return fn(ctx, 0, n)
	}
	inner, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*n/workers, (w+1)*n/workers
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			if err := fn(inner, lo, hi); err != nil {
				errs[w] = err
				cancel() // remaining shards observe the failure
			}
		}(w, lo, hi)
	}
	wg.Wait()
	var cancelErr error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			if cancelErr == nil {
				cancelErr = err
			}
			continue
		}
		return err
	}
	if cancelErr != nil {
		// Every failure was a cancellation: report the parent's error when
		// it fired (the cause), else the first observed cancellation.
		if err := ctx.Err(); err != nil {
			return err
		}
		return cancelErr
	}
	return nil
}
