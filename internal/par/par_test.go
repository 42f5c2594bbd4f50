package par

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestEachShardCoversRange(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, 2, 3, 7, 100} {
		n := 53
		hit := make([]int32, n)
		EachShard(n, workers, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hit[i], 1)
			}
		})
		for i, h := range hit {
			if h != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, h)
			}
		}
	}
}

func TestEachShardEmpty(t *testing.T) {
	called := false
	EachShard(0, 4, func(lo, hi int) { called = true })
	if called {
		t.Error("fn called for n=0")
	}
}

func TestEachShardErrCoversRange(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 5, 64} {
		n := 31
		hit := make([]int32, n)
		err := EachShardCtx(context.Background(), n, workers, func(_ context.Context, lo, hi int) error {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hit[i], 1)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, h := range hit {
			if h != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, h)
			}
		}
	}
}

// TestEachShardErrFirstError: the lowest-indexed shard's error wins for
// every worker count, so callers see a deterministic failure.
func TestEachShardErrFirstError(t *testing.T) {
	errLow := errors.New("low")
	errHigh := errors.New("high")
	for _, workers := range []int{1, 2, 4, 16} {
		err := EachShardCtx(context.Background(), 16, workers, func(_ context.Context, lo, hi int) error {
			if lo == 0 {
				return errLow
			}
			if hi == 16 {
				return errHigh
			}
			return nil
		})
		if !errors.Is(err, errLow) {
			t.Fatalf("workers=%d: got %v, want %v", workers, err, errLow)
		}
	}
}

func TestEachShardErrNil(t *testing.T) {
	if err := EachShardCtx(context.Background(), 0, 4, func(_ context.Context, lo, hi int) error { return errors.New("boom") }); err != nil {
		t.Errorf("n=0 should not run fn: %v", err)
	}
}

// TestEachShardErrEarlyExit: one shard fails, the sibling shards observe
// the cancellation through their context, and the failing shard's error
// — not the siblings' ctx errors — is what comes back.
func TestEachShardErrEarlyExit(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{2, 4, 8} {
		var sawCancel atomic.Int32
		err := EachShardCtx(context.Background(), workers, workers, func(ctx context.Context, lo, hi int) error {
			if lo == 0 {
				return boom
			}
			select {
			case <-ctx.Done():
				sawCancel.Add(1)
				return ctx.Err()
			case <-time.After(5 * time.Second):
				return errors.New("shard never saw cancellation")
			}
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: got %v, want boom to win over sibling cancellations", workers, err)
		}
		if got := int(sawCancel.Load()); got != workers-1 {
			t.Fatalf("workers=%d: %d siblings observed cancellation, want %d", workers, got, workers-1)
		}
	}
}

// TestEachShardErrFirstErrorWinsOverCancel: a shard that returns a real
// error after a lower-indexed shard merely reported the cancellation
// still wins — cancellation errors can never mask the cause.
func TestEachShardErrFirstErrorWinsOverCancel(t *testing.T) {
	boom := errors.New("boom")
	err := EachShardCtx(context.Background(), 4, 4, func(ctx context.Context, lo, hi int) error {
		if lo == 3 {
			return boom
		}
		<-ctx.Done()
		return ctx.Err()
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want boom", err)
	}
}

// TestEachShardCtxParentCancel: a cancelled parent context stops the
// fan-out and surfaces as the parent's error; a pre-cancelled parent
// never runs a shard.
func TestEachShardCtxParentCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, 4)
	go func() {
		<-started
		cancel()
	}()
	err := EachShardCtx(ctx, 4, 4, func(ctx context.Context, lo, hi int) error {
		select {
		case started <- struct{}{}:
		default:
		}
		<-ctx.Done()
		return ctx.Err()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}

	pre, precancel := context.WithCancel(context.Background())
	precancel()
	ran := false
	if err := EachShardCtx(pre, 4, 4, func(context.Context, int, int) error { ran = true; return nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled parent: got %v", err)
	}
	if ran {
		t.Fatal("pre-cancelled parent still ran a shard")
	}
}

// TestEachShardErrNoGoroutineLeak: after many early-exit fan-outs the
// goroutine count settles back to the baseline — every shard goroutine
// is joined before EachShardCtx returns.
func TestEachShardErrNoGoroutineLeak(t *testing.T) {
	baseline := runtime.NumGoroutine()
	boom := errors.New("boom")
	for i := 0; i < 50; i++ {
		_ = EachShardCtx(context.Background(), 8, 8, func(ctx context.Context, lo, hi int) error {
			if lo == 0 {
				return boom
			}
			<-ctx.Done()
			return ctx.Err()
		})
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", baseline, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}
