package query

import (
	"context"
	"errors"
	"sync/atomic"
	"time"
)

// This file is the scan's cooperative cancellation point: the check of
// the caller's context between fixed 64Ki-row chunks. A wall-clock budget
// is a deadline on that context. Cancellation never changes what a query
// computes — a run either returns the exact result or an error; there is
// no partial result path — so the §7 merge determinism contract is
// untouched.

// IsInterrupt reports whether err is an execution interruption — a
// context cancellation or deadline — as opposed to a data or validation
// error. Degraded dataset mode must never "skip" these: a cancelled shard
// is not a damaged shard.
func IsInterrupt(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// admitChunk runs before every chunk of the scan: it fails with ctx.Err()
// once ctx is done. ctx is the fan-out's inner context, cancelled too when
// any sibling fails.
func admitChunk(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	d := testScanDelay.Load()
	if d == 0 {
		return nil
	}
	t := time.NewTimer(time.Duration(d))
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		testAdmitted.Add(1)
		return nil
	}
}

// testScanDelay is the test hook slowing every chunk admission, in
// nanoseconds, and testAdmitted counts the chunks admitted under it. They
// exist so robustness tests can make scans take long enough to race
// timeouts and cancellation deterministically, and then assert on what the
// scan let through rather than on the wall clock.
var testScanDelay, testAdmitted atomic.Int64

// SetScanDelayForTest makes every chunk admission wait d, or until the
// query's context is done, before scanning (0 restores full speed). It
// returns the count of chunks admitted to a scan since the call. Test
// hook only: a query's apparent cost becomes proportional to its unpruned
// chunk count, so zone-pruned queries stay fast while full scans become
// reliably slow, and with d far above a query's deadline no chunk is ever
// admitted.
func SetScanDelayForTest(d time.Duration) (admitted func() int64) {
	testScanDelay.Store(int64(d))
	testAdmitted.Store(0)
	return testAdmitted.Load
}
