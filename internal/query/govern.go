package query

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// This file is the resource governor: the per-query wall-clock deadline
// budget and the cooperative cancellation checks the scan performs
// between fixed 64Ki-row chunks.
// Governance never changes what a query computes — a governed run either
// returns the exact ungoverned result or an error; there is no partial
// result path — so the §7 merge determinism contract is untouched.

// Limits bounds one query's resource consumption. The zero value imposes
// no limit. Limits are execution policy, not query semantics: they are
// deliberately excluded from Query.Text(), so the plan cache shares plans
// across callers with different budgets.
type Limits struct {
	// Timeout bounds wall-clock execution from the moment the scan
	// starts; zero or negative means none. It composes with any deadline
	// already on the caller's context; whichever fires first wins.
	Timeout time.Duration
}

// ErrBudgetExceeded is the sentinel every budget violation matches with
// errors.Is.
var ErrBudgetExceeded = errors.New("query budget exceeded")

// BudgetDeadline names the deadline budget in BudgetError.Resource.
const BudgetDeadline = "deadline"

// BudgetError reports which budget a query ran out of and how far the
// scan had progressed. It unwraps to ErrBudgetExceeded.
type BudgetError struct {
	// Resource is BudgetDeadline.
	Resource string
	// Limit is the configured bound: nanoseconds for the deadline.
	Limit int64
	// RowsScanned counts rows admitted to the scan before the budget
	// fired. Under parallel execution it is a best-effort snapshot —
	// sibling workers may still be admitting chunks as it is read.
	RowsScanned int64
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("query budget exceeded: deadline %v elapsed after %d rows scanned",
		time.Duration(e.Limit), e.RowsScanned)
}

// Unwrap makes errors.Is(err, ErrBudgetExceeded) match every budget
// violation.
func (e *BudgetError) Unwrap() error { return ErrBudgetExceeded }

// errDeadlineBudget is the context cause the governor attaches to its own
// timeout, so interruption() can tell "this query's budget fired" apart
// from a deadline inherited from the caller's context.
var errDeadlineBudget = errors.New("query deadline budget")

// IsInterrupt reports whether err is an execution interruption — a budget
// violation or a context cancellation/deadline — as opposed to a data or
// validation error. Degraded dataset mode must never "skip" these: a
// cancelled shard is not a damaged shard.
func IsInterrupt(err error) bool {
	return errors.Is(err, ErrBudgetExceeded) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded)
}

// governor carries one query's enforcement state through the scan. It is
// shared by every worker goroutine (and, for dataset runs, every shard):
// the admitted-row count is global to the query, not per worker.
type governor struct {
	ctx     context.Context
	rows    atomic.Int64
	timeout time.Duration
}

// newGovernor binds a context and limits into a governor. The returned
// stop func releases the deadline timer and must be called when the run
// finishes (it is a no-op cancel when no timeout was set).
func newGovernor(ctx context.Context, lim Limits) (*governor, context.CancelFunc) {
	g := &governor{timeout: lim.Timeout}
	stop := context.CancelFunc(func() {})
	if lim.Timeout > 0 {
		ctx, stop = context.WithTimeoutCause(ctx, lim.Timeout, errDeadlineBudget)
	}
	g.ctx = ctx
	return g, stop
}

// admit is the cooperative cancellation point, called between chunks with
// the chunk's row count: it observes cancellation and the deadline via
// ctx, then counts the rows for BudgetError.RowsScanned. ctx is the
// shard's inner context (cancelled when any sibling fails), not g.ctx.
func (g *governor) admit(ctx context.Context, n int64) error {
	if ctx.Err() != nil {
		return g.interruption(ctx)
	}
	d := testScanDelay.Load()
	if d > 0 {
		if err := g.sleep(ctx, time.Duration(d)); err != nil {
			return err
		}
	}
	g.rows.Add(n)
	if d > 0 {
		testAdmitted.Add(1)
	}
	return nil
}

// interruption translates a fired context into the caller-facing error:
// the governor's own deadline becomes a typed BudgetError; anything else
// (caller cancellation, an inherited deadline) propagates as the context
// error so callers can errors.Is against context.Canceled.
func (g *governor) interruption(ctx context.Context) error {
	err := ctx.Err()
	if errors.Is(err, context.DeadlineExceeded) && context.Cause(ctx) == errDeadlineBudget {
		return &BudgetError{Resource: BudgetDeadline, Limit: int64(g.timeout), RowsScanned: g.rows.Load()}
	}
	return err
}

// translate re-types a raw context error that bypassed admit — the shard
// fan-out's fast-fail entry check and its all-cancellations fallback both
// return ctx.Err() directly — so a fired budget deadline is consistently
// a *BudgetError no matter which path surfaced it. Non-context errors
// (budget violations, data errors) pass through untouched, as does a
// cancellation observed while the governor's own context is still live.
func (g *governor) translate(err error) error {
	if err == nil {
		return nil
	}
	if (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) && g.ctx.Err() != nil {
		return g.interruption(g.ctx)
	}
	return err
}

// sleep waits d or until ctx fires, whichever comes first.
func (g *governor) sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return g.interruption(ctx)
	case <-t.C:
		return nil
	}
}

// testScanDelay is the test hook slowing every chunk admission, in
// nanoseconds, and testAdmitted counts the chunks admitted under it. They
// exist so robustness tests can make scans take long enough to race
// timeouts and cancellation deterministically, and then assert on what the
// governor let through rather than on the wall clock.
var testScanDelay, testAdmitted atomic.Int64

// SetScanDelayForTest makes every governed chunk admission sleep d before
// scanning (0 restores full speed). It returns the count of chunks
// admitted to a scan since the call. Test hook only: a query's apparent
// cost becomes proportional to its unpruned chunk count, so zone-pruned
// queries stay fast while full scans become reliably slow, and with d far
// above a query's deadline budget no chunk is ever admitted.
func SetScanDelayForTest(d time.Duration) (admitted func() int64) {
	testScanDelay.Store(int64(d))
	testAdmitted.Store(0)
	return testAdmitted.Load
}
