package query

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"
)

// TestRunContextMatchesRun: a governed run with generous budgets returns
// the bit-identical result of the ungoverned run, for every worker
// count — governance adds cancellation points, never a result path.
func TestRunContextMatchesRun(t *testing.T) {
	st := testStore(t)
	q := Query{Where: []Predicate{TrustRange(0.1, 0.9)}, GroupBys: []GroupBy{GroupWeek}, Value: ValueDuration, P50: true}
	want := mustRun(t, st, q)
	for _, workers := range []int{1, 2, 3, 8} {
		gq := q
		gq.Workers = workers
		gq.Limits = Limits{Timeout: time.Minute}
		got, err := Exec(context.Background(), Source{Store: st}, gq, Options{})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got.Groups, want.Groups) {
			t.Fatalf("workers=%d: governed groups differ from ungoverned", workers)
		}
	}
}

func TestRunContextPreCancelled(t *testing.T) {
	st := testStore(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Exec(ctx, Source{Store: st}, Query{}, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestDeadlineBudget: a deadline budget far below one chunk's delay
// fires before any chunk is admitted, as a typed deadline BudgetError —
// however slowly the host runs the scan.
func TestDeadlineBudget(t *testing.T) {
	st := testStore(t)
	defer SetScanDelayForTest(0)
	admitted := SetScanDelayForTest(time.Hour)
	q := Query{Workers: 1, Limits: Limits{Timeout: 30 * time.Millisecond}}
	_, err := Exec(context.Background(), Source{Store: st}, q, Options{})
	var be *BudgetError
	if !errors.As(err, &be) || be.Resource != BudgetDeadline {
		t.Fatalf("got %v, want deadline budget error", err)
	}
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("deadline error does not match ErrBudgetExceeded: %v", err)
	}
	if n := admitted(); n != 0 || be.RowsScanned != 0 {
		t.Fatalf("%d chunks (%d rows) admitted past the deadline, want none", n, be.RowsScanned)
	}

	// Under a budget it can meet, every chunk is admitted and counted.
	admitted = SetScanDelayForTest(time.Millisecond)
	q.Limits.Timeout = time.Hour
	if _, err := Exec(context.Background(), Source{Store: st}, q, Options{}); err != nil {
		t.Fatal(err)
	}
	if n := admitted(); n != 4 {
		t.Fatalf("%d chunks admitted, want all 4", n)
	}
}

// TestCancelMidScan: cancelling the caller's context mid-scan surfaces
// as context.Canceled — never as a budget error, and never a result.
func TestCancelMidScan(t *testing.T) {
	st := testStore(t)
	defer SetScanDelayForTest(0)
	SetScanDelayForTest(10 * time.Millisecond)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(15 * time.Millisecond)
		cancel()
	}()
	_, err := Exec(ctx, Source{Store: st}, Query{Workers: 1}, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestInheritedDeadlineIsNotBudgetError: a deadline already on the
// caller's context propagates as context.DeadlineExceeded, not as this
// query's budget violation.
func TestInheritedDeadlineIsNotBudgetError(t *testing.T) {
	st := testStore(t)
	defer SetScanDelayForTest(0)
	SetScanDelayForTest(20 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
	defer cancel()
	_, err := Exec(ctx, Source{Store: st}, Query{Workers: 1}, Options{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
	if errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("inherited deadline misreported as budget: %v", err)
	}
}

// TestLimitsExcludedFromText: budgets are execution policy; two queries
// differing only in Limits share a canonical text (and so a cached plan).
func TestLimitsExcludedFromText(t *testing.T) {
	a := Query{Where: []Predicate{Eq(ColWorker, 7)}}
	b := a
	b.Limits = Limits{Timeout: time.Second}
	if a.Text() != b.Text() {
		t.Fatalf("Limits leaked into Text(): %q vs %q", a.Text(), b.Text())
	}
}
