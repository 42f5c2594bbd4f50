package query

import (
	"bytes"
	"context"
	"errors"
	"io"
	"reflect"
	"testing"
	"time"

	"crowdscope/internal/store"
)

// TestRunContextMatchesRun: a run under a generous deadline returns the
// bit-identical result of the run without one, for every worker count —
// cancellation adds checkpoints, never a result path.
func TestRunContextMatchesRun(t *testing.T) {
	st := testStore(t)
	q := Query{Where: []Predicate{TrustRange(0.1, 0.9)}, GroupBys: []GroupBy{GroupWeek}, Value: ValueDuration, P50: true}
	want := mustRun(t, st, q)
	for _, workers := range []int{1, 2, 3, 8} {
		gq := q
		gq.Workers = workers
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		got, err := Exec(ctx, Source{Store: st}, gq, Options{})
		cancel()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got.Groups, want.Groups) {
			t.Fatalf("workers=%d: groups under a deadline differ from the run without one", workers)
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

// TestDeadlineBudget: a context deadline far below one chunk's delay
// fires before any chunk is admitted, as context.DeadlineExceeded —
// however slowly the host runs the scan.
func TestDeadlineBudget(t *testing.T) {
	st := testStore(t)
	defer SetScanDelayForTest(0)
	admitted := SetScanDelayForTest(time.Hour)
	q := Query{Workers: 1}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := Exec(ctx, Source{Store: st}, q, Options{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
	if n := admitted(); n != 0 {
		t.Fatalf("%d chunks admitted past the deadline, want none", n)
	}

	// Under a deadline it can meet, every chunk is admitted.
	admitted = SetScanDelayForTest(time.Millisecond)
	ctx, cancel = context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	if _, err := Exec(ctx, Source{Store: st}, q, Options{}); err != nil {
		t.Fatal(err)
	}
	if n := admitted(); n != 4 {
		t.Fatalf("%d chunks admitted, want all 4", n)
	}
}

// TestCancelMidScan: cancelling the caller's context mid-scan surfaces
// as context.Canceled, never a result.
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

// TestDeadlineWhileOpeningShards: a deadline that fires while a dataset's
// shards are opening fails the query, under SkipFailedShards too — an
// interrupted shard is not a damaged one, so none is skipped.
func TestDeadlineWhileOpeningShards(t *testing.T) {
	man, files := shardFiles(t, 3)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	// The first shard's open outlasts the deadline; the check before the
	// next shard sees it fired.
	open := func(name string) (io.ReaderAt, int64, error) {
		if name == man.Shards[0].Name {
			<-ctx.Done()
		}
		data := files[name]
		return bytes.NewReader(data), int64(len(data)), nil
	}
	d, err := store.OpenDataset(man, open)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Exec(ctx, Source{Dataset: d}, Query{Workers: 1}, Options{SkipFailedShards: true})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
	if res != nil {
		t.Fatalf("interrupted dataset query returned a result (%d shards skipped)", res.Stats.ShardsSkipped)
	}
}
