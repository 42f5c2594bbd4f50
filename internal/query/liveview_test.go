package query

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"crowdscope/internal/model"
	"crowdscope/internal/store"
	"crowdscope/internal/wal"
)

// TestLiveViewTrustPredicateOnOpenTail is the regression for the live
// view's tail zone map never folding trust: with an open tail whose trust
// range differs from the sealed rows', a trust predicate was pruned or
// covered against a zero-valued [TrustMin, TrustMax] and returned the
// wrong count. Every bound that straddles the tail must match a naive
// column scan, on every refresh of the incrementally folded tail.
func TestLiveViewTrustPredicateOnOpenTail(t *testing.T) {
	ls, err := store.OpenLive(t.TempDir(), store.LiveConfig{SealRows: 8, CheckpointRows: -1, Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()

	batch := func(id uint32, trusts ...float32) []model.Instance {
		rows := make([]model.Instance, len(trusts))
		for i, tr := range trusts {
			start := int64(1_400_000_000) + int64(id)*3600 + int64(i)*60
			rows[i] = model.Instance{Batch: id, TaskType: id % 3, Item: uint32(i), Worker: uint32(i % 4),
				Start: start, End: start + 30, Trust: tr, Answer: uint32(i)}
		}
		return rows
	}
	// Sealed rows sit in [0.10, 0.30]; the open tail grows through
	// [0.60, 0.95] in two appends, so the tail zone is folded twice.
	appends := [][]model.Instance{
		batch(0, 0.10, 0.15, 0.20, 0.25, 0.30, 0.12, 0.18, 0.22),
		batch(1, 0.60, 0.70, 0.80), // begins a new batch past SealRows: seals batch 0
		batch(2, 0.90, 0.95, 0.65),
	}
	for i, rows := range appends {
		if err := ls.Append(rows); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			continue
		}
		view := ls.View()
		if ls.SealedSegments() != 1 || len(view.Segments()) != 2 {
			t.Fatalf("want one sealed segment plus an open tail, got %d sealed, %d in view", ls.SealedSegments(), len(view.Segments()))
		}
		for _, bound := range []float64{0.05, 0.2, 0.5, 0.6, 0.75, 0.9, 0.95, 0.99} {
			for _, op := range []string{">=", "<="} {
				text := fmt.Sprintf("where trust %s %g", op, bound)
				q, err := ParseQuery(text)
				if err != nil {
					t.Fatal(err)
				}
				res, err := Run(view, q)
				if err != nil {
					t.Fatalf("%s: %v", text, err)
				}
				var want int64
				for _, tr := range view.Trusts() {
					if (op == ">=" && float64(tr) >= bound) || (op == "<=" && float64(tr) <= bound) {
						want++
					}
				}
				if res.Stats.RowsMatched != want {
					t.Errorf("after append %d: %q matched %d rows, naive scan %d", i, text, res.Stats.RowsMatched, want)
				}
			}
		}
	}
}

// TestCachedExplainRechecksJoinCoverage is the regression for cached
// EXPLAIN skipping the join coverage check: live views share one plan-cache
// generation while their open tail grows, so a plan cached when the side
// tables covered every worker must be refused — by EXPLAIN exactly as by a
// run — once the tail holds a worker ID the tables do not cover.
func TestCachedExplainRechecksJoinCoverage(t *testing.T) {
	ls, err := store.OpenLive(t.TempDir(), store.LiveConfig{SealRows: 1000, CheckpointRows: -1, Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()

	const covered = 4 // the side tables cover workers < covered
	batch := func(id uint32, workers ...uint32) []model.Instance {
		rows := make([]model.Instance, len(workers))
		for i, w := range workers {
			start := int64(1_400_000_000) + int64(id)*3600 + int64(i)*60
			rows[i] = model.Instance{Batch: id, Item: uint32(i), Worker: w, Start: start, End: start + 30, Trust: 0.5}
		}
		return rows
	}
	tabs := randTables(rand.New(rand.NewSource(5)), covered, 8)
	q := Query{GroupBys: []GroupBy{GroupWorkerClass}, Tables: tabs}
	pn := NewPlanner(8)

	if err := ls.Append(batch(0, 0, 1, 2, 3, 1, 2)); err != nil {
		t.Fatal(err)
	}
	v1 := ls.View()
	if _, err := Exec(context.Background(), Source{Store: v1}, q, Options{Planner: pn}); err != nil {
		t.Fatalf("covered run: %v", err)
	}
	if !explain(t, pn, v1, q) {
		t.Fatal("plan was not cached by the covered run")
	}

	if err := ls.Append(batch(1, 2, covered+5)); err != nil {
		t.Fatal(err)
	}
	v2 := ls.View()
	if v2.Generation() != v1.Generation() {
		t.Fatal("tail growth changed the view generation; the test needs a cache hit")
	}
	_, runErr := Exec(context.Background(), Source{Store: v2}, q, Options{Planner: pn})
	if runErr == nil {
		t.Fatal("cached run accepted a worker ID outside the side tables")
	}
	pl, err := pn.Explain(v2, q)
	if err == nil {
		t.Fatalf("cached EXPLAIN skipped the coverage check (Cached=%v); the run fails with: %v", pl.Cached, runErr)
	}
	if err.Error() != runErr.Error() {
		t.Fatalf("cached EXPLAIN error %q, cached run error %q", err, runErr)
	}
}

// TestCachedExplainDescribesScannedView is the regression for a cached
// plan's EXPLAIN describing the store it was first planned on: a live
// view's open tail grows under one generation, so the second run below is
// a cache hit on a view whose tail has moved into the window. Every run's
// plan must tally the bind that run made and count the view's rows.
func TestCachedExplainDescribesScannedView(t *testing.T) {
	ls, err := store.OpenLive(t.TempDir(), store.LiveConfig{SealRows: 8, CheckpointRows: -1, Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()
	const t0 = int64(1_400_000_000)
	rows := func(batch uint32, start int64, n int) []model.Instance {
		out := make([]model.Instance, n)
		for i := range out {
			s := start + int64(i)*10
			out[i] = model.Instance{Batch: batch, Worker: uint32(i), Start: s, End: s + 5, Trust: 0.5}
		}
		return out
	}
	q, err := ParseQuery(fmt.Sprintf("where start in [%d, %d]", t0, t0+1000))
	if err != nil {
		t.Fatal(err)
	}
	pn := NewPlanner(8)
	for i, add := range [][]model.Instance{
		append(rows(0, t0, 8), rows(1, t0+1_000_000, 2)...), // seals batch 0 once batch 1 opens a tail far later
		rows(1, t0+100, 2), // the tail grows into the window, keeping the generation
	} {
		for _, r := range add {
			if err := ls.Append([]model.Instance{r}); err != nil {
				t.Fatal(err)
			}
		}
		view := ls.View()
		res, err := Exec(context.Background(), Source{Store: view}, q, Options{Planner: pn, Explain: true})
		if err != nil {
			t.Fatal(err)
		}
		pl, st := res.Plan, res.Stats
		if pl.Cached != (i > 0) {
			t.Fatalf("run %d: Cached = %v", i, pl.Cached)
		}
		if pl.Rows != view.Len() || pl.Seg.Segments+pl.Seg.Pruned != st.Segments || pl.Seg.Pruned != st.SegmentsPruned ||
			pl.Gran.Granules+pl.Gran.Pruned != st.Granules || pl.Gran.Pruned != st.GranulesPruned {
			t.Fatalf("run %d: plan of %d rows, segments %+v, granules %+v; the scan of %d rows: %+v",
				i, pl.Rows, pl.Seg, pl.Gran, view.Len(), st)
		}
		if want := 1 - i; st.Segments != 2 || st.SegmentsPruned != want {
			t.Fatalf("run %d: %d of %d segments pruned, want %d of 2", i, st.SegmentsPruned, st.Segments, want)
		}
	}
}
