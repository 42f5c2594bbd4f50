// Benchmarks regenerating every table and figure of the paper, one bench
// per artifact, plus the ablation benches DESIGN.md calls out. All benches
// share one generated dataset and analysis (deterministic, built once), so
// per-iteration cost is the experiment itself.
//
// Run with: go test -bench=. -benchmem
package crowdscope_test

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"crowdscope/internal/cluster"
	"crowdscope/internal/core"
	"crowdscope/internal/corr"
	"crowdscope/internal/experiments"
	"crowdscope/internal/metrics"
	"crowdscope/internal/model"
	"crowdscope/internal/query"
	"crowdscope/internal/store"
	"crowdscope/internal/synth"
	"crowdscope/internal/wal"
)

var (
	benchOnce sync.Once
	benchDS   *synth.Dataset
	benchA    *core.Analysis
	benchCtx  *experiments.Context
)

func setup(b *testing.B) *experiments.Context {
	b.Helper()
	benchOnce.Do(func() {
		benchDS = synth.Generate(synth.Config{Seed: 1701, Scale: 0.01})
		benchA = core.New(benchDS, core.DefaultOptions())
		benchCtx = experiments.NewContext(benchA)
		benchCtx.Workers() // warm the memoized worker table
	})
	return benchCtx
}

func benchExperiment(b *testing.B, id string) {
	ctx := setup(b)
	e, ok := experiments.Lookup(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := e.Run(ctx)
		if out == nil || out.Text == "" {
			b.Fatal("empty outcome")
		}
	}
}

// One benchmark per paper artifact.

func BenchmarkFig1SampledTasks(b *testing.B)          { benchExperiment(b, "fig1") }
func BenchmarkFig2aArrivalsVsPickup(b *testing.B)     { benchExperiment(b, "fig2a") }
func BenchmarkFig2bArrivalOverlay(b *testing.B)       { benchExperiment(b, "fig2b") }
func BenchmarkFig3DayOfWeek(b *testing.B)             { benchExperiment(b, "fig3") }
func BenchmarkFig4WorkerAvailability(b *testing.B)    { benchExperiment(b, "fig4") }
func BenchmarkFig5aArrivalsVsPickup(b *testing.B)     { benchExperiment(b, "fig5a") }
func BenchmarkFig5bEngagementSplit(b *testing.B)      { benchExperiment(b, "fig5b") }
func BenchmarkFig6ClusterSizes(b *testing.B)          { benchExperiment(b, "fig6") }
func BenchmarkFig7TasksPerCluster(b *testing.B)       { benchExperiment(b, "fig7") }
func BenchmarkFig8HeavyHitters(b *testing.B)          { benchExperiment(b, "fig8") }
func BenchmarkFig9LabelDistributions(b *testing.B)    { benchExperiment(b, "fig9") }
func BenchmarkFig10Correlations(b *testing.B)         { benchExperiment(b, "fig10") }
func BenchmarkFig11Correlations(b *testing.B)         { benchExperiment(b, "fig11") }
func BenchmarkFig12SimpleVsComplex(b *testing.B)      { benchExperiment(b, "fig12") }
func BenchmarkFig13LatencyDecomposition(b *testing.B) { benchExperiment(b, "fig13") }
func BenchmarkFig14FeatureCDFs(b *testing.B)          { benchExperiment(b, "fig14") }
func BenchmarkFig25DrillDown(b *testing.B)            { benchExperiment(b, "fig25") }
func BenchmarkFig26Sources(b *testing.B)              { benchExperiment(b, "fig26") }
func BenchmarkFig27SourceQuality(b *testing.B)        { benchExperiment(b, "fig27") }
func BenchmarkFig28Geography(b *testing.B)            { benchExperiment(b, "fig28") }
func BenchmarkFig29Workload(b *testing.B)             { benchExperiment(b, "fig29") }
func BenchmarkFig30Lifetimes(b *testing.B)            { benchExperiment(b, "fig30") }
func BenchmarkTable1Disagreement(b *testing.B)        { benchExperiment(b, "tab1") }
func BenchmarkTable2TaskTime(b *testing.B)            { benchExperiment(b, "tab2") }
func BenchmarkTable3PickupTime(b *testing.B)          { benchExperiment(b, "tab3") }
func BenchmarkTable4Sources(b *testing.B)             { benchExperiment(b, "tab4") }
func BenchmarkSec49Prediction(b *testing.B)           { benchExperiment(b, "sec49") }

// Pipeline-stage benchmarks.

// BenchmarkGenerate compares the serial reference path (Parallelism: 1)
// against the segmented parallel pipeline (Parallelism: 0 = GOMAXPROCS)
// at the default 2% scale. The two paths produce row-for-row identical
// stores (see synth's pipeline property test); only wall clock differs.
func BenchmarkGenerate(b *testing.B) {
	for _, bc := range []struct {
		name string
		par  int
	}{
		{"serial", 1},
		{"parallel", 0},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ds := synth.Generate(synth.Config{Seed: 1701, Scale: 0.02, Parallelism: bc.par})
				if ds.Store.Len() == 0 {
					b.Fatal("empty dataset")
				}
			}
		})
	}
}

func BenchmarkGenerateDataset(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ds := synth.Generate(synth.Config{Seed: uint64(i + 1), Scale: 0.002})
		if ds.Store.Len() == 0 {
			b.Fatal("empty dataset")
		}
	}
}

// BenchmarkAnalysisNew compares the serial reference analysis front end
// (Workers: 1) against the sharded parallel one (Workers: 0 = GOMAXPROCS)
// on one shared dataset. The two produce identical Analysis values (see
// core's TestAnalysisSerialParallelIdentical); only wall clock differs.
// bench-input is core.New as bench/'s repro-batch calls it — that
// workload's log and worker count — where two in three sampled pages
// repeat an earlier one: the case CI gates, since it is the page memo that
// carries it.
func BenchmarkAnalysisNew(b *testing.B) {
	small := synth.Config{Seed: 3, Scale: 0.002}
	for _, bc := range []struct {
		name     string
		cfg      synth.Config
		workers  int
		clusters int // asserted when non-zero
	}{
		{"serial", small, 1, 0},
		{"parallel", small, 0, 0},
		{"bench-input", synth.Config{Seed: 1701, Scale: 0.02, Parallelism: 16}, 2, 4024},
	} {
		b.Run(bc.name, func(b *testing.B) {
			ds := synth.Generate(bc.cfg)
			opts := core.DefaultOptions()
			opts.Workers = bc.workers
			var a *core.Analysis
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a = core.New(ds, opts)
				if n := a.Clustering.NumClusters(); n == 0 || bc.clusters != 0 && n != bc.clusters {
					b.Fatalf("%d clusters, want %d (0: any but none)", n, bc.clusters)
				}
			}
			b.ReportMetric(float64(a.DistinctPages), "distinct-pages/op")
		})
	}
}

// BenchmarkClusterBatches times the clustering front end alone (page
// render, sketching, LSH merge) over the real sampled pages.
func BenchmarkClusterBatches(b *testing.B) {
	ctx := setup(b)
	ids := ctx.A.SampledIDs[:2000]
	html := ctx.A.DS.BatchHTML
	opts := cluster.DefaultOptions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := cluster.Batches(ids, html, opts)
		if c.NumClusters() == 0 {
			b.Fatal("no clusters")
		}
	}
}

// Snapshot codec benchmarks at the default 2% scale (~0.5M rows). The
// serial/parallel variants bound the same worker knob the CLIs expose;
// output and loaded stores are identical across them.

var (
	snapOnce sync.Once
	snapDS   *synth.Dataset
	snapRaw  []byte
)

func snapSetup(b *testing.B) {
	b.Helper()
	snapOnce.Do(func() {
		snapDS = synth.Generate(synth.Config{Seed: 1701, Scale: 0.02})
		var buf bytes.Buffer
		if _, err := snapDS.Store.WriteTo(&buf); err != nil {
			panic(err)
		}
		snapRaw = buf.Bytes()
	})
}

func BenchmarkSnapshotWriteTo(b *testing.B) {
	snapSetup(b)
	for _, bc := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"parallel", 0},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(snapRaw)))
			buf := bytes.NewBuffer(make([]byte, 0, len(snapRaw)+1024))
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if _, err := snapDS.Store.WriteSnapshot(buf, store.WriteOptions{Workers: bc.workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSnapshotReadFrom(b *testing.B) {
	snapSetup(b)
	for _, bc := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"parallel", 0},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(snapRaw)))
			for i := 0; i < b.N; i++ {
				var st store.Store
				if _, err := st.ReadSnapshot(bytes.NewReader(snapRaw), store.LoadOptions{Workers: bc.workers}); err != nil {
					b.Fatal(err)
				}
				if st.Len() != snapDS.Store.Len() {
					b.Fatal("short load")
				}
			}
		})
	}
}

func BenchmarkComputeAllMetrics(b *testing.B) {
	ctx := setup(b)
	st := ctx.A.DS.Store
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		metrics.ComputeAll(st)
	}
}

// Ablation benchmarks (DESIGN.md Section 5).

// BenchmarkAblationClusterSignature compares MinHash-estimated similarity
// against exact Jaccard verification.
func BenchmarkAblationClusterSignature(b *testing.B) {
	ctx := setup(b)
	ids := ctx.A.SampledIDs[:1500]
	html := ctx.A.DS.BatchHTML
	b.Run("minhash", func(b *testing.B) {
		opts := cluster.DefaultOptions()
		for i := 0; i < b.N; i++ {
			cluster.Batches(ids, html, opts)
		}
	})
	b.Run("exact", func(b *testing.B) {
		opts := cluster.DefaultOptions()
		opts.Exact = true
		for i := 0; i < b.N; i++ {
			cluster.Batches(ids, html, opts)
		}
	})
}

// BenchmarkAblationBinning compares the paper's median split with a mean
// split on the heavy-tailed #items feature.
func BenchmarkAblationBinning(b *testing.B) {
	ctx := setup(b)
	obs := ctx.A.Observations(true)
	fv := make([]float64, len(obs))
	mv := make([]float64, len(obs))
	for i, o := range obs {
		fv[i] = o.Features[core.FeatItems]
		mv[i] = o.Metrics[core.MetricTaskTime]
	}
	b.Run("median", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			corr.Run(core.FeatItems, core.MetricTaskTime, corr.SplitAtMedian, fv, mv)
		}
	})
	b.Run("mean", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			corr.MeanSplit(core.FeatItems, core.MetricTaskTime, fv, mv)
		}
	})
}

// BenchmarkAblationDisagreementVariants compares the paper's pruned
// disagreement against the unpruned variant (Section 4.1 discusses both).
func BenchmarkAblationDisagreementVariants(b *testing.B) {
	ctx := setup(b)
	bms := ctx.A.BatchMetrics
	b.Run("pruned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			n := 0
			for _, bm := range bms {
				if bm.Valid() && !bm.Pruned() {
					n++
				}
			}
			if n == 0 {
				b.Fatal("all pruned")
			}
		}
	})
	b.Run("unpruned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			n := 0
			for _, bm := range bms {
				if bm.Valid() && bm.Pairs > 0 {
					n++
				}
			}
			if n == 0 {
				b.Fatal("none valid")
			}
		}
	})
}

// BenchmarkQuery compares the query engine's zone-map-pruned execution
// against the equivalent hand-rolled full-column scan on a 16-segment
// store at the default 2% scale.
//
// The selective workload is "one worker's rows": with the worker table in
// hand their active window is known, so the engine runs
// worker == w && start in [firstDay, lastDay+1) and zone maps skip every
// segment outside the window before a row is touched; the reference scan
// is the classic full pass over the worker column. The week-window pair
// measures pure time-range pruning. Engine results are asserted equal to
// the naive counts, and the engine runs with Workers: 1, so the speedup
// is pruning, not parallelism.
//
// The `encoded` variants run the same queries against the same store
// loaded back from its compressed snapshot with raw columns never
// materialized: the filter kernels scan the RLE/dictionary/FOR-packed
// columns directly, so the comparison isolates scan-on-encoded against
// the raw-column scan (`engine`) and the full naive pass (`scan`).
func BenchmarkQuery(b *testing.B) {
	ds := synth.Generate(synth.Config{Seed: 1701, Scale: 0.02, Parallelism: 16})
	st := ds.Store
	st.ZoneMaps() // sealed in at generation

	// The encoded twin: count-only queries on it never materialize a raw
	// column, so its scans stay on the encoded form.
	var snapBuf bytes.Buffer
	if _, err := st.WriteTo(&snapBuf); err != nil {
		b.Fatal(err)
	}
	var stEnc store.Store
	if _, err := stEnc.ReadFrom(bytes.NewReader(snapBuf.Bytes())); err != nil {
		b.Fatal(err)
	}

	// A one-day worker makes the most selective target; fall back to the
	// shortest-lived observed worker.
	var target *model.Worker
	for i := range ds.Workers {
		w := &ds.Workers[i]
		if w.FirstDay < 0 || w.LastDay < w.FirstDay {
			continue
		}
		if target == nil || w.LastDay-w.FirstDay < target.LastDay-target.FirstDay {
			target = w
		}
	}
	if target == nil {
		b.Fatal("no observed workers")
	}
	winLo, winHi := model.DayUnix(target.FirstDay), model.DayUnix(target.LastDay+1)

	naiveWorker := func() int64 {
		var n int64
		for _, w := range st.Workers() {
			if w == target.ID {
				n++
			}
		}
		return n
	}
	wantWorker := naiveWorker()
	if wantWorker == 0 {
		b.Fatalf("worker %d has no rows", target.ID)
	}
	b.Run("worker-day/engine", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := runQuery(st, query.Query{
				Where:   []query.Predicate{query.Eq(query.ColWorker, target.ID), query.Range(query.ColStart, winLo, winHi)},
				Workers: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			if res.Stats.RowsMatched != wantWorker {
				b.Fatalf("engine matched %d rows, naive scan %d", res.Stats.RowsMatched, wantWorker)
			}
			if res.Stats.SegmentsPruned == 0 {
				b.Fatal("no segments pruned")
			}
		}
	})
	b.Run("worker-day/encoded", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := runQuery(&stEnc, query.Query{
				Where:   []query.Predicate{query.Eq(query.ColWorker, target.ID), query.Range(query.ColStart, winLo, winHi)},
				Workers: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			if res.Stats.RowsMatched != wantWorker {
				b.Fatalf("encoded scan matched %d rows, naive scan %d", res.Stats.RowsMatched, wantWorker)
			}
		}
	})
	b.Run("worker-day/scan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if naiveWorker() != wantWorker {
				b.Fatal("scan drifted")
			}
		}
	})

	weekLo, weekHi := model.DayUnix(7*130), model.DayUnix(7*131)
	naiveWeek := func() int64 {
		var n int64
		for _, s := range st.Starts() {
			if s >= weekLo && s < weekHi {
				n++
			}
		}
		return n
	}
	wantWeek := naiveWeek()
	b.Run("week-window/engine", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := runQuery(st, query.Query{
				Where:   []query.Predicate{query.Range(query.ColStart, weekLo, weekHi)},
				Workers: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			if res.Stats.RowsMatched != wantWeek {
				b.Fatalf("engine matched %d rows, naive scan %d", res.Stats.RowsMatched, wantWeek)
			}
		}
	})
	b.Run("week-window/encoded", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := runQuery(&stEnc, query.Query{
				Where:   []query.Predicate{query.Range(query.ColStart, weekLo, weekHi)},
				Workers: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			if res.Stats.RowsMatched != wantWeek {
				b.Fatalf("encoded scan matched %d rows, naive scan %d", res.Stats.RowsMatched, wantWeek)
			}
		}
	})
	b.Run("week-window/scan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if naiveWeek() != wantWeek {
				b.Fatal("scan drifted")
			}
		}
	})

	// The point template of the repo's benchmark (P1 in bench/) on the
	// layout its server answers from: compaction has merged the 8,192-row
	// seals into ~250k-row segments, so the four-week window is found by
	// the granule zones inside them, not by segment zone maps.
	live := compactedView(b, st)
	mid := st.Row(st.Len() / 2)
	week := model.WeekOfUnix(mid.Start)
	p1, err := query.ParseQuery(fmt.Sprintf("where worker == %d and start in [week:%d, week:%d) | group week | value duration | p50", mid.Worker, week, week+4))
	if err != nil {
		b.Fatal(err)
	}
	p1.Workers = 1
	var wantWindow int64
	for i, w := range st.Workers() {
		if s := st.Starts()[i]; w == mid.Worker && s >= model.DayUnix(7*week) && s < model.DayUnix(7*(week+4)) {
			wantWindow++
		}
	}
	b.Run("worker-window/compacted", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := runQuery(live, p1)
			if err != nil {
				b.Fatal(err)
			}
			if res.Stats.RowsMatched != wantWindow || wantWindow == 0 {
				b.Fatalf("engine matched %d rows, naive scan %d", res.Stats.RowsMatched, wantWindow)
			}
			if res.Stats.GranulesPruned == 0 {
				b.Fatalf("no granule pruned: %+v", res.Stats)
			}
		}
	})

	// The fold shapes: the scan templates of the repo's benchmark (S5, S2,
	// S3, S1, S4 in bench/), where the time goes to the fold and the merge
	// rather than to the filter kernels. The store's segments hold task
	// type and batch as runs, so the group-batch and dur-tasktype-trust
	// folds go by runs. Their `compacted` twins run on the live view, whose
	// sealed segments keep the encodings compaction computed and so fold by
	// runs too, its open tail by rows; their `rows` twins run on a
	// repair-mode reload, which carries no segment encodings, and so time
	// the row form's probe → slot → fold of the same shapes on the same
	// layout.
	rowsTwin := new(store.Store)
	if _, err := rowsTwin.ReadSnapshot(bytes.NewReader(snapBuf.Bytes()), store.LoadOptions{Mode: store.LoadRepair}); err != nil {
		b.Fatal(err)
	}
	if len(rowsTwin.SegmentEncodings()) != 0 {
		b.Fatal("the repair-mode reload carries segment encodings")
	}
	tabs := query.NewTables(ds.Workers, ds.Batches)
	for _, c := range []struct {
		name, text string
		twins      bool
	}{
		{"group-batch", "group batch", true},
		{"group-week-distinct", "group week | distinct worker", false},
		{"group-worker-p50", "group worker | value duration | p50", false},
		{"dur-tasktype-trust", "where duration >= 120 | group tasktype | value trust", true},
		{"join-two-key", "where worker.class == super and (batch.sampled == true or duration >= 600) | group tasktype, worker.country | value trust", false},
	} {
		q, err := query.ParseQuery(c.text)
		if err != nil {
			b.Fatal(err)
		}
		q.Workers, q.Tables = 1, tabs
		fold := func(src *store.Store) func(b *testing.B) {
			return func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := runQuery(src, q)
					if err != nil {
						b.Fatal(err)
					}
					if groupRows(res.Groups) != res.Stats.RowsMatched || len(res.Groups) == 0 {
						b.Fatalf("%d groups hold %d rows, matched %d", len(res.Groups), groupRows(res.Groups), res.Stats.RowsMatched)
					}
				}
			}
		}
		b.Run(c.name, fold(st))
		if c.twins {
			b.Run(c.name+"/compacted", fold(live))
			b.Run(c.name+"/rows", fold(rowsTwin))
		}
	}

	// The duration filter on the strict-reloaded twin, where it is one
	// packed column: the stored end-start offsets, unpacked a frame at a
	// time. Neither time column is ever materialized.
	durQ, err := query.ParseQuery("where duration >= 120 | group tasktype | value trust")
	if err != nil {
		b.Fatal(err)
	}
	durQ.Workers = 1
	wantDur, err := runQuery(st, durQ)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("dur-tasktype-trust/encoded", func(b *testing.B) {
		var twin store.Store
		if _, err := twin.ReadFrom(bytes.NewReader(snapBuf.Bytes())); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := runQuery(&twin, durQ)
			if err != nil {
				b.Fatal(err)
			}
			if res.Stats.RowsMatched != wantDur.Stats.RowsMatched || len(res.Groups) != len(wantDur.Groups) {
				b.Fatalf("matched %d rows in %d groups, raw store %d in %d", res.Stats.RowsMatched, len(res.Groups), wantDur.Stats.RowsMatched, len(wantDur.Groups))
			}
		}
		if r := twin.Residency(); r&(store.ColSetStart|store.ColSetEnd) != 0 {
			b.Fatalf("a duration filter materialized a time column: residency %#x", r)
		}
	})
}

// compactedView loads st into a live store the way bench/ does — one
// Append per batch, seals at 8,192 rows, checkpoint, close, reopen,
// Compact(1<<18) to a fixed point — and returns its view.
func compactedView(b *testing.B, st *store.Store) *store.Store {
	b.Helper()
	dir := b.TempDir()
	cfg := store.LiveConfig{SealRows: 1 << 13, Sync: wal.SyncNone}
	ls, err := store.OpenLive(dir, cfg)
	if err != nil {
		b.Fatal(err)
	}
	var rows []model.Instance
	for batch := 0; batch < st.NumBatches(); batch++ {
		lo, hi := st.BatchRange(uint32(batch))
		if lo == hi {
			continue
		}
		rows = rows[:0]
		for i := lo; i < hi; i++ {
			rows = append(rows, st.Row(i))
		}
		if err := ls.Append(rows); err != nil {
			b.Fatal(err)
		}
	}
	if err := ls.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	if err := ls.Close(); err != nil {
		b.Fatal(err)
	}
	if ls, err = store.OpenLive(dir, cfg); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { ls.Close() })
	for ls.Compact(1<<18) > 0 {
	}
	return ls.View()
}

// BenchmarkAblationStoreLayout compares columnar scans against
// row-at-a-time materialization on the shared store.
func BenchmarkAblationStoreLayout(b *testing.B) {
	ctx := setup(b)
	st := ctx.A.DS.Store
	b.Run("columnar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var total int64
			for _, s := range st.Starts() {
				total += s
			}
			_ = total
		}
	})
	b.Run("row", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var total int64
			for r := 0; r < st.Len(); r++ {
				total += st.Row(r).Start
			}
			_ = total
		}
	})
}

// BenchmarkQueryWithContext measures what a wall-clock budget costs on
// the hot path: the identical scan plain and governed (each op arms a
// context.WithTimeout that never fires, as crowdserved does per request).
// The cooperative checks sit between 64Ki-row chunks, so the measured
// overhead is the timer plus one context poll per chunk — low single
// digits of a percent, gated in CI like every other engine benchmark.
func BenchmarkQueryWithContext(b *testing.B) {
	ds := synth.Generate(synth.Config{Seed: 1701, Scale: 0.02, Parallelism: 16})
	st := ds.Store
	st.ZoneMaps()
	weekLo, weekHi := model.DayUnix(7*130), model.DayUnix(7*131)
	q := query.Query{
		Where:   []query.Predicate{query.Range(query.ColStart, weekLo, weekHi)},
		Workers: 1,
	}
	res, err := runQuery(st, q)
	if err != nil {
		b.Fatal(err)
	}
	want := res.Stats.RowsMatched

	b.Run("plain", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := runQuery(st, q)
			if err != nil {
				b.Fatal(err)
			}
			if res.Stats.RowsMatched != want {
				b.Fatalf("matched %d, want %d", res.Stats.RowsMatched, want)
			}
		}
	})
	b.Run("governed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			res, err := query.Exec(ctx, query.Source{Store: st}, q, query.Options{})
			cancel()
			if err != nil {
				b.Fatal(err)
			}
			if res.Stats.RowsMatched != want {
				b.Fatalf("governed matched %d, want %d", res.Stats.RowsMatched, want)
			}
		}
	})
}

// groupRows sums the groups' counts: every matched row lands in exactly
// one group.
func groupRows(groups []query.Group) int64 {
	var n int64
	for _, g := range groups {
		n += g.Count
	}
	return n
}
