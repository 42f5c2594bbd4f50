// Command crowdstats answers ad-hoc questions about a synthetic
// marketplace: headline counts, per-source and per-country rollups,
// per-cluster summaries, and load statistics.
//
// Usage:
//
//	crowdstats -seed 1701 -scale 0.02 summary
//	crowdstats sources | countries | clusters | load | workers
//	crowdstats -snapshot marketplace.crow summary   # reuse a crowdgen snapshot
//	crowdstats snapshot marketplace.crow            # inspect a snapshot file
//	crowdstats verify-snapshot marketplace.crow     # check every section checksum
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"syscall"

	"crowdscope/internal/cli"
	"crowdscope/internal/core"
	"crowdscope/internal/experiments"
	"crowdscope/internal/model"
	"crowdscope/internal/profiling"
	"crowdscope/internal/query"
	"crowdscope/internal/report"
	"crowdscope/internal/stats"
	"crowdscope/internal/store"
	"crowdscope/internal/synth"
	"crowdscope/internal/timeseries"
)

func main() {
	// Ctrl-C cancels the in-flight analysis query at the next chunk
	// boundary and exits with the conventional interrupted code.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "crowdstats: %v\n", err)
		os.Exit(cli.ExitCode(err))
	}
}

// run is the testable entry point: it parses args, writes everything to
// the given writers, and returns instead of exiting.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("crowdstats", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Uint64("seed", 1701, "generation seed")
	scale := fs.Float64("scale", 0.02, "instance-volume scale in (0,1]")
	workers := fs.Int("workers", 0, "generation and analysis goroutine bound (0 = GOMAXPROCS, 1 = serial); never changes the data")
	top := fs.Int("top", 15, "rows to show in rollups")
	snapshotPath := fs.String("snapshot", "", "load the instance log from this snapshot instead of regenerating it (inventory still derives from -seed/-scale; provenance is checked)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // usage already printed to stderr
		}
		return err
	}

	stopProfiles := profiling.Start(*cpuProfile, *memProfile)
	defer stopProfiles()

	cmd := fs.Arg(0)
	if cmd == "" {
		cmd = "summary"
	}

	if cmd == "snapshot" {
		return snapshotCmd(ctx, fs.Arg(1), *workers, stdout)
	}
	if cmd == "verify-snapshot" {
		return verifySnapshotCmd(fs.Arg(1), *workers, stdout, stderr)
	}

	cfg := synth.Config{Seed: *seed, Scale: *scale, Parallelism: *workers}
	var ds *synth.Dataset
	if *snapshotPath != "" {
		var err error
		if ds, err = loadDataset(cfg, *snapshotPath, *workers); err != nil {
			return err
		}
	} else {
		ds = synth.Generate(cfg)
	}

	switch cmd {
	case "summary":
		summary(ds, stdout)
	case "load":
		load(ds, stdout)
	case "sources", "countries", "workers", "clusters":
		copts := core.DefaultOptions()
		copts.Workers = *workers
		analysis := core.New(ds, copts)
		ctx := experiments.NewContext(analysis)
		ctx.ScanWorkers = *workers
		switch cmd {
		case "sources":
			sourcesCmd(analysis, ctx, *top, stdout)
		case "countries":
			countriesCmd(analysis, ctx, *top, stdout)
		case "workers":
			workersCmd(ctx, *top, stdout)
		case "clusters":
			clustersCmd(analysis, *top, stdout)
		}
	default:
		fmt.Fprintln(stderr, "commands: summary load sources countries workers clusters snapshot <file> verify-snapshot <file>")
		return fmt.Errorf("unknown command %q", cmd)
	}
	return nil
}

// loadDataset rebuilds a full dataset around a snapshot-restored instance
// log (single-file or sharded): strict load, provenance check against
// the flags, then inventory regeneration (synth.Rehydrate).
func loadDataset(cfg synth.Config, path string, workers int) (*synth.Dataset, error) {
	st, rep, _, err := store.LoadPath(path, store.LoadOptions{Workers: workers})
	if err != nil {
		return nil, fmt.Errorf("load snapshot: %w", err)
	}
	if p := rep.Provenance; p != nil && p.ConfigHash != cfg.Hash() {
		return nil, fmt.Errorf("snapshot %s was written by %q under config %016x, but flags give %016x (seed %d, scale %g); pass the matching -seed/-scale",
			path, p.Tool, p.ConfigHash, cfg.Hash(), cfg.Seed, cfg.Scale)
	}
	return synth.Rehydrate(cfg, st)
}

// snapshotCmd inspects an instance-log snapshot written by crowdgen. The
// span and workforce numbers come from one query-engine pass (min/max
// start, distinct workers) instead of hand-rolled column scans.
func snapshotCmd(ctx context.Context, path string, workers int, stdout io.Writer) error {
	if path == "" {
		return fmt.Errorf("snapshot requires a file path")
	}
	st, rep, nshards, err := store.LoadPath(path, store.LoadOptions{Workers: workers})
	if err != nil {
		return fmt.Errorf("read snapshot: %w", err)
	}
	if err := st.Validate(); err != nil {
		return fmt.Errorf("snapshot invalid: %w", err)
	}
	nonEmpty := 0
	for b := 0; b < st.NumBatches(); b++ {
		if lo, hi := st.BatchRange(uint32(b)); hi > lo {
			nonEmpty++
		}
	}
	if st.Len() == 0 {
		fmt.Fprintf(stdout, "Snapshot %s: v%d, %d bytes, empty store\n", path, rep.Version, rep.Bytes)
		return nil
	}
	res, err := query.Exec(ctx, query.Source{Store: st}, query.Query{Value: query.ValueStart, Distinct: query.ColWorker, Workers: workers}, query.Options{})
	if err != nil {
		return err
	}
	span := res.Groups[0]
	tbl := report.NewTable("Snapshot " + path)
	tbl.Headers = []string{"quantity", "value"}
	tbl.AddRow("format version", rep.Version)
	tbl.AddRow("bytes", rep.Bytes)
	tbl.AddRow("rows", st.Len())
	tbl.AddRow("bytes/row", float64(rep.Bytes)/float64(st.Len()))
	tbl.AddRow("batches with rows", nonEmpty)
	tbl.AddRow("segments", len(st.Segments()))
	if nshards > 0 {
		tbl.AddRow("shards", nshards)
	}
	tbl.AddRow("distinct workers", span.Distinct)
	tbl.AddRow("first start week", model.WeekOfUnix(int64(span.Min)))
	tbl.AddRow("last start week", model.WeekOfUnix(int64(span.Max)))
	if p := rep.Provenance; p != nil {
		tbl.AddRow("written by", p.Tool)
		tbl.AddRow("generator seed", p.Seed)
		tbl.AddRow("config hash", fmt.Sprintf("%016x", p.ConfigHash))
	} else {
		tbl.AddRow("provenance", "none")
	}
	tbl.Render(stdout)
	return nil
}

// verifySnapshotCmd strict-loads a snapshot, reporting either a clean
// bill (every section checksum verified, structure valid) or the precise
// damaged sections — distinguishing truncation from corruption — via a
// follow-up repair-mode pass.
func verifySnapshotCmd(path string, workers int, stdout, stderr io.Writer) error {
	if path == "" {
		return fmt.Errorf("verify-snapshot requires a file path")
	}
	st, rep, _, serr := store.LoadPath(path, store.LoadOptions{Workers: workers})
	if serr == nil {
		if err := st.Validate(); err != nil {
			return fmt.Errorf("%s: sections OK but structure invalid: %w", path, err)
		}
		fmt.Fprintf(stdout, "%s: OK (v%d, %d bytes, %d rows, %d segments", path, rep.Version, rep.Bytes, st.Len(), len(st.Segments()))
		if p := rep.Provenance; p != nil {
			fmt.Fprintf(stdout, ", written by %s, config %016x", p.Tool, p.ConfigHash)
		}
		fmt.Fprintln(stdout, ")")
		return nil
	}
	fmt.Fprintf(stderr, "crowdstats: %s: strict load FAILED: %v\n", path, serr)
	if recovered, rrep, _, rerr := store.LoadPath(path, store.LoadOptions{Mode: store.LoadRepair, Workers: workers}); rerr == nil {
		fmt.Fprintf(stderr, "  repair mode recovers %d of %d rows; damaged sections: %v\n",
			recovered.Len()-damagedRows(rrep, recovered), recovered.Len(), rrep.Damaged)
	} else {
		fmt.Fprintf(stderr, "  repair mode also fails: %v\n", rerr)
	}
	return fmt.Errorf("%s: strict load failed", path)
}

// damagedRows estimates how many rows repair mode zero-filled: rows whose
// start time is zero never occur in generated data.
func damagedRows(rep *store.LoadReport, st *store.Store) int {
	if len(rep.Damaged) == 0 {
		return 0
	}
	n := 0
	for _, s := range st.Starts() {
		if s == 0 {
			n++
		}
	}
	return n
}

func summary(ds *synth.Dataset, stdout io.Writer) {
	obs := ds.ObservedWorkers()
	tbl := report.NewTable("Marketplace summary")
	tbl.Headers = []string{"quantity", "value"}
	tbl.AddRow("batches", len(ds.Batches))
	tbl.AddRow("sampled batches", len(ds.SampledBatchIDs()))
	tbl.AddRow("distinct task types", len(ds.TaskTypes))
	tbl.AddRow("task instances (materialized)", ds.Store.Len())
	tbl.AddRow("store segments", len(ds.Store.Segments()))
	tbl.AddRow("workers observed", len(obs))
	tbl.AddRow("labor sources", len(ds.Sources))
	tbl.AddRow("countries", len(ds.Countries))
	tbl.Render(stdout)
}

func load(ds *synth.Dataset, stdout io.Writer) {
	daily := timeseries.NewDaily()
	for i := range ds.Batches {
		b := &ds.Batches[i]
		if b.Sampled {
			daily.AddAt(b.CreatedAt.Unix(), float64(b.Instances()))
		}
	}
	post := daily.Slice(int(model.PostBoomWeek)*7, daily.Len())
	ls := timeseries.SummarizeLoad(post)
	fmt.Fprintf(stdout, "post-2015 daily load: median=%.0f max=%.0f peak=%.1fx trough=%.5fx\n",
		ls.Median, ls.Max, ls.PeakRatio, ls.TroughRatio)
	fold := timeseries.WeekdayFold(daily)
	chart := report.NewChart("By weekday")
	for i, name := range timeseries.WeekdayNames {
		chart.Add(name, fold[i])
	}
	chart.Render(stdout)
}

func sourcesCmd(a *core.Analysis, ctx *experiments.Context, top int, stdout io.Writer) {
	sources := a.SourceTable(ctx.Workers())
	tbl := report.NewTable("Sources by task volume", "source", "workers", "tasks", "tasks/worker", "trust", "rel-time")
	for i, s := range sources {
		if i >= top {
			break
		}
		tbl.AddRow(s.Name, s.Workers, s.Tasks, s.AvgTasksPerWorker, s.MeanTrust, s.MeanRelTime)
	}
	tbl.Render(stdout)
}

func countriesCmd(a *core.Analysis, ctx *experiments.Context, top int, stdout io.Writer) {
	countries := a.CountryTable(ctx.Workers())
	chart := report.NewChart("Workers by country")
	for i, c := range countries {
		if i >= top {
			break
		}
		chart.Add(c.Name, float64(c.Workers))
	}
	chart.Render(stdout)
}

func workersCmd(ctx *experiments.Context, top int, stdout io.Writer) {
	workers := ctx.Workers()
	tbl := report.NewTable("Top workers", "rank", "class", "tasks", "working-days", "lifetime-d", "hours", "trust")
	for i, w := range workers {
		if i >= top {
			break
		}
		tbl.AddRow(i+1, w.Class.String(), w.Tasks, w.WorkingDays, w.Lifetime, w.HoursTotal(), w.MeanTrust)
	}
	tbl.Render(stdout)
	loads := make([]float64, len(workers))
	for i := range workers {
		loads[i] = float64(workers[i].Tasks)
	}
	fmt.Fprintf(stdout, "\ntop-10%% of %d workers perform %.0f%% of tasks (Gini %.2f)\n",
		len(workers), 100*stats.TopShare(loads, 0.10), stats.Gini(loads))
}

func clustersCmd(a *core.Analysis, top int, stdout io.Writer) {
	rows := append([]core.ClusterRow(nil), a.Clusters...)
	sort.Slice(rows, func(i, j int) bool { return rows[i].Instances > rows[j].Instances })
	tbl := report.NewTable("Largest clusters", "cluster", "batches", "instances", "goal", "ops", "data", "disagreement", "task-time-s", "pickup-s")
	for i, c := range rows {
		if i >= top {
			break
		}
		tbl.AddRow(c.Cluster, len(c.Batches), c.Instances, c.Labels.Goals.String(), c.Labels.Operators.String(), c.Labels.Data.String(),
			c.Metrics.Disagreement, c.Metrics.TaskTime, c.Metrics.PickupTime)
	}
	tbl.Render(stdout)
	fmt.Fprintf(stdout, "\n%d clusters over %d sampled batches\n", len(a.Clusters), len(a.SampledIDs))
}
