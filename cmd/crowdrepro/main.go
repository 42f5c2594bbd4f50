// Command crowdrepro regenerates the paper's tables and figures from a
// synthetic marketplace and prints paper-vs-measured checkpoints.
//
// Usage:
//
//	crowdrepro                        # run everything
//	crowdrepro -run fig3,tab1,sec49   # run selected experiments
//	crowdrepro -tsv out/              # also write TSV series for plotting
//	crowdrepro -snapshot marketplace.crow   # analyze a crowdgen snapshot
//	                                        # (provenance-checked) instead
//	                                        # of rematerializing the log
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"crowdscope/internal/cli"
	"crowdscope/internal/core"
	"crowdscope/internal/experiments"
	"crowdscope/internal/profiling"
	"crowdscope/internal/store"
	"crowdscope/internal/synth"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "crowdrepro: %v\n", err)
		os.Exit(cli.ExitCode(err))
	}
}

// run is the testable entry point: it parses args, writes everything to
// the given writers, and returns instead of exiting.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("crowdrepro", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Uint64("seed", 1701, "generation seed")
	scale := fs.Float64("scale", 0.02, "instance-volume scale in (0,1]")
	workers := fs.Int("workers", 0, "generation and analysis goroutine bound (0 = GOMAXPROCS, 1 = serial); never changes the data")
	snapshotPath := fs.String("snapshot", "", "load the instance log from this snapshot instead of rematerializing it (inventory still derives from -seed/-scale; provenance is checked)")
	runIDs := fs.String("run", "", "comma-separated experiment IDs (default: all)")
	tsvDir := fs.String("tsv", "", "directory to write TSV series into")
	list := fs.Bool("list", false, "list experiment IDs and exit")
	checksMD := fs.String("checks-md", "", "write a paper-vs-measured markdown report to this file")
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

	if *list {
		for _, e := range experiments.All() {
			fmt.Fprintf(stdout, "%-7s %-12s %s\n", e.ID, e.Paper, e.Title)
		}
		return nil
	}

	selected := experiments.All()
	if *runIDs != "" {
		selected = selected[:0]
		for _, id := range strings.Split(*runIDs, ",") {
			e, ok := experiments.Lookup(strings.TrimSpace(id))
			if !ok {
				return fmt.Errorf("unknown experiment %q (use -list)", id)
			}
			selected = append(selected, e)
		}
	}

	cfg := synth.Config{Seed: *seed, Scale: *scale, Parallelism: *workers}
	copts := core.DefaultOptions()
	copts.Workers = *workers

	var analysis *core.Analysis
	analysed := func(t0 time.Time) {
		fmt.Fprintf(stdout, "  %d clusters from %d sampled pages (%d distinct) in %v\n", analysis.Clustering.NumClusters(),
			len(analysis.SampledIDs), analysis.DistinctPages, time.Since(t0).Round(time.Millisecond))
	}
	if *snapshotPath != "" {
		fmt.Fprintf(stdout, "loading snapshot %s (inventory from seed=%d scale=%g)...\n", *snapshotPath, *seed, *scale)
		t0 := time.Now()
		st, prov, err := loadSnapshot(*snapshotPath, *workers)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "  %d instances (%d segments) loaded in %v\n", st.Len(), len(st.Segments()), time.Since(t0).Round(time.Millisecond))
		fmt.Fprintln(stdout, "running analysis pipeline (clustering, metrics, features)...")
		t0 = time.Now()
		analysis, err = core.FromSnapshot(cfg, st, prov, copts)
		if err != nil {
			return err
		}
		analysed(t0)
	} else {
		fmt.Fprintf(stdout, "generating marketplace (seed=%d scale=%g)...\n", *seed, *scale)
		t0 := time.Now()
		ds := synth.Generate(cfg)
		fmt.Fprintf(stdout, "  %d instances (%d segments), %d sampled batches in %v\n", ds.Store.Len(), len(ds.Store.Segments()), len(ds.SampledBatchIDs()), time.Since(t0).Round(time.Millisecond))

		fmt.Fprintln(stdout, "running analysis pipeline (clustering, metrics, features)...")
		t0 = time.Now()
		analysis = core.New(ds, copts)
		analysed(t0)
	}
	ds := analysis.DS

	ctx := experiments.NewContext(analysis)
	ctx.ScanWorkers = *workers
	var md *mdReport
	if *checksMD != "" {
		md = newMDReport(*seed, *scale, ds.Store.Len(), analysis.Clustering.NumClusters())
	}
	for _, e := range selected {
		fmt.Fprintf(stdout, "\n==== %s — %s: %s ====\n", e.ID, e.Paper, e.Title)
		out := e.Run(ctx)
		fmt.Fprint(stdout, out.Text)
		if md != nil {
			md.add(e, out)
		}
		if len(out.Checks) > 0 {
			fmt.Fprintln(stdout, "  paper-vs-measured:")
			for _, c := range out.Checks {
				paper := "—"
				if !math.IsNaN(c.Paper) {
					paper = fmt.Sprintf("%.4g", c.Paper)
				}
				note := ""
				if c.Note != "" {
					note = "  (" + c.Note + ")"
				}
				fmt.Fprintf(stdout, "    %-55s paper=%-9s measured=%-9.4g %s%s\n", c.Name, paper, c.Measured, c.Unit, note)
			}
		}
		if *tsvDir != "" {
			if err := os.MkdirAll(*tsvDir, 0o755); err != nil {
				return fmt.Errorf("mkdir %s: %w", *tsvDir, err)
			}
			for name, series := range out.Series {
				path := filepath.Join(*tsvDir, name+".tsv")
				f, err := os.Create(path)
				if err != nil {
					return fmt.Errorf("create %s: %w", path, err)
				}
				series.Render(f)
				f.Close()
			}
		}
	}
	if md != nil {
		if err := os.WriteFile(*checksMD, []byte(md.String()), 0o644); err != nil {
			return fmt.Errorf("write %s: %w", *checksMD, err)
		}
		fmt.Fprintf(stdout, "\nwrote %s\n", *checksMD)
	}
	return nil
}

// loadSnapshot strict-loads an instance log — a snapshot file or a
// sharded dataset's manifest; the provenance (if present) is returned
// for core.FromSnapshot's config check.
func loadSnapshot(path string, workers int) (*store.Store, *store.Provenance, error) {
	st, rep, _, err := store.LoadPath(path, store.LoadOptions{Workers: workers})
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil, err
		}
		return nil, nil, fmt.Errorf("load snapshot %s: %w (run `crowdstats verify-snapshot %s` to inspect the damage)", path, err, path)
	}
	return st, rep.Provenance, nil
}

// mdReport accumulates the EXPERIMENTS.md paper-vs-measured report.
type mdReport struct {
	b strings.Builder
}

func newMDReport(seed uint64, scale float64, instances, clusters int) *mdReport {
	m := &mdReport{}
	fmt.Fprintf(&m.b, "# EXPERIMENTS — paper vs measured\n\n")
	fmt.Fprintf(&m.b, "Generated by `crowdrepro -seed %d -scale %g -checks-md EXPERIMENTS.md`.\n\n", seed, scale)
	fmt.Fprintf(&m.b, "Dataset: %d materialized task instances, %d clusters over the 12k-batch sample.\n", instances, clusters)
	fmt.Fprintf(&m.b, "Absolute counts scale with the generator's scale factor; all comparisons\n")
	fmt.Fprintf(&m.b, "below are medians, fractions or ratios, which are scale-invariant. A paper\n")
	fmt.Fprintf(&m.b, "value of `—` marks qualitative claims (shape/direction) without a published\n")
	fmt.Fprintf(&m.b, "number.\n")
	return m
}

func (m *mdReport) add(e experiments.Experiment, out *experiments.Outcome) {
	fmt.Fprintf(&m.b, "\n## %s (%s) — %s\n\n", e.Paper, e.ID, e.Title)
	if len(out.Checks) == 0 {
		fmt.Fprintf(&m.b, "(qualitative artifact; see the TSV series)\n")
		return
	}
	fmt.Fprintf(&m.b, "| checkpoint | paper | measured | unit | note |\n")
	fmt.Fprintf(&m.b, "|---|---|---|---|---|\n")
	for _, c := range out.Checks {
		paper := "—"
		if !math.IsNaN(c.Paper) {
			paper = fmt.Sprintf("%.4g", c.Paper)
		}
		fmt.Fprintf(&m.b, "| %s | %s | %.4g | %s | %s |\n", c.Name, paper, c.Measured, c.Unit, c.Note)
	}
}

func (m *mdReport) String() string { return m.b.String() }
