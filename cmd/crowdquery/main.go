// Command crowdquery runs ad-hoc filtered, grouped aggregates over an
// instance-log snapshot (or a freshly generated marketplace) through the
// internal/query engine — predicates are evaluated vectorized and whole
// segments are skipped via zone maps before a row is touched.
//
// Usage:
//
//	crowdquery -snapshot marketplace.crow -q "where worker == 12"
//	crowdquery -snapshot marketplace.crow -explain \
//	    -q "where start in [week:130, week:140) and trust >= 0.8 | group week | value duration | p50"
//	crowdquery -seed 1701 -scale 0.02 \
//	    -q "where worker.class == super or batch.sampled == true | group tasktype, worker.country | value trust | sort count"
//
// The -q text query is a pipeline of stages (any order, `where` first by
// convention): where, group (one or two comma-separated keys), value,
// p50, distinct, sort, top. An empty -q is `value count`: one group
// counting every row. The where expression combines predicates with
// `and`/`or` and parentheses:
//
//	column op value          op: == (or =), <, <=, >, >=
//	column in {v, v, ...}    set membership (integer columns)
//	column in [lo, hi)       range; ) excludes hi, ] includes it
//
// Columns: batch, tasktype, item, worker, start, end, trust, answer, the
// derived duration (end-start, seconds), and the joined attribute
// columns worker.source, worker.country, worker.class, batch.items,
// batch.redundancy, batch.sampled, batch.week. start/end values are unix
// seconds, or week:N / day:N dataset buckets; worker.class also takes
// the class names (one-day, casual, active, super) and batch.sampled
// takes true/false. Joined columns need the marketplace inventory: it is
// generated from -seed/-scale, which must match the snapshot's
// generation parameters.
//
// Without a top stage at most 25 groups are printed (`top 0` prints
// all). -explain prints the plan — greedy clause order and zone-map
// pruning — before the results.
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
	"crowdscope/internal/model"
	"crowdscope/internal/query"
	"crowdscope/internal/query/lang"
	"crowdscope/internal/report"
	"crowdscope/internal/store"
	"crowdscope/internal/synth"
)

// displayRows caps the groups printed for a query without a top stage.
const displayRows = 25

func main() {
	// Ctrl-C cancels the running query at the next chunk boundary; the
	// scan unwinds cleanly (no partial results) and the process exits
	// with the conventional interrupted code.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "crowdquery: %v\n", err)
		os.Exit(cli.ExitCode(err))
	}
}

// run is the testable entry point: it parses args, writes everything to
// the given writers, and returns instead of exiting. Cancelling ctx
// aborts the query mid-scan with context.Canceled.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("crowdquery", flag.ContinueOnError)
	fs.SetOutput(stderr)
	qText := fs.String("q", "", "the query, e.g. 'where trust >= 0.8 and (worker.class == super or duration < 300) | group week | value trust' (empty = value count)")
	explain := fs.Bool("explain", false, "print the query plan (greedy clause order, zone-map pruning) before the results")
	snapshotPath := fs.String("snapshot", "", "query this snapshot file (otherwise a marketplace is generated from -seed/-scale)")
	seed := fs.Uint64("seed", 1701, "generation seed when no -snapshot is given")
	scale := fs.Float64("scale", 0.02, "generation scale when no -snapshot is given")
	workers := fs.Int("workers", 0, "scan goroutine bound (0 = GOMAXPROCS, 1 = serial); never changes the result")
	degraded := fs.Bool("degraded", false, "skip dataset shards that fail to read instead of aborting; skipped shards are reported")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // usage already printed to stderr
		}
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q (the query goes in -q)", fs.Arg(0))
	}

	text := *qText
	if text == "" {
		text = "value count"
	}
	lq, err := lang.Parse(text)
	if err != nil {
		return err
	}
	q, err := query.Compile(lq)
	if err != nil {
		return err
	}
	q.Workers = *workers
	top := displayRows
	if lq.HasTop {
		top = lq.Top
	}

	st, ds, gen, source, err := openSource(*snapshotPath, *seed, *scale, *workers)
	if err != nil {
		return err
	}
	if q.NeedsTables() {
		if gen == nil {
			// Joined columns probe the marketplace inventory; a snapshot
			// carries only the instance log, so rebuild the inventory from
			// the generation parameters (no instances are synthesized).
			gen = synth.Inventory(synth.Config{Seed: *seed, Scale: *scale})
		}
		q.Tables = query.NewTables(gen.Workers, gen.Batches)
	}

	var totalRows int
	if ds != nil {
		defer ds.Close()
		totalRows = ds.Manifest().TotalRows()
	} else {
		totalRows = st.Len()
	}
	res, err := query.Exec(ctx, query.Source{Store: st, Dataset: ds}, q,
		query.Options{Explain: *explain, SkipFailedShards: *degraded})
	if err != nil {
		return err
	}
	if res.Plan != nil {
		fmt.Fprintln(stdout, res.Plan.String())
	}

	fmt.Fprintf(stdout, "source: %s (%d rows, %d segments)\n", source, totalRows, res.Stats.Segments)
	fmt.Fprintf(stdout, "query:  %s\n", q.Text())
	groups := append([]query.Group(nil), res.Groups...)
	if lq.Sort == "count" {
		sort.SliceStable(groups, func(i, j int) bool { return groups[i].Count > groups[j].Count })
	}
	renderGroups(stdout, &q, groups, top)
	pct := 100.0
	if totalRows > 0 {
		pct = 100 * float64(res.Stats.RowsScanned) / float64(totalRows)
	}
	// Granule zones exist on segments sealed in this process and on those
	// of a loaded snapshot or dataset shard, which derive them as they
	// load; a source without any prints no tally.
	granules := ""
	if res.Stats.Granules > 0 {
		granules = fmt.Sprintf(", %d of %d granules pruned", res.Stats.GranulesPruned, res.Stats.Granules)
	}
	fmt.Fprintf(stdout, "scanned %d of %d rows (%.1f%%; %d of %d segments zone-map-pruned%s), matched %d in %d groups\n",
		res.Stats.RowsScanned, totalRows, pct, res.Stats.SegmentsPruned, res.Stats.Segments, granules, res.Stats.RowsMatched, len(res.Groups))
	if ds != nil {
		fmt.Fprintf(stdout, "shards: %d opened, %d pruned, %d skipped\n",
			res.Stats.ShardsOpened, res.Stats.ShardsPruned, res.Stats.ShardsSkipped)
		for _, sk := range res.SkippedShards {
			fmt.Fprintf(stderr, "crowdquery: warning: skipped shard %s: %v\n", sk.Name, sk.Err)
		}
		if len(res.SkippedShards) > 0 {
			fmt.Fprintf(stderr, "crowdquery: warning: result is a PARTIAL aggregate over %d of %d shards\n",
				res.Stats.ShardsOpened, res.Stats.ShardsOpened+res.Stats.ShardsPruned+res.Stats.ShardsSkipped)
		}
	}
	return nil
}

// openSource opens the file at path — a snapshot or a sharded-dataset
// manifest, told apart by magic bytes — or generates the marketplace
// deterministically from (seed, scale) when no path is given. Exactly
// one of the store and dataset returns is non-nil; the synth dataset is
// non-nil only for the generated source (its worker/batch inventory
// backs joined columns without regenerating).
func openSource(path string, seed uint64, scale float64, workers int) (*store.Store, *store.Dataset, *synth.Dataset, string, error) {
	if path == "" {
		ds := synth.Generate(synth.Config{Seed: seed, Scale: scale, Parallelism: workers})
		return ds.Store, nil, ds, fmt.Sprintf("generated seed=%d scale=%g", seed, scale), nil
	}
	kind, err := store.DetectPath(path)
	if err != nil {
		return nil, nil, nil, "", err
	}
	if kind == store.KindManifest {
		d, err := store.OpenDatasetPath(path)
		if err != nil {
			return nil, nil, nil, "", fmt.Errorf("load dataset %s: %w", path, err)
		}
		return nil, d, nil, path, nil
	}
	st, _, _, err := store.LoadPath(path, store.LoadOptions{Workers: workers})
	if err != nil {
		return nil, nil, nil, "", fmt.Errorf("load snapshot %s: %w", path, err)
	}
	return st, nil, nil, path, nil
}

// renderGroups prints the result table with only the requested aggregate
// columns, at most top groups of them (0 = all).
func renderGroups(stdout io.Writer, q *query.Query, groups []query.Group, top int) {
	if len(groups) == 0 {
		fmt.Fprintln(stdout, "no rows matched")
		return
	}
	keys := q.GroupBys
	if len(keys) == 0 {
		keys = []query.GroupBy{query.GroupNone}
	}
	var headers []string
	for _, g := range keys {
		headers = append(headers, g.String())
	}
	headers = append(headers, "count")
	withValue := q.Value != query.ValueNone
	if withValue {
		headers = append(headers, "sum", "mean", "min", "max")
	}
	if q.P50 {
		headers = append(headers, "p50")
	}
	if q.Distinct != query.ColNone {
		headers = append(headers, "distinct "+q.Distinct.String())
	}
	tbl := report.NewTable("Query result", headers...)
	for i, g := range groups {
		if top > 0 && i >= top {
			break
		}
		row := []interface{}{keyLabel(keys[0], g.Key)}
		if len(keys) > 1 {
			row = append(row, keyLabel(keys[1], g.Key2))
		}
		row = append(row, g.Count)
		if withValue {
			row = append(row, g.Sum, g.Mean(), g.Min, g.Max)
		}
		if q.P50 {
			row = append(row, g.P50)
		}
		if q.Distinct != query.ColNone {
			row = append(row, g.Distinct)
		}
		tbl.AddRow(row...)
	}
	tbl.Render(stdout)
	if top > 0 && len(groups) > top {
		fmt.Fprintf(stdout, "(%d more groups; raise the top stage to see them)\n", len(groups)-top)
	}
}

// keyLabel renders a group key; week keys carry the paper's axis label.
func keyLabel(g query.GroupBy, key int64) string {
	switch g {
	case query.GroupWeek:
		if key >= 0 {
			return fmt.Sprintf("w%d (%s)", key, model.FormatWeek(int32(key)))
		}
		return fmt.Sprintf("w%d (pre-epoch)", key)
	case query.GroupDay:
		return fmt.Sprintf("d%d", key)
	default:
		return fmt.Sprintf("%d", key)
	}
}
