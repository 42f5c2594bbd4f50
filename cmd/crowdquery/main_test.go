package main

import (
	"bytes"
	"context"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"crowdscope/internal/cli"
	"crowdscope/internal/model"
	"crowdscope/internal/store"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/tiny.crow and the golden CLI outputs")

// fixtureStore builds the deterministic four-segment store behind the
// committed testdata/tiny.crow snapshot: each segment covers its own week
// and worker band, so zone-map pruning is observable from the CLI.
func fixtureStore(t testing.TB) *store.Store {
	t.Helper()
	var segs []*store.Segment
	for k := 0; k < 4; k++ {
		b := store.NewBuilder(uint32(2*k), uint32(2*k+2))
		for bi := 0; bi < 2; bi++ {
			batch := uint32(2*k + bi)
			b.BeginBatch(batch)
			for i := 0; i < 30; i++ {
				start := model.DayUnix(int32(7*k)) + int64(bi)*43200 + int64(i)*3600
				b.Append(model.Instance{
					Batch:    batch,
					TaskType: uint32(k),
					Item:     uint32(i),
					Worker:   uint32(10*k + i%5),
					Start:    start,
					End:      start + 120 + int64(i%5)*60,
					Trust:    float32(50+10*k+i%10) / 100,
					Answer:   uint32(i % 3),
				})
			}
		}
		segs = append(segs, b.Seal())
	}
	s, err := store.Assemble(8, segs)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

const fixturePath = "testdata/tiny.crow"

// fixture returns the committed snapshot path, rewriting it under
// -update-golden and always verifying it matches fixtureStore.
func fixture(t *testing.T) string {
	t.Helper()
	var want bytes.Buffer
	if _, err := fixtureStore(t).WriteSnapshot(&want, store.WriteOptions{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fixturePath, want.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(fixturePath)
	if err != nil {
		t.Fatalf("read fixture (run `go test ./cmd/crowdquery -update-golden` to create): %v", err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatal("committed tiny.crow no longer matches fixtureStore; regenerate with -update-golden")
	}
	return fixturePath
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run `go test ./cmd/crowdquery -update-golden` to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}

// TestWeekWindowGolden: a one-week window on the four-week fixture must
// report three of four segments pruned.
func TestWeekWindowGolden(t *testing.T) {
	snap := fixture(t)
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), []string{"-snapshot", snap,
		"-q", "where start in [week:1, week:2) | group batch | value duration"}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, stderr.String())
	}
	if !strings.Contains(stdout.String(), "3 of 4 segments zone-map-pruned") {
		t.Errorf("pruning not reported:\n%s", stdout.String())
	}
	checkGolden(t, "week_window.golden", stdout.String())
}

// TestWorkerRollupGolden: grouped aggregates with p50, distinct and
// count-ordering through every pipeline stage.
func TestWorkerRollupGolden(t *testing.T) {
	snap := fixture(t)
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), []string{"-snapshot", snap,
		"-q", "where trust >= 0.6 | group tasktype | value trust | p50 | distinct worker | sort count | top 3"}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, stderr.String())
	}
	checkGolden(t, "worker_rollup.golden", stdout.String())
}

// TestExplainPlanGolden: -explain over a -q text query prints the plan —
// greedy clause order with selectivity/cost scores, and zone-map prune
// counts — before the results. The narrow week window must be chosen as
// the driving clause over the wide tasktype range.
func TestExplainPlanGolden(t *testing.T) {
	snap := fixture(t)
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), []string{"-snapshot", snap, "-explain",
		"-q", "where start in [week:1, week:2) and tasktype <= 2 | group batch | value duration"},
		&stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "[driving]") {
		t.Errorf("no driving clause in plan:\n%s", out)
	}
	if !strings.Contains(out, "segments: 1 of 4 scanned (3 zone-map-pruned)") {
		t.Errorf("segment pruning not in plan:\n%s", out)
	}
	if strings.Index(out, "start in") > strings.Index(out, "tasktype") {
		t.Errorf("week window is not the driving clause:\n%s", out)
	}
	checkGolden(t, "explain_plan.golden", out)
}

// TestJoinOrGolden: the full language surface end to end from -q — a
// worker-attribute join, an OR-group mixing a batch attribute with the
// derived duration, and a two-key group-by — over the generated
// marketplace, whose inventory backs the joined columns.
func TestJoinOrGolden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), []string{"-seed", "1701", "-scale", "0.005",
		"-q", "where worker.class == super and (batch.sampled == true or duration >= 600) | group tasktype, worker.country | value trust | sort count | top 5"},
		&stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, stderr.String())
	}
	if strings.Contains(stdout.String(), "no rows matched") {
		t.Fatalf("join query matched nothing:\n%s", stdout.String())
	}
	checkGolden(t, "join_or.golden", stdout.String())
}

// TestNoMatchGolden: a fully-pruned query still renders cleanly.
func TestNoMatchGolden(t *testing.T) {
	snap := fixture(t)
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), []string{"-snapshot", snap, "-q", "where worker == 999"}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(stdout.String(), "no rows matched") ||
		!strings.Contains(stdout.String(), "4 of 4 segments zone-map-pruned") {
		t.Errorf("unexpected output:\n%s", stdout.String())
	}
}

// TestDegradedDataset: with a shard file gone, the strict default fails
// loudly while -degraded answers from the surviving shards and reports
// the partial coverage on both streams.
func TestDegradedDataset(t *testing.T) {
	dir := t.TempDir()
	manPath := filepath.Join(dir, "fix.manifest")
	f, err := os.Create(manPath)
	if err != nil {
		t.Fatal(err)
	}
	man, err := fixtureStore(t).WriteDataset(f, 3, "fix", func(name string) (io.WriteCloser, error) {
		return os.Create(filepath.Join(dir, name))
	}, store.WriteOptions{Workers: 1})
	if cerr := f.Close(); err != nil || cerr != nil {
		t.Fatalf("write dataset: %v / %v", err, cerr)
	}
	if err := os.Remove(filepath.Join(dir, man.Shards[1].Name)); err != nil {
		t.Fatal(err)
	}

	var stdout, stderr bytes.Buffer
	if err := run(context.Background(), []string{"-snapshot", manPath, "-q", "group batch"}, &stdout, &stderr); err == nil {
		t.Fatal("strict query over a missing shard succeeded")
	}

	stdout.Reset()
	stderr.Reset()
	err = run(context.Background(), []string{"-snapshot", manPath, "-q", "group batch", "-degraded"}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("degraded run: %v (stderr: %s)", err, stderr.String())
	}
	if !strings.Contains(stdout.String(), "shards: 2 opened, 0 pruned, 1 skipped") {
		t.Errorf("coverage not reported:\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), man.Shards[1].Name) ||
		!strings.Contains(stderr.String(), "PARTIAL aggregate over 2 of 3 shards") {
		t.Errorf("skip warning missing:\n%s", stderr.String())
	}

	// The text-query path degrades identically: same engine, same
	// partial-coverage accounting, plan and results golden-pinned.
	stdout.Reset()
	stderr.Reset()
	err = run(context.Background(), []string{"-snapshot", manPath, "-degraded", "-explain",
		"-q", "where trust >= 0.6 or answer == 0 | group tasktype | value trust"},
		&stdout, &stderr)
	if err != nil {
		t.Fatalf("degraded -q run: %v (stderr: %s)", err, stderr.String())
	}
	if !strings.Contains(stdout.String(), "shards: 2 opened, 0 pruned, 1 skipped") {
		t.Errorf("coverage not reported:\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "PARTIAL aggregate over 2 of 3 shards") {
		t.Errorf("skip warning missing:\n%s", stderr.String())
	}
	// The manifest lives in a per-run temp dir; pin the golden on a
	// stable name.
	checkGolden(t, "degraded_q.golden", strings.ReplaceAll(stdout.String(), manPath, "fix.manifest"))
}

// TestExitCodeTaxonomy drives real damaged and missing inputs through
// run and checks that the shared exit-code classification sees through
// every layer of wrapping: corrupt input exits 2, missing input exits
// 3, everything else 1.
func TestExitCodeTaxonomy(t *testing.T) {
	snap := fixture(t)
	dir := t.TempDir()

	good, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte deep in the payload: magic survives, a section CRC dies.
	bad := append([]byte(nil), good...)
	bad[len(bad)/2] ^= 0x40
	corrupt := filepath.Join(dir, "corrupt.crow")
	if err := os.WriteFile(corrupt, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	// Garbage magic: not recognizably ours at all.
	garbage := filepath.Join(dir, "garbage.crow")
	if err := os.WriteFile(garbage, []byte("definitely not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A dataset whose manifest names a shard that is gone.
	manPath := filepath.Join(dir, "gone.manifest")
	f, err := os.Create(manPath)
	if err != nil {
		t.Fatal(err)
	}
	man, err := fixtureStore(t).WriteDataset(f, 2, "gone", func(name string) (io.WriteCloser, error) {
		return os.Create(filepath.Join(dir, name))
	}, store.WriteOptions{Workers: 1})
	if cerr := f.Close(); err != nil || cerr != nil {
		t.Fatalf("write dataset: %v / %v", err, cerr)
	}
	if err := os.Remove(filepath.Join(dir, man.Shards[0].Name)); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		args []string
		want int
	}{
		{"ok", []string{"-snapshot", snap}, cli.ExitOK},
		{"bad query", []string{"-snapshot", snap, "-q", "sort sideways"}, cli.ExitError},
		{"corrupt snapshot", []string{"-snapshot", corrupt}, cli.ExitCorrupt},
		{"garbage file", []string{"-snapshot", garbage}, cli.ExitCorrupt},
		{"missing snapshot", []string{"-snapshot", filepath.Join(dir, "nope.crow")}, cli.ExitMissing},
		{"missing shard", []string{"-snapshot", manPath, "-q", "group batch"}, cli.ExitMissing},
	}
	for _, c := range cases {
		var stdout, stderr bytes.Buffer
		err := run(context.Background(), c.args, &stdout, &stderr)
		if got := cli.ExitCode(err); got != c.want {
			t.Errorf("%s: exit %d (err %v), want %d", c.name, got, err, c.want)
		}
	}
}

// TestHelpExitsClean: -h prints usage and succeeds (exit 0), like the
// pre-refactor flag.ExitOnError behavior.
func TestHelpExitsClean(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run(context.Background(), []string{"-h"}, &stdout, &stderr); err != nil {
		t.Fatalf("-h returned %v", err)
	}
	if !strings.Contains(stderr.String(), "Usage of crowdquery") {
		t.Errorf("usage not printed: %s", stderr.String())
	}
}

func TestBadPredicate(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), []string{"-snapshot", fixturePath, "-q", "where bogus == 1"}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "unknown column") {
		t.Fatalf("err = %v, want unknown column", err)
	}
}

func TestBadFlagCombos(t *testing.T) {
	for name, args := range map[string][]string{
		"bad group":    {"-snapshot", fixturePath, "-q", "group bogus"},
		"bad value":    {"-snapshot", fixturePath, "-q", "value bogus"},
		"bad distinct": {"-snapshot", fixturePath, "-q", "distinct bogus"},
		"bad sort":     {"-snapshot", fixturePath, "-q", "sort sideways"},
		"positional":   {"-snapshot", fixturePath, "worker == 1"},
		"missing file": {"-snapshot", "testdata/nope.crow"},
		"p50 no value": {"-snapshot", fixturePath, "-q", "p50"},
	} {
		var stdout, stderr bytes.Buffer
		if err := run(context.Background(), args, &stdout, &stderr); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
