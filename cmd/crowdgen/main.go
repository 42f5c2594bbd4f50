// Command crowdgen generates a synthetic marketplace dataset and writes
// its instance log snapshot to disk.
//
// Usage:
//
//	crowdgen -seed 1701 -scale 0.02 -out marketplace.crow
//	crowdgen -verify-snapshot ...   # re-load and compare after writing
//
// Generation is deterministic in (seed, scale): tools that need the full
// inventory (batches, workers, HTML) regenerate it from the same
// parameters instead of deserializing it. Snapshots embed a provenance
// section (config hash, seed, tool) so downstream loads can check they
// are analyzing under the config that produced the rows.
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
	"crowdscope/internal/store"
	"crowdscope/internal/synth"
)

// toolVersion identifies this writer in snapshot provenance.
const toolVersion = "crowdgen/3"

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "crowdgen: %v\n", err)
		os.Exit(cli.ExitCode(err))
	}
}

// run is the testable entry point: it parses args, writes everything to
// the given writers, and returns instead of exiting.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("crowdgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Uint64("seed", 1701, "generation seed")
	scale := fs.Float64("scale", 0.02, "instance-volume scale in (0,1]; 1.0 ≈ 27M instances")
	workers := fs.Int("workers", 0, "generation goroutines (0 = GOMAXPROCS, 1 = serial) and, when set, the segment count; never changes the rows")
	out := fs.String("out", "marketplace.crow", "snapshot output path (with -shards: the manifest path; shards are written alongside)")
	shards := fs.Int("shards", 0, "split the snapshot into this many shard files plus a manifest (0 = single file)")
	verify := fs.Bool("verify-snapshot", false, "re-open the written snapshot, strict-load it, and compare column-for-column")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // usage already printed to stderr
		}
		return err
	}

	cfg := synth.Config{Seed: *seed, Scale: *scale, Parallelism: *workers}
	t0 := time.Now()
	ds := synth.Generate(cfg)
	genDur := time.Since(t0)

	prov := &store.Provenance{ConfigHash: cfg.Hash(), Seed: cfg.Seed, Tool: toolVersion}
	opts := store.WriteOptions{Provenance: prov, Workers: *workers}
	var n int64
	var man *store.Manifest
	if *shards > 0 {
		f, err := os.Create(*out)
		if err != nil {
			return fmt.Errorf("create %s: %w", *out, err)
		}
		defer f.Close()
		dir := filepath.Dir(*out)
		stem := strings.TrimSuffix(filepath.Base(*out), ".crow")
		man, err = ds.Store.WriteDataset(f, *shards, stem, func(name string) (io.WriteCloser, error) {
			return os.Create(filepath.Join(dir, name))
		}, opts)
		if err != nil {
			return fmt.Errorf("write dataset: %w", err)
		}
		n = man.TotalBytes()
	} else {
		f, err := os.Create(*out)
		if err != nil {
			return fmt.Errorf("create %s: %w", *out, err)
		}
		defer f.Close()
		if n, err = ds.Store.WriteSnapshot(f, opts); err != nil {
			return fmt.Errorf("write snapshot: %w", err)
		}
	}

	obs := ds.ObservedWorkers()
	fmt.Fprintf(stdout, "generated in %v\n", genDur.Round(time.Millisecond))
	fmt.Fprintf(stdout, "  batches:      %d (%d sampled)\n", len(ds.Batches), len(ds.SampledBatchIDs()))
	fmt.Fprintf(stdout, "  task types:   %d\n", len(ds.TaskTypes))
	fmt.Fprintf(stdout, "  workers:      %d observed (%d generated)\n", len(obs), len(ds.Workers))
	fmt.Fprintf(stdout, "  instances:    %d in %d segments\n", ds.Store.Len(), len(ds.Store.Segments()))
	if man != nil {
		fmt.Fprintf(stdout, "  dataset:      %s + %d shards (%.1f MB, %.2f bytes/row, config %016x)\n", *out, len(man.Shards), float64(n)/1e6, float64(n)/float64(ds.Store.Len()), prov.ConfigHash)
	} else {
		fmt.Fprintf(stdout, "  snapshot:     %s (%.1f MB, %.2f bytes/row, config %016x)\n", *out, float64(n)/1e6, float64(n)/float64(ds.Store.Len()), prov.ConfigHash)
	}
	if stats := ds.Store.CompressionStats(); stats != nil {
		var rawTot, encTot int64
		parts := make([]string, 0, len(stats))
		for _, c := range stats {
			rawTot += c.RawBytes
			encTot += c.EncodedBytes
			parts = append(parts, fmt.Sprintf("%s %.1fx", c.Name, c.Ratio()))
		}
		fmt.Fprintf(stdout, "  columns:      %.1f MB encoded from %.1f MB raw (%.2fx)\n",
			float64(encTot)/1e6, float64(rawTot)/1e6, float64(rawTot)/float64(encTot))
		fmt.Fprintf(stdout, "  compression:  %s\n", strings.Join(parts, ", "))
	}

	if *verify {
		t0 = time.Now()
		if err := verifyWritten(*out, ds.Store, *workers); err != nil {
			return fmt.Errorf("verify %s: %w", *out, err)
		}
		fmt.Fprintf(stdout, "  verified:     strict reload matches column-for-column (%v)\n", time.Since(t0).Round(time.Millisecond))
	}
	return nil
}

// verifyWritten strict-loads the written snapshot or dataset and
// compares it column-for-column against the in-memory store, exercising
// the full write→read path before the generator's output is trusted.
func verifyWritten(path string, want *store.Store, workers int) error {
	got, _, _, err := store.LoadPath(path, store.LoadOptions{Workers: workers})
	if err != nil {
		return err
	}
	return compareStores(got, want)
}

// compareStores checks the reloaded store matches the written one in
// every column, batch range and segment.
func compareStores(got, want *store.Store) error {
	if got.Len() != want.Len() || got.NumBatches() != want.NumBatches() {
		return fmt.Errorf("shape mismatch: %d rows/%d batches, wrote %d/%d", got.Len(), got.NumBatches(), want.Len(), want.NumBatches())
	}
	// Compare whole columns (one accessor call each) rather than
	// materializing rows one at a time.
	for _, c := range []struct {
		name     string
		got, ref any
	}{
		{"batch", got.Batches(), want.Batches()},
		{"tasktype", got.TaskTypes(), want.TaskTypes()},
		{"item", got.Items(), want.Items()},
		{"worker", got.Workers(), want.Workers()},
		{"start", got.Starts(), want.Starts()},
		{"end", got.Ends(), want.Ends()},
		{"trust", got.Trusts(), want.Trusts()},
		{"answer", got.Answers(), want.Answers()},
	} {
		if i := firstColumnDiff(c.got, c.ref); i >= 0 {
			return fmt.Errorf("column %s row %d differs after reload", c.name, i)
		}
	}
	for b := 0; b < want.NumBatches(); b++ {
		glo, ghi := got.BatchRange(uint32(b))
		wlo, whi := want.BatchRange(uint32(b))
		if glo != wlo || ghi != whi {
			return fmt.Errorf("batch %d range differs after reload", b)
		}
	}
	ws, gs := want.Segments(), got.Segments()
	if len(ws) != len(gs) {
		return fmt.Errorf("segment count differs after reload: %d vs %d", len(gs), len(ws))
	}
	for i := range ws {
		if ws[i] != gs[i] {
			return fmt.Errorf("segment %d differs after reload", i)
		}
	}
	return got.Validate()
}

// firstColumnDiff returns the first differing index of two same-typed
// column slices, or -1 when equal. Trust compares bit patterns, so the
// check is exact even for NaN payloads.
func firstColumnDiff(a, b any) int {
	switch av := a.(type) {
	case []uint32:
		bv := b.([]uint32)
		for i := range av {
			if av[i] != bv[i] {
				return i
			}
		}
	case []int64:
		bv := b.([]int64)
		for i := range av {
			if av[i] != bv[i] {
				return i
			}
		}
	case []float32:
		bv := b.([]float32)
		for i := range av {
			if math.Float32bits(av[i]) != math.Float32bits(bv[i]) {
				return i
			}
		}
	}
	return -1
}
