package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"crowdscope/internal/store"
	"crowdscope/internal/synth"
)

// TestListExperiments: -list enumerates the paper artifacts without
// generating anything.
func TestListExperiments(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-list"}, &stdout, &stderr); err != nil {
		t.Fatalf("run -list: %v", err)
	}
	out := stdout.String()
	for _, id := range []string{"fig1", "fig5b", "fig29", "tab4", "sec49"} {
		if !strings.Contains(out, id) {
			t.Errorf("-list output missing %s:\n%s", id, out)
		}
	}
	if strings.Count(out, "\n") < 20 {
		t.Errorf("-list shows only %d lines", strings.Count(out, "\n"))
	}
}

func TestUnknownExperiment(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{"-run", "nope"}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Fatalf("err = %v, want unknown experiment", err)
	}
}

func TestBadFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-bogus"}, &stdout, &stderr); err == nil {
		t.Fatal("bad flag accepted")
	}
}

func TestMissingSnapshot(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-snapshot", "testdata/nope.crow"}, &stdout, &stderr); err == nil {
		t.Fatal("missing snapshot accepted")
	}
}

// TestReproFromShardedDataset: -snapshot accepts the manifest of a
// sharded dataset (what `crowdgen -shards` writes) and reproduces exactly
// what the single-file snapshot of the same log does.
func TestReproFromShardedDataset(t *testing.T) {
	cfg := synth.Config{Seed: 7, Scale: 0.002, Parallelism: 4}
	ds := synth.Generate(cfg)
	opts := store.WriteOptions{Provenance: &store.Provenance{ConfigHash: cfg.Hash(), Seed: cfg.Seed, Tool: "test"}}
	dir := t.TempDir()
	create := func(name string) (io.WriteCloser, error) { return os.Create(filepath.Join(dir, name)) }

	single, err := create("one.crow")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ds.Store.WriteSnapshot(single, opts); err != nil {
		t.Fatal(err)
	}
	single.Close()
	manifest, err := create("mp.crow")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ds.Store.WriteDataset(manifest, 4, "mp", create, opts); err != nil {
		t.Fatal(err)
	}
	manifest.Close()

	// Everything below the load and clustering timings is the reproduction.
	repro := func(name string) string {
		var stdout, stderr bytes.Buffer
		path := filepath.Join(dir, name)
		if err := run([]string{"-seed", "7", "-scale", "0.002", "-snapshot", path, "-run", "fig3,tab1"}, &stdout, &stderr); err != nil {
			t.Fatalf("run -snapshot %s: %v\n%s", name, err, stderr.String())
		}
		out := stdout.String()
		i := strings.Index(out, "====")
		if i < 0 {
			t.Fatalf("-snapshot %s: no experiment output:\n%s", name, out)
		}
		return out[i:]
	}
	if one, mp := repro("one.crow"), repro("mp.crow"); one != mp {
		t.Fatalf("sharded dataset reproduces differently from the single file:\n--- single\n%s\n--- sharded\n%s", one, mp)
	}
}
