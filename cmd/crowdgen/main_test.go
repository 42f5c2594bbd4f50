package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"crowdscope/internal/store"
	"crowdscope/internal/synth"
)

// chainSeed/chainScale are the tiny generation parameters the CLI e2e
// tests share: crowdgen's golden test below pins the snapshot bytes this
// config produces, and the crowdstats/crowdquery tests consume the same
// snapshot — together they golden-test the crowdgen → crowdstats →
// crowdquery chain.
const (
	chainSeed  = 1701
	chainScale = 0.001
)

// TestRunWritesVerifiedSnapshot: the full CLI path — generate, write,
// strict-reload, column-compare — against a temp file, with the output
// byte-identical to a direct synth.Generate + WriteSnapshot (what the
// downstream CLI tests rebuild).
func TestRunWritesVerifiedSnapshot(t *testing.T) {
	out := filepath.Join(t.TempDir(), "tiny.crow")
	var stdout, stderr bytes.Buffer
	err := run([]string{"-seed", "1701", "-scale", "0.001", "-workers", "4", "-out", out, "-verify-snapshot"}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, stderr.String())
	}
	for _, want := range []string{"instances:", "segments", "verified:     strict reload matches column-for-column",
		"columns:", "compression:  batch "} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("output missing %q:\n%s", want, stdout.String())
		}
	}
	// The compression report must cover every column of the log.
	for _, col := range []string{"batch", "tasktype", "item", "worker", "start", "end", "trust", "answer"} {
		if !strings.Contains(stdout.String(), col+" ") {
			t.Errorf("compression report missing column %q:\n%s", col, stdout.String())
		}
	}

	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	cfg := synth.Config{Seed: chainSeed, Scale: chainScale, Parallelism: 4}
	ds := synth.Generate(cfg)
	var want bytes.Buffer
	prov := &store.Provenance{ConfigHash: cfg.Hash(), Seed: cfg.Seed, Tool: toolVersion}
	if _, err := ds.Store.WriteSnapshot(&want, store.WriteOptions{Provenance: prov, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("crowdgen snapshot (%d bytes) differs from direct synth+WriteSnapshot (%d bytes)", len(got), want.Len())
	}

	// The snapshot reloads with provenance and zone maps intact.
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var st store.Store
	rep, err := st.ReadSnapshot(f, store.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Provenance == nil || rep.Provenance.Tool != toolVersion || rep.Provenance.Seed != chainSeed {
		t.Errorf("provenance = %+v", rep.Provenance)
	}
	if len(st.Segments()) != 4 {
		t.Errorf("segments = %d, want 4 (generated with -workers 4)", len(st.Segments()))
	}
}

// TestHelpExitsClean: -h prints usage and succeeds (exit 0).
func TestHelpExitsClean(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-h"}, &stdout, &stderr); err != nil {
		t.Fatalf("-h returned %v", err)
	}
	if !strings.Contains(stderr.String(), "Usage of crowdgen") {
		t.Errorf("usage not printed: %s", stderr.String())
	}
}

func TestRunBadFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-bogus"}, &stdout, &stderr); err == nil {
		t.Fatal("bad flag accepted")
	}
	if !strings.Contains(stderr.String(), "Usage of crowdgen") {
		t.Errorf("usage not printed to stderr: %s", stderr.String())
	}
}

func TestRunUnwritableOut(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{"-scale", "0.001", "-out", filepath.Join(t.TempDir(), "no", "such", "dir.crow")}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "create") {
		t.Fatalf("err = %v, want create failure", err)
	}
}
