package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// fixtureManifest writes the big fixture store as a 3-shard dataset and
// returns the manifest plus its serialized bytes.
func fixtureManifest(t testing.TB) (*Manifest, []byte) {
	t.Helper()
	s := bigFixtureStore(t, 3, 120)
	fs := newMemFS()
	man := writeFixtureDataset(t, s, fs, 3)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return man, append([]byte(nil), fs.files["fix.crow"].Bytes()...)
}

func TestManifestRoundTrip(t *testing.T) {
	man, raw := fixtureManifest(t)
	got, n, err := ReadManifest(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("ReadManifest: %v", err)
	}
	if n != int64(len(raw)) {
		t.Fatalf("consumed %d of %d bytes", n, len(raw))
	}
	if got.NumBatches != man.NumBatches || len(got.Shards) != len(man.Shards) {
		t.Fatalf("shape: %d batches/%d shards, want %d/%d", got.NumBatches, len(got.Shards), man.NumBatches, len(man.Shards))
	}
	for i := range man.Shards {
		w, g := &man.Shards[i], &got.Shards[i]
		if w.Name != g.Name || w.Rows != g.Rows || w.BatchLo != g.BatchLo || w.BatchHi != g.BatchHi ||
			w.Segments != g.Segments || w.FileSize != g.FileSize {
			t.Fatalf("shard %d: %+v vs %+v", i, g, w)
		}
		if w.Zone.Rows != g.Zone.Rows || w.Zone.StartMin != g.Zone.StartMin || w.Zone.StartMax != g.Zone.StartMax ||
			w.Zone.WorkerMin != g.Zone.WorkerMin || w.Zone.WorkerMax != g.Zone.WorkerMax ||
			w.Zone.TrustMin != g.Zone.TrustMin || w.Zone.TrustMax != g.Zone.TrustMax {
			t.Fatalf("shard %d zone: %+v vs %+v", i, g.Zone, w.Zone)
		}
	}
}

func TestWriteManifestRejects(t *testing.T) {
	base, _ := fixtureManifest(t)
	mutate := func(fn func(*Manifest)) *Manifest {
		m := &Manifest{NumBatches: base.NumBatches, Shards: append([]ShardInfo(nil), base.Shards...)}
		fn(m)
		return m
	}
	cases := map[string]*Manifest{
		"slash in name":       mutate(func(m *Manifest) { m.Shards[0].Name = "../escape.crow" }),
		"empty name":          mutate(func(m *Manifest) { m.Shards[1].Name = "" }),
		"overlapping batches": mutate(func(m *Manifest) { m.Shards[1].BatchLo = m.Shards[0].BatchLo }),
		"batch out of range":  mutate(func(m *Manifest) { m.Shards[2].BatchHi = uint32(m.NumBatches) + 1 }),
		"zone rows mismatch":  mutate(func(m *Manifest) { m.Shards[0].Zone.Rows++ }),
		"negative rows":       mutate(func(m *Manifest) { m.Shards[0].Rows = -1 }),
		"rows without segs":   mutate(func(m *Manifest) { m.Shards[0].Segments = 0 }),
	}
	for name, m := range cases {
		if _, err := writeManifest(&bytes.Buffer{}, m); err == nil {
			t.Errorf("%s: writeManifest accepted it", name)
		}
	}
	if _, err := writeManifest(&bytes.Buffer{}, base); err != nil {
		t.Fatalf("valid manifest rejected: %v", err)
	}
}

func TestReadManifestRejects(t *testing.T) {
	_, raw := fixtureManifest(t)
	load := func(data []byte) error {
		_, _, err := ReadManifest(bytes.NewReader(data))
		return err
	}
	t.Run("magic", func(t *testing.T) {
		bad := append([]byte(nil), raw...)
		bad[0] ^= 0xFF
		if err := load(bad); !errors.Is(err, ErrBadMagic) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("version", func(t *testing.T) {
		bad := append([]byte(nil), raw...)
		bad[4] = 99
		if err := load(bad); !errors.Is(err, ErrBadVersion) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		for _, cut := range []int{1, 8, len(raw) / 2, len(raw) - 1} {
			if err := load(raw[:cut]); err == nil {
				t.Fatalf("accepted %d-byte prefix", cut)
			}
		}
	})
	t.Run("payload bitflip", func(t *testing.T) {
		for _, off := range []int{20, len(raw) / 2, len(raw) - 3} {
			bad := append([]byte(nil), raw...)
			bad[off] ^= 0x40
			if err := load(bad); err == nil {
				t.Fatalf("accepted bit flip at %d", off)
			}
		}
	})
	t.Run("valid", func(t *testing.T) {
		if err := load(raw); err != nil {
			t.Fatalf("valid manifest rejected: %v", err)
		}
	})
}

func TestMergeShardZones(t *testing.T) {
	z1 := ZoneMap{
		Rows: 10, TaskTypeMin: 1, TaskTypeMax: 3, ItemMin: 0, ItemMax: 5,
		WorkerMin: 2, WorkerMax: 9, AnswerMin: 100, AnswerMax: 200,
		StartMin: 1000, StartMax: 2000, EndMin: 1100, EndMax: 2100,
		TrustMin: 0.25, TrustMax: 0.75,
		TaskTypes: []uint32{1, 3}, Answers: []uint32{100, 200},
	}
	z2 := ZoneMap{
		Rows: 5, TaskTypeMin: 2, TaskTypeMax: 4, ItemMin: 3, ItemMax: 8,
		WorkerMin: 1, WorkerMax: 4, AnswerMin: 50, AnswerMax: 150,
		StartMin: 500, StartMax: 1500, EndMin: 600, EndMax: 1600,
		TrustMin: 0.5, TrustMax: 1.0,
		TaskTypes: []uint32{2, 4}, Answers: []uint32{50, 150},
	}
	got := MergeZoneMaps([]ZoneMap{z1, z2})
	if got.Rows != 15 {
		t.Fatalf("rows %d", got.Rows)
	}
	if got.TaskTypeMin != 1 || got.TaskTypeMax != 4 || got.StartMin != 500 || got.StartMax != 2000 ||
		got.TrustMin != 0.25 || got.TrustMax != 1.0 || got.WorkerMin != 1 || got.WorkerMax != 9 {
		t.Fatalf("bounds: %+v", got)
	}
	wantTT := []uint32{1, 2, 3, 4}
	if len(got.TaskTypes) != len(wantTT) {
		t.Fatalf("tasktypes %v", got.TaskTypes)
	}
	for i, v := range wantTT {
		if got.TaskTypes[i] != v {
			t.Fatalf("tasktypes %v", got.TaskTypes)
		}
	}

	// A contributor without a set poisons the union but not the bounds.
	z2.TaskTypes = nil
	got = MergeZoneMaps([]ZoneMap{z1, z2})
	if got.TaskTypes != nil {
		t.Fatalf("union survived a nil contributor: %v", got.TaskTypes)
	}
	if got.TaskTypeMin != 1 || got.TaskTypeMax != 4 {
		t.Fatalf("bounds after nil set: %+v", got)
	}

	// Zero-row zones contribute nothing.
	got = MergeZoneMaps([]ZoneMap{{}, z1})
	if got.Rows != 10 || got.StartMin != 1000 {
		t.Fatalf("zero-row merge: %+v", got)
	}
}

// FuzzReadManifest drives the manifest decoder with arbitrary bytes; the
// committed corpus (regenerated with -update-fixtures) holds a valid
// manifest plus truncated and bit-flipped variants. The decoder must
// never panic, and whatever it accepts must pass validation and
// re-serialize.
func FuzzReadManifest(f *testing.F) {
	s := bigFixtureStore(f, 3, 120)
	fs := newMemFS()
	var manBuf bytes.Buffer
	if _, err := s.WriteDataset(&manBuf, 3, "fix", fs.create, WriteOptions{Workers: 1}); err != nil {
		f.Fatal(err)
	}
	raw := manBuf.Bytes()
	for _, seed := range manifestCorpus(raw) {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		man, _, err := ReadManifest(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Accepted manifests are structurally valid and writable.
		if err := man.validate(); err != nil {
			t.Fatalf("accepted manifest fails validation: %v", err)
		}
		if _, err := writeManifest(&bytes.Buffer{}, man); err != nil {
			t.Fatalf("accepted manifest does not re-serialize: %v", err)
		}
	})
}

// manifestCorpus derives the committed fuzz seeds from a valid manifest.
func manifestCorpus(raw []byte) [][]byte {
	seeds := [][]byte{
		append([]byte(nil), raw...),
		append([]byte(nil), raw[:len(raw)/3]...),
		append([]byte(nil), raw[:len(raw)-2]...),
		[]byte("not a manifest at all"),
		{},
	}
	for _, off := range []int{0, 5, 12, len(raw) / 2, len(raw) - 4} {
		flip := append([]byte(nil), raw...)
		flip[off] ^= 0x40
		seeds = append(seeds, flip)
	}
	return seeds
}

// TestManifestFuzzCorpus rewrites the committed FuzzReadManifest corpus
// when -update-fixtures is set.
func TestManifestFuzzCorpus(t *testing.T) {
	if !*updateFixtures {
		t.Skip("corpus committed; run with -update-fixtures to regenerate")
	}
	_, raw := fixtureManifest(t)
	dir := filepath.Join("testdata", "fuzz", "FuzzReadManifest")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, seed := range manifestCorpus(raw) {
		entry := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed)
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("seed_manifest_%d", i)), []byte(entry), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
