package store

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"crowdscope/internal/model"
)

var updateFixtures = flag.Bool("update-fixtures", false,
	"rewrite the committed snapshot fixture and fuzz corpus under testdata/")

// fixtureStore builds the deterministic assembled store the committed
// fixtures pin: three segments over eight batches, with empty batches,
// a skipped batch range, and an empty segment interval.
func fixtureStore(t testing.TB) *Store {
	t.Helper()
	fill := func(b *Builder, batch uint32, rows int) {
		b.BeginBatch(batch)
		for i := 0; i < rows; i++ {
			start := int64(1_400_000_000) + int64(batch)*86400 + int64(i)*300
			b.Append(model.Instance{
				Batch:    batch,
				TaskType: batch % 5,
				Item:     uint32(i),
				Worker:   (batch*13 + uint32(i)*7) % 50,
				Start:    start,
				End:      start + 40 + int64(i%7)*11,
				Trust:    float32((batch*7+uint32(i)*3)%16) / 16,
				Answer:   batch*1000 + uint32(i),
			})
		}
	}
	a := NewBuilder(0, 3)
	fill(a, 0, 4)
	fill(a, 2, 3)
	b := NewBuilder(3, 3) // sealed empty interval: segments may outnumber batches' worth of rows
	c := NewBuilder(3, 8)
	fill(c, 3, 2)
	fill(c, 5, 5)
	s, err := Assemble(8, []*Segment{a.Seal(), b.Seal(), c.Seal()})
	if err != nil {
		t.Fatalf("fixture Assemble: %v", err)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("fixture store invalid: %v", err)
	}
	return s
}

func fixtureProvenance() *Provenance {
	return &Provenance{ConfigHash: 0x1122334455667788, Seed: 1701, Tool: "crowdscope-fixture/3"}
}

// fixtureName is the one committed snapshot fixture: the fixture store in
// the (only) snapshot layout.
const fixtureName = "snapshot_v3c.crow"

// fixtureBytes renders the fixture store as a snapshot.
func fixtureBytes(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := fixtureStore(t).WriteSnapshot(&buf, WriteOptions{Provenance: fixtureProvenance(), Workers: 1}); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	return buf.Bytes()
}

// TestSnapshotGoldenLayout pins the snapshot byte layout to the committed
// fixture: any codec change that reorders sections, changes framing, or
// alters column encoding fails here instead of silently forking formats.
func TestSnapshotGoldenLayout(t *testing.T) {
	got := fixtureBytes(t)
	if *updateFixtures {
		writeFixtures(t, got)
	}
	want, err := os.ReadFile(filepath.Join("testdata", fixtureName))
	if err != nil {
		t.Fatalf("read golden (run `go test ./internal/store -run TestSnapshotGoldenLayout -update-fixtures` to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s byte layout changed: got %d bytes, golden %d bytes; if intentional, bump the format version and regenerate fixtures",
			fixtureName, len(got), len(want))
	}
}

// retiredLayouts renders a one-row, one-batch store in each layout this
// package once wrote and no longer reads, keyed by the name of the
// fixture that used to pin it: the monolithic v1 and v2 streams, the
// version-3 varint-block layout without and with a zone-map section, and
// the encoded layout with a batch range section (its head only: the reader
// refuses it at the meta flags).
func retiredLayouts() map[string][]byte {
	// One row: batch 0, task type 2, item 0, worker 7, start 100 (zig-zag
	// delta 200), end offset 60, trust 0.5, answer 9; batch range [0,1).
	cols := []byte{0, 2, 0, 7, 0xC8, 0x01, 60, 0, 0, 0, 0x3F, 9}
	legacy := func(version byte, tail ...byte) []byte {
		hdr := []byte{'W', 'O', 'R', 'C', version, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0}
		return append(append(append(hdr, cols...), 0, 1), tail...)
	}
	v3 := func(flags byte, zones []byte) []byte {
		var buf bytes.Buffer
		cw := &countingWriter{w: &buf}
		cw.Write([]byte{'W', 'O', 'R', 'C', 3, 0, 0, 0})
		writeSection(cw, secMeta, []byte{1, 1, 0, 1, flags}) // rows, batches, segments, blocks, flags
		writeSection(cw, secSegments, nil)
		writeSection(cw, 0x04, []byte{0, 1}) // batch ranges
		if zones != nil {
			writeSection(cw, secZones, zones)
		}
		writeSection(cw, 0x05, append([]byte{0, 1}, cols...)) // varint block: row lo, count, columns
		return buf.Bytes()
	}
	var ranged bytes.Buffer
	cw := &countingWriter{w: &ranged}
	cw.Write([]byte{'W', 'O', 'R', 'C', 3, 0, 0, 0})
	writeSection(cw, secMeta, []byte{1, 1, 1, 1, metaFlagEncoded | metaFlagFooter})
	writeSection(cw, secSegments, []byte{0, 1, 0, 1})
	writeSection(cw, 0x04, []byte{0, 1})
	return map[string][]byte{
		"snapshot_v3c_ranges.crow": ranged.Bytes(),
		"snapshot_v1.crow":         legacy(1),
		"snapshot_v2.crow":         legacy(2, 1, 0, 1, 0, 1), // one segment: rows [0,1), batches [0,1)
		"snapshot_v3.crow":         v3(0, nil),
		"snapshot_v3z.crow":        v3(metaFlagZoneMaps, []byte{}),
	}
}

// TestSnapshotBackwardCompat pins what happens to every layout a build of
// this package has ever written. The committed fixture of the one layout
// still written loads column-for-column as the fixture store. Files in a
// retired layout are refused as an unsupported version — strictly and in
// repair mode — and leave the receiving store untouched.
func TestSnapshotBackwardCompat(t *testing.T) {
	t.Run(fixtureName, func(t *testing.T) {
		raw, err := os.ReadFile(filepath.Join("testdata", fixtureName))
		if err != nil {
			t.Fatalf("read fixture: %v", err)
		}
		want := fixtureStore(t)
		var got Store
		rep, err := got.ReadSnapshot(bytes.NewReader(raw), LoadOptions{})
		if err != nil {
			t.Fatalf("load: %v", err)
		}
		if rep.Version != snapshotVersion || rep.Bytes != int64(len(raw)) {
			t.Errorf("report: version %d, consumed %d of %d bytes", rep.Version, rep.Bytes, len(raw))
		}
		if rep.Provenance == nil || *rep.Provenance != *fixtureProvenance() {
			t.Errorf("provenance = %+v, want %+v", rep.Provenance, fixtureProvenance())
		}
		if len(got.zones) != len(want.Segments()) || len(got.encs) != len(want.Segments()) {
			t.Errorf("loaded %d zone maps, %d segment encodings for %d segments", len(got.zones), len(got.encs), len(want.Segments()))
		}
		compareStores(t, want, &got, true)
		if err := got.Validate(); err != nil {
			t.Errorf("loaded store invalid: %v", err)
		}
	})
	for name, raw := range retiredLayouts() {
		raw := raw
		t.Run(name, func(t *testing.T) {
			for _, mode := range []LoadMode{LoadStrict, LoadRepair} {
				s := sampleStore()
				rep, err := s.ReadSnapshot(bytes.NewReader(raw), LoadOptions{Mode: mode})
				if !errors.Is(err, ErrBadVersion) {
					t.Errorf("mode %d: err = %v, want ErrBadVersion", mode, err)
				}
				if rep.Rows != 0 || len(rep.Damaged) != 0 {
					t.Errorf("mode %d: report claims a load: %+v", mode, rep)
				}
				compareStores(t, sampleStore(), s, false)
			}
		})
	}
}

// compareStores checks every column, the batch range table, and (when
// withSegs) the segment table for equality.
func compareStores(t *testing.T, want, got *Store, withSegs bool) {
	t.Helper()
	if got.Len() != want.Len() || got.NumBatches() != want.NumBatches() {
		t.Fatalf("shape: %d rows/%d batches, want %d/%d", got.Len(), got.NumBatches(), want.Len(), want.NumBatches())
	}
	for i := 0; i < want.Len(); i++ {
		if want.Row(i) != got.Row(i) {
			t.Fatalf("row %d differs: %+v vs %+v", i, want.Row(i), got.Row(i))
		}
	}
	for b := 0; b < want.NumBatches(); b++ {
		alo, ahi := want.BatchRange(uint32(b))
		blo, bhi := got.BatchRange(uint32(b))
		if alo != blo || ahi != bhi {
			t.Fatalf("batch %d range [%d,%d) vs [%d,%d)", b, alo, ahi, blo, bhi)
		}
	}
	if withSegs {
		if len(got.Segments()) != len(want.Segments()) {
			t.Fatalf("segments %d vs %d", len(got.Segments()), len(want.Segments()))
		}
		for i, si := range want.Segments() {
			if got.Segments()[i] != si {
				t.Fatalf("segment %d differs: %+v vs %+v", i, got.Segments()[i], si)
			}
		}
	}
}

// writeFixtures rewrites the committed fixture and the fuzz corpus derived
// from it. The corpus also holds seeds of the retired layouts (seed_v1,
// seed_v2, seed_v3*, seed_v3z*, seed_v3r*): frozen bytes no code can
// regenerate, kept as inputs the reader must reject cleanly.
func writeFixtures(t *testing.T, v3c []byte) {
	t.Helper()
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join("testdata", fixtureName), v3c, 0o644); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzReadFrom")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	corpus := map[string][]byte{
		"seed_v3c":           v3c,
		"seed_v3c_truncated": v3c[:2*len(v3c)/3],
		"seed_garbage":       []byte("not a snapshot at all"),
	}
	for i, off := range []int{9, len(v3c) / 3, len(v3c) / 2, len(v3c) - 5} {
		flip := append([]byte(nil), v3c...)
		flip[off] ^= 0x40
		corpus[fmt.Sprintf("seed_v3c_bitflip_%d", i)] = flip
	}
	for name, data := range corpus {
		entry := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(entry), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Committed corpus for the encoded-block reader: the valid payload of
	// each non-empty fixture segment plus truncated and bit-flipped forms.
	blockDir := filepath.Join("testdata", "fuzz", "FuzzDecodeColumnBlock")
	if err := os.MkdirAll(blockDir, 0o755); err != nil {
		t.Fatal(err)
	}
	s := fixtureStore(t)
	encs := s.encodings()
	blockCorpus := map[string][]byte{"seed_garbage": []byte("not a block at all")}
	bi := 0
	for i, si := range s.Segments() {
		if si.Rows() == 0 {
			continue
		}
		var buf bytes.Buffer
		serializeEncBlock(&buf, &encs[i])
		raw := buf.Bytes()
		blockCorpus[fmt.Sprintf("seed_block_%d", bi)] = append([]byte(nil), raw...)
		blockCorpus[fmt.Sprintf("seed_block_%d_truncated", bi)] = append([]byte(nil), raw[:len(raw)/2]...)
		for j, off := range []int{0, 2, len(raw) / 3, len(raw) - 3} {
			flip := append([]byte(nil), raw...)
			flip[off] ^= 0x40
			blockCorpus[fmt.Sprintf("seed_block_%d_bitflip_%d", bi, j)] = flip
		}
		bi++
	}
	for name, data := range blockCorpus {
		entry := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(filepath.Join(blockDir, name), []byte(entry), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
