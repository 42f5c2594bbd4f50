package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"strings"
	"testing"

	"crowdscope/internal/model"
)

// manySegmentStore assembles a store whose segment count exceeds its
// batch count via legal empty batch intervals — the shape the old
// `ns > numBatches+1` sanity bound wrongly rejected.
func manySegmentStore(t testing.TB) *Store {
	t.Helper()
	one := NewBuilder(0, 1)
	one.BeginBatch(0)
	one.Append(model.Instance{Batch: 0, Start: 100, End: 160, Trust: 0.5, Answer: 9})
	one.Append(model.Instance{Batch: 0, Worker: 3, Start: 130, End: 150, Trust: 0.25, Answer: 7})
	s, err := Assemble(1, []*Segment{
		NewBuilder(0, 0).Seal(),
		one.Seal(),
		NewBuilder(1, 1).Seal(),
		NewBuilder(1, 1).Seal(),
		NewBuilder(1, 1).Seal(),
	})
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("store invalid: %v", err)
	}
	return s
}

// TestSnapshotMoreSegmentsThanBatches is the ROADMAP regression: a
// Validate()-clean store with more segments than batches must round-trip
// column-for-column through WriteTo/ReadFrom.
func TestSnapshotMoreSegmentsThanBatches(t *testing.T) {
	s := manySegmentStore(t)
	if len(s.Segments()) <= s.NumBatches()+1 {
		t.Fatalf("fixture too tame: %d segments for %d batches", len(s.Segments()), s.NumBatches())
	}
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	var back Store
	if _, err := back.ReadFrom(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("ReadFrom: %v", err)
	}
	compareStores(t, s, &back, true)
	if err := back.Validate(); err != nil {
		t.Fatalf("restored store invalid: %v", err)
	}
	// Byte-exact second trip: encode the loaded store again.
	var again bytes.Buffer
	if _, err := back.WriteTo(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Error("second round trip not byte-identical")
	}
}

// rawSection locates one framed section inside serialized v3 bytes.
type rawSection struct {
	kind       byte
	start      int // offset of the 9-byte section header
	payloadOff int
	payloadLen int
}

func parseSections(t *testing.T, raw []byte) []rawSection {
	t.Helper()
	var out []rawSection
	pos := 8
	for pos < len(raw) {
		if len(raw)-pos == footerTrailerLen &&
			binary.LittleEndian.Uint32(raw[len(raw)-4:]) == footerMagic {
			break // footer trailer, not a section
		}
		if pos+9 > len(raw) {
			t.Fatalf("dangling section header at %d", pos)
		}
		length := int(binary.LittleEndian.Uint32(raw[pos+1 : pos+5]))
		out = append(out, rawSection{kind: raw[pos], start: pos, payloadOff: pos + 9, payloadLen: length})
		pos += 9 + length
	}
	return out
}

func findSection(t *testing.T, secs []rawSection, kind byte, nth int) rawSection {
	t.Helper()
	for _, s := range secs {
		if s.kind == kind {
			if nth == 0 {
				return s
			}
			nth--
		}
	}
	t.Fatalf("section kind 0x%02x #%d not found", kind, nth)
	return rawSection{}
}

// refreshCRC recomputes a section's checksum after its payload was
// deliberately mutated, so the corruption reaches the decoder.
func refreshCRC(raw []byte, sec rawSection) {
	crc := crc32.ChecksumIEEE(raw[sec.payloadOff : sec.payloadOff+sec.payloadLen])
	binary.LittleEndian.PutUint32(raw[sec.start+5:sec.start+9], crc)
}

func snapshotV3(t testing.TB, s *Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := s.WriteSnapshot(&buf, WriteOptions{Provenance: fixtureProvenance(), Workers: 1}); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	return buf.Bytes()
}

// TestSnapshotErrorSentinels: every failure class is distinguishable with
// errors.Is and names the section it occurred in.
func TestSnapshotErrorSentinels(t *testing.T) {
	s := fixtureStore(t)
	raw := snapshotV3(t, s)
	secs := parseSections(t, raw)

	load := func(data []byte) error {
		var back Store
		_, err := back.ReadFrom(bytes.NewReader(data))
		return err
	}

	t.Run("magic", func(t *testing.T) {
		err := load([]byte("XXXXXXXXXXXXXXXX"))
		if !errors.Is(err, ErrBadMagic) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("version", func(t *testing.T) {
		bad := append([]byte(nil), raw...)
		binary.LittleEndian.PutUint32(bad[4:8], 99)
		err := load(bad)
		if !errors.Is(err, ErrBadVersion) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		err := load(raw[:len(raw)-10])
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("err = %v", err)
		}
		// An encoded snapshot now ends with the footer trailer, so a
		// 10-byte cut lands there.
		if !strings.Contains(err.Error(), "footer") {
			t.Errorf("error does not name the section: %v", err)
		}
		if err := load(nil); !errors.Is(err, ErrTruncated) {
			t.Errorf("empty input: %v", err)
		}
	})
	t.Run("checksum", func(t *testing.T) {
		bad := append([]byte(nil), raw...)
		seg := findSection(t, secs, secSegments, 0)
		bad[seg.payloadOff] ^= 0xFF
		err := load(bad)
		if !errors.Is(err, ErrChecksum) {
			t.Fatalf("err = %v", err)
		}
		if !strings.Contains(err.Error(), "segment table") {
			t.Errorf("error does not name the section: %v", err)
		}
		if errors.Is(err, ErrTruncated) || errors.Is(err, ErrCorrupt) {
			t.Errorf("checksum error matches the wrong sentinel: %v", err)
		}
	})
	t.Run("corrupt", func(t *testing.T) {
		// Inflate the row count in meta (CRC refreshed): the segment
		// table no longer covers all rows.
		bad := append([]byte(nil), raw...)
		meta := findSection(t, secs, secMeta, 0)
		if bad[meta.payloadOff] != byte(s.Len()) {
			t.Fatalf("fixture row count no longer a one-byte varint")
		}
		bad[meta.payloadOff]++
		refreshCRC(bad, meta)
		err := load(bad)
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v", err)
		}
	})
}

func TestSnapshotProvenanceRoundTrip(t *testing.T) {
	s := fixtureStore(t)
	var buf bytes.Buffer
	prov := &Provenance{ConfigHash: 42, Seed: 7, Tool: "unit-test/1"}
	if _, err := s.WriteSnapshot(&buf, WriteOptions{Provenance: prov}); err != nil {
		t.Fatal(err)
	}
	var back Store
	rep, err := back.ReadSnapshot(bytes.NewReader(buf.Bytes()), LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Provenance == nil || *rep.Provenance != *prov {
		t.Errorf("provenance = %+v, want %+v", rep.Provenance, prov)
	}
	if rep.Rows != s.Len() {
		t.Errorf("report rows = %d, want %d", rep.Rows, s.Len())
	}

	// WriteTo embeds none, and the loader reports none.
	buf.Reset()
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	var back2 Store
	rep, err = back2.ReadSnapshot(bytes.NewReader(buf.Bytes()), LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Provenance != nil {
		t.Errorf("unexpected provenance %+v", rep.Provenance)
	}
}

// TestSnapshotRepairChecksumDamage: a bit-flipped column block fails
// strict load with a precise error, while repair mode recovers every
// undamaged row, zero-fills the damaged span, rebuilds its batch column
// from the range table, and reports exactly what it lost.
func TestSnapshotRepairChecksumDamage(t *testing.T) {
	s := fixtureStore(t)
	raw := snapshotV3(t, s)
	secs := parseSections(t, raw)
	// The fixture spans two encoded column blocks, one per non-empty
	// segment (rows 7 + 0 + 7).
	block1 := findSection(t, secs, secEncBlock, 1)
	bad := append([]byte(nil), raw...)
	bad[block1.payloadOff+5] ^= 0x10 // inside the columns, past the row header

	var strict Store
	_, err := strict.ReadFrom(bytes.NewReader(bad))
	if !errors.Is(err, ErrChecksum) || !strings.Contains(err.Error(), "column block 1") {
		t.Fatalf("strict err = %v", err)
	}
	if strict.Len() != 0 || strict.NumBatches() != 0 {
		t.Fatal("strict load populated the store despite failing")
	}

	var rep Store
	report, err := rep.ReadSnapshot(bytes.NewReader(bad), LoadOptions{Mode: LoadRepair})
	if err != nil {
		t.Fatalf("repair: %v", err)
	}
	if len(report.Damaged) != 1 || report.Damaged[0] != "column block 1" {
		t.Fatalf("damaged = %v", report.Damaged)
	}
	if rep.Len() != s.Len() || len(rep.Segments()) != len(s.Segments()) {
		t.Fatalf("repair shape: %d rows, %d segments", rep.Len(), len(rep.Segments()))
	}
	// Rows of block 0 survive; rows of block 1 are zeroed except the
	// rebuilt batch IDs.
	for i := 0; i < 7; i++ {
		if rep.Row(i) != s.Row(i) {
			t.Errorf("undamaged row %d differs: %+v", i, rep.Row(i))
		}
	}
	for i := 7; i < s.Len(); i++ {
		got := rep.Row(i)
		if got.Batch != s.Row(i).Batch {
			t.Errorf("row %d batch = %d, want %d", i, got.Batch, s.Row(i).Batch)
		}
		if got.Start != 0 || got.End != 0 || got.Trust != 0 || got.Answer != 0 || got.Worker != 0 {
			t.Errorf("row %d not zero-filled: %+v", i, got)
		}
	}
	if err := rep.Validate(); err != nil {
		t.Fatalf("repaired store invalid: %v", err)
	}
	if report.Provenance == nil {
		t.Error("repair lost the provenance section")
	}

	// Damage under a valid section checksum reaches the block decoder
	// instead of the CRC check (here: an unknown column code right after
	// the one-byte row count): strict names the block as corrupt, repair
	// treats it exactly like checksum damage.
	bad = append([]byte(nil), raw...)
	bad[block1.payloadOff+1] = 0x7F
	refreshCRC(bad, block1)
	var strict2 Store
	if _, err := strict2.ReadFrom(bytes.NewReader(bad)); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "column block 1") {
		t.Fatalf("strict err on an undecodable block = %v", err)
	}
	var rep2 Store
	report, err = rep2.ReadSnapshot(bytes.NewReader(bad), LoadOptions{Mode: LoadRepair})
	if err != nil || len(report.Damaged) != 1 || report.Damaged[0] != "column block 1" {
		t.Fatalf("repair of an undecodable block: damaged = %v, err = %v", report.Damaged, err)
	}
	compareStores(t, &rep, &rep2, true)
}

// TestSnapshotRepairCompressedBlockZones: repairing a snapshot whose
// compressed column block is damaged must zero-fill the block's rows AND
// recompute zone maps from the repaired data — the persisted zone-map
// section still describes the original values, so trusting it would let
// pruning skip (or fail to skip) the zero-filled span. Mirrors PR 4's
// zone-map repair case for the encoded-block path.
func TestSnapshotRepairCompressedBlockZones(t *testing.T) {
	s := fixtureStore(t)
	raw := snapshotV3(t, s)
	secs := parseSections(t, raw)
	if findSection(t, secs, secZones, 0).payloadLen == 0 {
		t.Fatal("fixture snapshot carries no zone-map section")
	}
	block1 := findSection(t, secs, secEncBlock, 1)
	bad := append([]byte(nil), raw...)
	bad[block1.payloadOff+7] ^= 0x04

	var rep Store
	report, err := rep.ReadSnapshot(bytes.NewReader(bad), LoadOptions{Mode: LoadRepair})
	if err != nil {
		t.Fatalf("repair: %v", err)
	}
	if len(report.Damaged) != 1 || report.Damaged[0] != "column block 1" {
		t.Fatalf("damaged = %v", report.Damaged)
	}
	// The repaired store must not have trusted the encoded block: no
	// segment encodings survive a repair load.
	if rep.SegmentEncodings() != nil {
		t.Error("repair mode kept segment encodings from a damaged snapshot")
	}
	// Zone maps are recomputed from the zero-filled data, not loaded: the
	// damaged segment's zone must describe zeros, while the persisted
	// zones (still intact in the file) describe the original values.
	zones := rep.ZoneMaps()
	segs := rep.Segments()
	origZones := s.ZoneMaps()
	for i, si := range segs {
		if si.Rows() == 0 {
			continue
		}
		z := zones[i]
		if si.RowLo >= 7 { // rows of the damaged block
			if z.StartMin != 0 || z.StartMax != 0 || z.WorkerMax != 0 || z.TrustMax != 0 {
				t.Errorf("segment %d zone not recomputed from zero-fill: %+v", i, z)
			}
			if origZones[i].StartMax == 0 {
				t.Errorf("fixture segment %d had no nonzero data to lose", i)
			}
		} else if z.StartMax == 0 {
			t.Errorf("undamaged segment %d zone lost its data: %+v", i, z)
		}
	}
	// Pruning on the recomputed zones must reflect repaired reality: a
	// query over the original time range of the damaged segment finds
	// nothing there.
	if err := rep.Validate(); err != nil {
		t.Fatalf("repaired store invalid: %v", err)
	}
}

// TestSnapshotRepairTruncated: a snapshot cut mid-block strict-fails but
// repairs into a structurally valid store with the tail zero-filled.
func TestSnapshotRepairTruncated(t *testing.T) {
	s := fixtureStore(t)
	raw := snapshotV3(t, s)
	secs := parseSections(t, raw)
	block1 := findSection(t, secs, secEncBlock, 1)
	cut := raw[:block1.payloadOff+4]

	var strict Store
	if _, err := strict.ReadFrom(bytes.NewReader(cut)); !errors.Is(err, ErrTruncated) {
		t.Fatalf("strict err = %v", err)
	}

	var rep Store
	report, err := rep.ReadSnapshot(bytes.NewReader(cut), LoadOptions{Mode: LoadRepair})
	if err != nil {
		t.Fatalf("repair: %v", err)
	}
	if len(report.Damaged) == 0 {
		t.Fatal("no damage reported for a truncated snapshot")
	}
	if rep.Len() != s.Len() {
		t.Fatalf("repair rows = %d, want %d", rep.Len(), s.Len())
	}
	for i := 0; i < 7; i++ {
		if rep.Row(i) != s.Row(i) {
			t.Errorf("undamaged row %d differs", i)
		}
	}
	if err := rep.Validate(); err != nil {
		t.Fatalf("repaired store invalid: %v", err)
	}
}

// TestSnapshotRepairProvenanceDamage: a corrupt provenance section is
// fatal in strict mode but merely dropped (and reported) in repair mode.
func TestSnapshotRepairProvenanceDamage(t *testing.T) {
	s := fixtureStore(t)
	raw := snapshotV3(t, s)
	secs := parseSections(t, raw)
	prov := findSection(t, secs, secProvenance, 0)
	bad := append([]byte(nil), raw...)
	bad[prov.payloadOff] ^= 0xFF

	var strict Store
	if _, err := strict.ReadFrom(bytes.NewReader(bad)); !errors.Is(err, ErrChecksum) {
		t.Fatalf("strict err = %v", err)
	}
	var rep Store
	report, err := rep.ReadSnapshot(bytes.NewReader(bad), LoadOptions{Mode: LoadRepair})
	if err != nil {
		t.Fatalf("repair: %v", err)
	}
	if report.Provenance != nil {
		t.Error("damaged provenance should be dropped")
	}
	if len(report.Damaged) != 1 || report.Damaged[0] != "provenance" {
		t.Errorf("damaged = %v", report.Damaged)
	}
	compareStores(t, s, &rep, true)
}

// TestSnapshotStrictLeavesStoreUntouched: a failed strict load must not
// modify the receiver, even one that already holds data.
func TestSnapshotStrictLeavesStoreUntouched(t *testing.T) {
	s := sampleStore()
	want := s.Len()
	if _, err := s.ReadFrom(bytes.NewReader([]byte("garbage everywhere"))); err == nil {
		t.Fatal("garbage accepted")
	}
	if s.Len() != want {
		t.Fatalf("failed load changed the store: %d rows", s.Len())
	}
	if s.Row(0) != sampleStore().Row(0) {
		t.Error("failed load mutated rows")
	}
}

// TestSnapshotLoadWorkersInvariant: the loaded store is identical for
// every decode worker count, for a one-segment store (one block) and a
// segmented one (a block per segment).
func TestSnapshotLoadWorkersInvariant(t *testing.T) {
	for _, s := range []*Store{randomStore(99, 30, 60), randomSegmentedStore(99)} {
		raw := snapshotV3(t, s)
		var ref Store
		if _, err := ref.ReadSnapshot(bytes.NewReader(raw), LoadOptions{Workers: 1}); err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{2, 3, 8, 0} {
			var got Store
			if _, err := got.ReadSnapshot(bytes.NewReader(raw), LoadOptions{Workers: w}); err != nil {
				t.Fatalf("workers=%d: %v", w, err)
			}
			compareStores(t, &ref, &got, false)
		}
	}
}

// benchStore builds a ~100k-row store shaped like generator output.
func benchStore(b *testing.B) *Store {
	b.Helper()
	nb := 2000
	builders := make([]*Segment, 0, 4)
	per := nb / 4
	for seg := 0; seg < 4; seg++ {
		lo, hi := uint32(seg*per), uint32((seg+1)*per)
		bl := NewBuilder(lo, hi)
		for bt := lo; bt < hi; bt++ {
			bl.BeginBatch(bt)
			base := int64(1_400_000_000) + int64(bt)*3600
			for i := 0; i < 50; i++ {
				bl.Append(model.Instance{
					Batch: bt, TaskType: bt % 40, Item: uint32(i), Worker: uint32(int(bt)*31+i) % 997,
					Start: base + int64(i*60), End: base + int64(i*60+45),
					Trust: float32(i%10) / 16, Answer: bt*100 + uint32(i),
				})
			}
		}
		builders = append(builders, bl.Seal())
	}
	s, err := Assemble(nb, builders)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkSnapshotCodecRead measures the snapshot decode at one and many
// workers on identical data.
func BenchmarkSnapshotCodecRead(b *testing.B) {
	s := benchStore(b)
	var buf bytes.Buffer
	s.WriteTo(&buf)
	raw := buf.Bytes()
	run := func(workers int) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(raw)))
			for i := 0; i < b.N; i++ {
				var back Store
				if _, err := back.ReadSnapshot(bytes.NewReader(raw), LoadOptions{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("v3serial", run(1))
	b.Run("v3parallel", run(0))
}

func BenchmarkSnapshotCodecWrite(b *testing.B) {
	s := benchStore(b)
	run := func(workers int) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			var buf bytes.Buffer
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if _, err := s.WriteSnapshot(&buf, WriteOptions{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(buf.Len()))
		}
	}
	b.Run("serial", run(1))
	b.Run("parallel", run(0))
}

// TestSnapshotRepairForgedRowCount: a tiny file whose CRC-valid sections
// claim an enormous row count must not repair-"recover" into a giant
// zeroed store; both modes refuse, and allocation stays bounded by the
// input (the fill cap), not the claim — whether the claim sits in meta
// alone or is backed by a forged segment table.
func TestSnapshotRepairForgedRowCount(t *testing.T) {
	const claimed = 50_000_000
	forge := func(segments []byte, nsegs, nblocks uint64) []byte {
		var buf bytes.Buffer
		cw := &countingWriter{w: &buf}
		var hdr [8]byte
		binary.LittleEndian.PutUint32(hdr[0:4], snapshotMagic)
		binary.LittleEndian.PutUint32(hdr[4:8], snapshotVersion)
		cw.Write(hdr[:])
		var meta bytes.Buffer
		putUvarint(&meta, claimed) // rows, nothing behind them
		putUvarint(&meta, 0)       // batches
		putUvarint(&meta, nsegs)
		putUvarint(&meta, nblocks)
		putUvarint(&meta, metaFlagEncoded|metaFlagFooter)
		writeSection(cw, secMeta, meta.Bytes())
		writeSection(cw, secSegments, segments)
		writeSection(cw, secRanges, nil)
		return buf.Bytes()
	}
	var oneSeg bytes.Buffer
	for _, v := range []uint64{0, claimed, 0, 0} { // rows [0, claimed), batches [0, 0)
		putUvarint(&oneSeg, v)
	}
	for name, raw := range map[string][]byte{
		"meta only":     forge(nil, 0, 0),
		"segment table": forge(oneSeg.Bytes(), 1, 1),
	} {
		var strict Store
		if _, err := strict.ReadFrom(bytes.NewReader(raw)); err == nil || strict.Len() != 0 {
			t.Fatalf("%s: strict accepted a forged row count: err = %v, %d rows", name, err, strict.Len())
		}
		var rep Store
		if _, err := rep.ReadSnapshot(bytes.NewReader(raw), LoadOptions{Mode: LoadRepair}); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: repair accepted a forged row count: err = %v", name, err)
		}
		if rep.Len() != 0 {
			t.Fatalf("%s: repair populated %d rows from a %d-byte file", name, rep.Len(), len(raw))
		}
	}
}

// TestSnapshotSegmentCap: a segment above MaxSegmentRows is refused by
// name, by WriteSnapshot and WriteDataset alike — there is no second
// layout to fall back to. The store is a bare layout (segment table and
// row count only): the check runs before any column is touched.
func TestSnapshotSegmentCap(t *testing.T) {
	n := MaxSegmentRows + 1
	s := &Store{rows: n, batchTable: batchTable{ranges: make([]rowRange, 1)}, fill: &fillState{},
		catalogue: catalogue{segs: []SegmentInfo{{RowLo: 0, RowHi: n, BatchLo: 0, BatchHi: 1}}}}
	var buf bytes.Buffer
	if _, err := s.WriteSnapshot(&buf, WriteOptions{}); err == nil || !strings.Contains(err.Error(), "MaxSegmentRows") {
		t.Fatalf("WriteSnapshot err = %v, want the segment-cap error", err)
	}
	if buf.Len() != 0 {
		t.Errorf("WriteSnapshot wrote %d bytes before refusing", buf.Len())
	}
	_, err := s.WriteDataset(&buf, 2, "x", func(string) (io.WriteCloser, error) {
		t.Fatal("WriteDataset created a shard file before refusing")
		return nil, nil
	}, WriteOptions{})
	if err == nil || !strings.Contains(err.Error(), "MaxSegmentRows") {
		t.Fatalf("WriteDataset err = %v, want the segment-cap error", err)
	}
}
