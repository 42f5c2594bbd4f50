package store

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"crowdscope/internal/model"
	"crowdscope/internal/wal"
)

// TestZoneMapSealMatchesRecompute: the zone map sealed into a segment (and
// carried into the assembled store) equals a from-scratch recomputation
// over the assembled columns.
func TestZoneMapSealMatchesRecompute(t *testing.T) {
	s := fixtureStore(t)
	segs := s.Segments()
	if len(s.zones) != len(segs) {
		t.Fatalf("assembled store has %d zones for %d segments", len(s.zones), len(segs))
	}
	for i, si := range segs {
		want := computeZoneMap(&s.columns, si.RowLo, si.RowHi)
		if !reflect.DeepEqual(s.zones[i], want) {
			t.Errorf("segment %d sealed zone %+v != recomputed %+v", i, s.zones[i], want)
		}
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}

	// Every way a row span gets sealed reaches the one seal function, so
	// the same rows yield the same products whoever seals them: a
	// Builder, a live seal, compaction over the two halves, the lazy fill
	// of a repair-loaded store (zone map and encodings only — directories
	// are never filled lazily) and checkpoint recovery (which re-derives
	// the directory and adopts the rest from the snapshot).
	const half = GranuleRows + 904 // two batches, three granules, the last one short
	rows := make([]model.Instance, 2*half)
	for i := range rows {
		rows[i] = fixtureRow(uint32(i/half), uint32(i%half), 1_400_000_000+int64(i)*7)
	}
	sentinel := []model.Instance{fixtureRow(2, 0, 1_500_000_000)}
	type products struct {
		zone ZoneMap
		gran []Granule
		enc  []byte
	}
	of := func(zone ZoneMap, gran []Granule, enc *SegmentEnc) products {
		var buf bytes.Buffer
		serializeEncBlock(&buf, enc)
		return products{zone, gran, buf.Bytes()}
	}

	built := storeOf(2, rows)
	var snap bytes.Buffer
	if _, err := built.WriteTo(&snap); err != nil {
		t.Fatal(err)
	}
	lazy := reload(t, snap.Bytes(), LoadRepair)
	want := of(built.zones[0], built.grans[0], &built.encs[0])
	if len(want.gran) != 3 {
		t.Fatalf("fixture seals into %d granules, want 3", len(want.gran))
	}

	// live opens a store that seals after sealRows rows and feeds it the two
	// batches plus a sentinel batch, whose arrival seals what came before.
	live := func(dir string, sealRows int) *LiveStore {
		ls, err := OpenLive(dir, LiveConfig{SealRows: sealRows, CheckpointRows: -1, Sync: wal.SyncNone})
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range [][]model.Instance{rows[:half], rows[half:], sentinel} {
			if err := ls.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		return ls
	}
	dir := t.TempDir()
	whole := live(dir, 2*half)
	halves := live(t.TempDir(), half)
	defer halves.Close()
	if whole.SealedSegments() != 1 || halves.SealedSegments() != 2 || halves.Compact(2*half) != 1 {
		t.Fatalf("live fixtures sealed %d and %d segments, or the halves did not compact", whole.SealedSegments(), halves.SealedSegments())
	}
	got := map[string]products{
		"live seal":  of(whole.zones[0], whole.grans[0], &whole.encs[0]),
		"compaction": of(halves.zones[0], halves.grans[0], &halves.encs[0]),
		"lazy fill":  of(lazy.ZoneMaps()[0], want.gran, &lazy.encodings()[0]),
	}
	if err := whole.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := whole.Close(); err != nil {
		t.Fatal(err)
	}
	recovered, err := OpenLive(dir, LiveConfig{SealRows: 2 * half, CheckpointRows: -1, Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	got["recovery"] = of(recovered.zones[0], recovered.grans[0], &recovered.encs[0])
	for name, p := range got {
		if !sameZone(p.zone, want.zone) || !slices.EqualFunc(p.gran, want.gran, sameGranule) || !bytes.Equal(p.enc, want.enc) {
			t.Errorf("%s: seal products differ from Builder.Seal's", name)
		}
	}
}

// TestZoneMapLazyRecompute: a repair-mode load, which never trusts the
// persisted zones, computes them on demand — one per segment, equal to a
// recomputation over that segment's rows.
func TestZoneMapLazyRecompute(t *testing.T) {
	var buf bytes.Buffer
	if _, err := fixtureStore(t).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	s := reload(t, buf.Bytes(), LoadRepair)
	if len(s.zones) != 0 {
		t.Fatalf("repair load kept %d persisted zone maps", len(s.zones))
	}
	zones := s.ZoneMaps()
	if len(zones) != len(s.Segments()) {
		t.Fatalf("%d zones for %d segments", len(zones), len(s.Segments()))
	}
	for i, si := range s.Segments() {
		if want := computeZoneMap(&s.columns, si.RowLo, si.RowHi); !reflect.DeepEqual(zones[i], want) {
			t.Errorf("segment %d: lazy zone %+v != recomputed %+v", i, zones[i], want)
		}
	}
}

// TestZoneMapEnumSetOverflow: more than zoneEnumCap distinct values in an
// enum column degrades the set to nil while min/max stay exact.
func TestZoneMapEnumSetOverflow(t *testing.T) {
	b := NewBuilder(0, 1)
	b.BeginBatch(0)
	for i := 0; i < zoneEnumCap+5; i++ {
		b.Append(model.Instance{Batch: 0, TaskType: uint32(i % 3), Answer: uint32(1000 - i), Start: 10, End: 20})
	}
	z := b.Seal().Zone()
	if z.Answers != nil {
		t.Errorf("answer set survived overflow: %v", z.Answers)
	}
	if z.AnswerMin != uint32(1000-(zoneEnumCap+4)) || z.AnswerMax != 1000 {
		t.Errorf("answer bounds [%d,%d] wrong", z.AnswerMin, z.AnswerMax)
	}
	if want := []uint32{0, 1, 2}; !reflect.DeepEqual(z.TaskTypes, want) {
		t.Errorf("task-type set = %v, want %v", z.TaskTypes, want)
	}
}

// TestZoneMapSnapshotRoundTrip: zone maps written into a v3 snapshot
// survive a strict load bit-for-bit — the loaded store trusts the
// persisted section instead of rescanning.
func TestZoneMapSnapshotRoundTrip(t *testing.T) {
	s := fixtureStore(t)
	var buf bytes.Buffer
	if _, err := s.WriteSnapshot(&buf, WriteOptions{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	var got Store
	if _, err := got.ReadSnapshot(bytes.NewReader(buf.Bytes()), LoadOptions{}); err != nil {
		t.Fatalf("strict load: %v", err)
	}
	if len(got.zones) != len(s.zones) {
		t.Fatalf("strict load installed %d zones, want %d", len(got.zones), len(s.zones))
	}
	if !reflect.DeepEqual(got.zones, s.zones) {
		t.Errorf("zones after round trip differ:\n got %+v\nwant %+v", got.zones, s.zones)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("Validate after round trip: %v", err)
	}
}

// TestZoneMapRepairRecomputes: repair mode never trusts the persisted
// zone-map section — even on an undamaged snapshot the zones are dropped
// and recomputed from the loaded columns on demand.
func TestZoneMapRepairRecomputes(t *testing.T) {
	s := fixtureStore(t)
	var buf bytes.Buffer
	if _, err := s.WriteSnapshot(&buf, WriteOptions{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	var got Store
	rep, err := got.ReadSnapshot(bytes.NewReader(buf.Bytes()), LoadOptions{Mode: LoadRepair})
	if err != nil {
		t.Fatalf("repair load: %v", err)
	}
	if len(rep.Damaged) != 0 {
		t.Fatalf("clean snapshot reported damage: %v", rep.Damaged)
	}
	if len(got.zones) != 0 {
		t.Fatal("repair mode trusted the persisted zone maps")
	}
	if zones := got.ZoneMaps(); !reflect.DeepEqual(zones, s.ZoneMaps()) {
		t.Errorf("recomputed zones differ:\n got %+v\nwant %+v", zones, s.ZoneMaps())
	}
}

// TestZoneMapDamagedSection: a bit-flipped zone-map section fails a strict
// load with a checksum error naming the section, while repair mode records
// the damage and recomputes correct zones from the (intact) column data.
func TestZoneMapDamagedSection(t *testing.T) {
	s := fixtureStore(t)
	var buf bytes.Buffer
	if _, err := s.WriteSnapshot(&buf, WriteOptions{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	raw := append([]byte(nil), buf.Bytes()...)
	sec := findSection(t, parseSections(t, raw), secZones, 0)
	raw[sec.payloadOff] ^= 0x40

	var strict Store
	_, err := strict.ReadSnapshot(bytes.NewReader(raw), LoadOptions{})
	if !errors.Is(err, ErrChecksum) {
		t.Fatalf("strict load error = %v, want ErrChecksum", err)
	}
	if strict.Len() != 0 {
		t.Fatal("strict load populated the store despite the error")
	}

	var repaired Store
	rep, err := repaired.ReadSnapshot(bytes.NewReader(raw), LoadOptions{Mode: LoadRepair})
	if err != nil {
		t.Fatalf("repair load: %v", err)
	}
	if len(rep.Damaged) != 1 || rep.Damaged[0] != "zone maps" {
		t.Fatalf("damaged = %v, want [zone maps]", rep.Damaged)
	}
	compareStores(t, s, &repaired, true)
	if !reflect.DeepEqual(repaired.ZoneMaps(), s.ZoneMaps()) {
		t.Error("recomputed zones differ after zone-section damage")
	}
}

// TestZoneMapForgedRowsStrict: a zone map whose row count disagrees with
// the segment table is rejected by a strict load even when its checksum is
// valid — persisted pruning metadata must be structurally consistent.
func TestZoneMapForgedRowsStrict(t *testing.T) {
	s := fixtureStore(t)
	var buf bytes.Buffer
	if _, err := s.WriteSnapshot(&buf, WriteOptions{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	raw := append([]byte(nil), buf.Bytes()...)
	sec := findSection(t, parseSections(t, raw), secZones, 0)
	raw[sec.payloadOff]++ // first zone's row-count varint (small, single byte)
	refreshCRC(raw, sec)

	var st Store
	_, err := st.ReadSnapshot(bytes.NewReader(raw), LoadOptions{})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("strict load error = %v, want ErrCorrupt", err)
	}
}

// TestDeriveGranulesContainSealed: on segments of several granules whose
// columns take every code — runs, small sets, clustered and spread values,
// negative times, negative and quantized trust — the directory derived
// from the encodings contains the one sealing computed on the same rows,
// for any set of loaded columns, and a loaded RLE column's bounds and
// sets are the sealed ones exactly. A strict reload installs the
// directory derived from every column.
func TestDeriveGranulesContainSealed(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	var segs []*Segment
	batch := uint32(0)
	for k, rows := range []int{3*GranuleRows + 700, GranuleRows, 2 * GranuleRows, 150} {
		b := NewBuilder(batch, batch+40)
		base := int64(k-1) * 40_000_000 // the first segment's times are negative
		for n := 0; n < rows; batch++ {
			b.BeginBatch(batch)
			tt, answer := uint32(r.Intn(9)), uint32(r.Intn(3))
			for i := 0; i < (rows+29)/30 && n < rows; i, n = i+1, n+1 {
				start := base + int64(n)*900 + int64(r.Intn(5000))
				trust := float32(r.Intn(16)) / 16
				if k%2 == 1 {
					trust = float32(r.NormFloat64()) // negative patterns too
				}
				b.Append(model.Instance{Batch: batch, TaskType: tt, Item: uint32(r.Intn(1 << (4 * k))), Worker: uint32(r.Intn(70_000)),
					Start: start, End: start + int64(r.Intn(600)), Trust: trust, Answer: answer + uint32(n/5000)})
			}
		}
		batch = b.seg.info.BatchHi
		segs = append(segs, b.Seal())
	}
	s, err := Assemble(int(batch), segs)
	if err != nil {
		t.Fatal(err)
	}
	zones, encs, sealed := s.ZoneMaps(), s.encodings(), s.Granules()
	codes := map[ColumnCode]bool{}
	for i, si := range s.Segments() {
		e := &encs[i]
		for _, c := range []ColumnCode{e.Batch.Code, e.TaskType.Code, e.Item.Code, e.Worker.Code, e.Answer.Code, e.Start.Code, e.EndOff.Code, e.Trust.Code} {
			codes[c] = true
		}
		for _, disk := range []colMask{0, colMaskStart, colMaskDuration, colMaskTrust, colMaskBatch | colMaskTaskType | colMaskAnswer, colMaskAll} {
			derived := deriveGranules(si, &zones[i], e, disk)
			if len(derived) != len(sealed[i]) {
				t.Fatalf("segment %d disk %#x: %d granules, sealed %d", i, disk, len(derived), len(sealed[i]))
			}
			for g, x := range sealed[i] {
				o := derived[g]
				if !granuleContains(o, x) {
					t.Fatalf("segment %d granule %d disk %#x: derived %+v does not contain sealed %+v", i, g, disk, o, x)
				}
				exact := func(col colMask, code ColumnCode, same bool) {
					if disk&col != 0 && code == CodeRLE && !same {
						t.Fatalf("segment %d granule %d: RLE column %#x derived %+v, sealed %+v", i, g, col, o, x)
					}
				}
				exact(colMaskBatch, e.Batch.Code, o.BatchMin == x.BatchMin && o.BatchMax == x.BatchMax)
				exact(colMaskTaskType, e.TaskType.Code, o.TaskTypeMin == x.TaskTypeMin && o.TaskTypeMax == x.TaskTypeMax && slices.Equal(o.TaskTypes, x.TaskTypes))
				exact(colMaskAnswer, e.Answer.Code, o.AnswerMin == x.AnswerMin && o.AnswerMax == x.AnswerMax && slices.Equal(o.Answers, x.Answers))
			}
		}
	}
	for _, c := range []ColumnCode{CodeRaw, CodeRLE, CodeDict, CodeFOR} {
		if !codes[c] {
			t.Errorf("no column took code %d", c)
		}
	}
	twin := encodedTwin(t, s)
	for i := range sealed {
		if got, want := twin.Granules()[i], deriveGranules(s.Segments()[i], &zones[i], &encs[i], colMaskAll); !slices.EqualFunc(got, want, sameGranule) {
			t.Fatalf("segment %d: the strict reload's directory is not the one derived from every column", i)
		}
	}
}

// granuleContains reports whether every value the zone x admits, o does:
// the same rows, no bound narrower, no kept set missing a value of x's.
func granuleContains(o, x Granule) bool {
	subset := func(in, out []uint32) bool {
		return out == nil || in != nil && !slices.ContainsFunc(in, func(v uint32) bool { return !slices.Contains(out, v) })
	}
	return o.Rows == x.Rows && o.BatchMin <= x.BatchMin && o.BatchMax >= x.BatchMax &&
		o.TaskTypeMin <= x.TaskTypeMin && o.TaskTypeMax >= x.TaskTypeMax &&
		o.ItemMin <= x.ItemMin && o.ItemMax >= x.ItemMax &&
		o.WorkerMin <= x.WorkerMin && o.WorkerMax >= x.WorkerMax &&
		o.AnswerMin <= x.AnswerMin && o.AnswerMax >= x.AnswerMax &&
		o.StartMin <= x.StartMin && o.StartMax >= x.StartMax &&
		o.EndMin <= x.EndMin && o.EndMax >= x.EndMax &&
		o.TrustMin <= x.TrustMin && o.TrustMax >= x.TrustMax &&
		subset(x.TaskTypes, o.TaskTypes) && subset(x.Answers, o.Answers)
}
