package store

import (
	"bytes"
	"testing"

	"crowdscope/internal/model"
)

// buildSegment fills a builder with `rows` rows per batch over the given
// interval and seals it.
func buildSegment(t *testing.T, batchLo, batchHi uint32, rowsPerBatch int) *Segment {
	t.Helper()
	b := NewBuilder(batchLo, batchHi)
	for id := batchLo; id < batchHi; id++ {
		b.BeginBatch(id)
		for i := 0; i < rowsPerBatch; i++ {
			b.Append(model.Instance{
				Batch: id, TaskType: id % 5, Item: uint32(i), Worker: uint32(i % 7),
				Start: int64(id)*1000 + int64(i), End: int64(id)*1000 + int64(i) + 30,
				Trust: 0.9, Answer: uint32(i),
			})
		}
	}
	return b.Seal()
}

func TestBuilderSealAssemble(t *testing.T) {
	segs := []*Segment{
		buildSegment(t, 0, 3, 2),
		buildSegment(t, 3, 5, 4),
		buildSegment(t, 5, 8, 1),
	}
	s, err := Assemble(8, segs)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	if s.Len() != 3*2+2*4+3*1 {
		t.Fatalf("assembled %d rows", s.Len())
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("assembled store invalid: %v", err)
	}
	if got := len(s.Segments()); got != 3 {
		t.Fatalf("%d segments, want 3", got)
	}
	// Row order is canonical batch order and column values survive intact.
	prevBatch := uint32(0)
	for i := 0; i < s.Len(); i++ {
		row := s.Row(i)
		if row.Batch < prevBatch {
			t.Fatalf("row %d batch %d breaks canonical order", i, row.Batch)
		}
		prevBatch = row.Batch
		if row.End != row.Start+30 {
			t.Fatalf("row %d columns scrambled: %+v", i, row)
		}
	}
}

// TestAssembleBatchRangesContiguous: the merged ranges must partition the
// row space contiguously, including across segment boundaries.
func TestAssembleBatchRangesContiguous(t *testing.T) {
	segs := []*Segment{
		buildSegment(t, 0, 4, 3),
		buildSegment(t, 4, 6, 5),
		buildSegment(t, 6, 9, 2),
	}
	s, err := Assemble(9, segs)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	next := 0
	for b := 0; b < s.NumBatches(); b++ {
		lo, hi := s.BatchRange(uint32(b))
		if lo != next {
			t.Fatalf("batch %d starts at row %d, want %d (gap or overlap at a segment boundary)", b, lo, next)
		}
		next = hi
	}
	if next != s.Len() {
		t.Fatalf("ranges cover %d of %d rows", next, s.Len())
	}
	// Segment row spans line up with the covered batch ranges.
	for _, si := range s.Segments() {
		lo, _ := s.BatchRange(si.BatchLo)
		if lo != si.RowLo {
			t.Errorf("segment [%d,%d) first batch starts at %d, want %d", si.BatchLo, si.BatchHi, lo, si.RowLo)
		}
	}
}

func TestAssembleSkipsEmptyBatches(t *testing.T) {
	// Batches 1 and 3 covered but never begun; batch 5..7 not covered at all.
	b := NewBuilder(0, 5)
	for _, id := range []uint32{0, 2, 4} {
		b.BeginBatch(id)
		b.Append(model.Instance{Batch: id, Start: int64(id), End: int64(id) + 1})
	}
	s, err := Assemble(8, []*Segment{b.Seal()})
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	for _, id := range []uint32{1, 3, 5, 6, 7} {
		if lo, hi := s.BatchRange(id); lo != hi {
			t.Errorf("batch %d should be empty, got [%d,%d)", id, lo, hi)
		}
	}
	if s.Len() != 3 {
		t.Errorf("Len = %d", s.Len())
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("store invalid: %v", err)
	}
}

func TestAssembleRejectsBadLayouts(t *testing.T) {
	a := buildSegment(t, 0, 4, 1)
	overlapping := buildSegment(t, 2, 6, 1)
	if _, err := Assemble(8, []*Segment{a, overlapping}); err == nil {
		t.Error("overlapping batch intervals accepted")
	}
	tooBig := buildSegment(t, 4, 9, 1)
	if _, err := Assemble(8, []*Segment{a, tooBig}); err == nil {
		t.Error("segment exceeding numBatches accepted")
	}
	if _, err := Assemble(8, []*Segment{a, nil}); err == nil {
		t.Error("nil segment accepted")
	}
	outOfOrder := buildSegment(t, 4, 6, 1)
	if _, err := Assemble(8, []*Segment{outOfOrder, a}); err == nil {
		t.Error("out-of-order segments accepted")
	}
}

func TestBuilderMisusePanics(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	expectPanic("inverted interval", func() { NewBuilder(5, 3) })
	expectPanic("append without BeginBatch", func() {
		NewBuilder(0, 2).Append(model.Instance{})
	})
	expectPanic("batch outside interval", func() {
		NewBuilder(0, 2).BeginBatch(2)
	})
	expectPanic("append after seal", func() {
		b := NewBuilder(0, 2)
		b.BeginBatch(0)
		b.Seal()
		b.Append(model.Instance{})
	})
	expectPanic("double seal", func() {
		b := NewBuilder(0, 2)
		b.Seal()
		b.Seal()
	})
}

// TestSegmentsImplicitForDirectStores: rows appended to a live store and
// not yet sealed form one implicit segment of its views — every row, a
// zone map, no granule directory — and an empty store has no segments.
func TestSegmentsImplicitForDirectStores(t *testing.T) {
	s := liveSample(t).View()
	segs := s.Segments()
	if len(segs) != 1 || segs[0].RowLo != 0 || segs[0].RowHi != s.Len() {
		t.Fatalf("implicit segment = %+v", segs)
	}
	if len(s.zones) != 1 || len(s.Granules()) != 0 {
		t.Errorf("open tail carries %d zone maps and %d directories, want 1 and 0", len(s.zones), len(s.Granules()))
	}
	if New(0).Segments() != nil {
		t.Error("empty store should have no segments")
	}
}

func TestSnapshotPreservesSegments(t *testing.T) {
	s, err := Assemble(6, []*Segment{
		buildSegment(t, 0, 3, 2),
		buildSegment(t, 3, 6, 3),
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	var back Store
	if _, err := back.ReadFrom(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("ReadFrom: %v", err)
	}
	if len(back.Segments()) != 2 {
		t.Fatalf("restored %d segments, want 2", len(back.Segments()))
	}
	for i, si := range back.Segments() {
		if si != s.Segments()[i] {
			t.Errorf("segment %d differs: %+v vs %+v", i, si, s.Segments()[i])
		}
	}
	for i := 0; i < s.Len(); i++ {
		if s.Row(i) != back.Row(i) {
			t.Fatalf("row %d differs", i)
		}
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("restored store invalid: %v", err)
	}
}

// TestSnapshotRoundTripEmptySegments: a store whose segments outnumber
// its rows (sealed-but-empty shards are legal) must survive the snapshot
// round trip.
func TestSnapshotRoundTripEmptySegments(t *testing.T) {
	one := NewBuilder(2, 4)
	one.BeginBatch(2)
	one.Append(model.Instance{Batch: 2, Start: 5, End: 9})
	s, err := Assemble(6, []*Segment{
		NewBuilder(0, 2).Seal(),
		one.Seal(),
		NewBuilder(4, 6).Seal(),
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	var back Store
	if _, err := back.ReadFrom(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("ReadFrom: %v", err)
	}
	if back.Len() != 1 || len(back.Segments()) != 3 {
		t.Fatalf("round trip: %d rows, %d segments", back.Len(), len(back.Segments()))
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("restored store invalid: %v", err)
	}
}

// TestSnapshotMakesImplicitSegmentExplicit: a live view's open tail is an
// implicit segment without encodings; its snapshot persists it, so the
// reloaded store reports exactly that segment — with its zone map and
// encoding — explicitly.
func TestSnapshotMakesImplicitSegmentExplicit(t *testing.T) {
	s := liveSample(t).View()
	if len(s.SegmentEncodings()) != 0 {
		t.Fatal("a live view should carry no encodings")
	}
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	var back Store
	if _, err := back.ReadFrom(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("ReadFrom: %v", err)
	}
	if len(back.Segments()) != 1 || back.Segments()[0] != s.Segments()[0] {
		t.Fatalf("reloaded segments = %+v, want the implicit %+v", back.Segments(), s.Segments())
	}
	if len(back.zones) != 1 || len(back.encs) != 1 {
		t.Errorf("reloaded %d zone maps, %d encodings, want 1 each", len(back.zones), len(back.encs))
	}
	for i := 0; i < s.Len(); i++ {
		if s.Row(i) != back.Row(i) {
			t.Fatalf("row %d differs", i)
		}
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("restored store invalid: %v", err)
	}
}
