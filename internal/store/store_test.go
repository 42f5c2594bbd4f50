package store

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"

	"crowdscope/internal/model"
)

// storeOf seals rows — each batch's rows contiguous, batches ascending —
// into one segment over batches [0, numBatches) and assembles it: the one
// way rows enter a Store.
func storeOf(numBatches int, rows []model.Instance) *Store {
	b := NewBuilder(0, uint32(numBatches))
	for i, in := range rows {
		if i == 0 || in.Batch != rows[i-1].Batch {
			b.BeginBatch(in.Batch)
		}
		b.Append(in)
	}
	s, err := Assemble(numBatches, []*Segment{b.Seal()})
	if err != nil {
		panic(err)
	}
	return s
}

func sampleStore() *Store {
	return storeOf(3, []model.Instance{
		{Batch: 0, TaskType: 10, Item: 0, Worker: 100, Start: 1000, End: 1100, Trust: 0.9, Answer: 7},
		{Batch: 0, TaskType: 10, Item: 0, Worker: 101, Start: 1050, End: 1200, Trust: 0.8, Answer: 7},
		{Batch: 0, TaskType: 10, Item: 1, Worker: 100, Start: 2000, End: 2050, Trust: 0.9, Answer: 9},
		{Batch: 2, TaskType: 11, Item: 0, Worker: 102, Start: 5000, End: 5300, Trust: 0.7, Answer: 3},
	})
}

// liveSample opens a live store holding sampleStore's rows, none of them
// sealed yet.
func liveSample(t *testing.T) *LiveStore {
	t.Helper()
	ls, err := OpenLive(t.TempDir(), liveTestCfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ls.Close() })
	if err := ls.Append(rowsOf(t, sampleStore())); err != nil {
		t.Fatal(err)
	}
	return ls
}

// rampStore holds n rows of one batch with ascending start times.
func rampStore(n int) *Store {
	rows := make([]model.Instance, n)
	for i := range rows {
		rows[i] = model.Instance{Batch: 0, Start: int64(i), End: int64(i + 50)}
	}
	return storeOf(1, rows)
}

func TestAppendAndRow(t *testing.T) {
	s := sampleStore()
	if s.Len() != 4 {
		t.Fatalf("Len = %d", s.Len())
	}
	row := s.Row(1)
	if row.Worker != 101 || row.Answer != 7 || row.Trust != 0.8 {
		t.Errorf("Row(1) = %+v", row)
	}
}

func TestBatchRanges(t *testing.T) {
	s := sampleStore()
	lo, hi := s.BatchRange(0)
	if lo != 0 || hi != 3 {
		t.Errorf("batch 0 range [%d,%d)", lo, hi)
	}
	lo, hi = s.BatchRange(1)
	if lo != hi {
		t.Errorf("batch 1 should be empty: [%d,%d)", lo, hi)
	}
	lo, hi = s.BatchRange(2)
	if lo != 3 || hi != 4 {
		t.Errorf("batch 2 range [%d,%d)", lo, hi)
	}
	// Out of range.
	lo, hi = s.BatchRange(99)
	if lo != 0 || hi != 0 {
		t.Error("out-of-range batch should be empty")
	}
}

func TestWorkerIndex(t *testing.T) {
	s := sampleStore()
	rows := s.WorkerRows(100)
	if len(rows) != 2 || rows[0] != 0 || rows[1] != 2 {
		t.Errorf("worker 100 rows = %v", rows)
	}
	indexed := 0
	s.EachWorker(func(uint32, []int32) { indexed++ })
	if indexed != 3 {
		t.Errorf("%d workers indexed, want 3", indexed)
	}
	if rows := s.WorkerRows(999); rows != nil {
		t.Errorf("unknown worker rows = %v", rows)
	}
}

// bigStore assembles a one-segment store of the given row count whose
// batches are heavily skewed in size (batch b holds about b+1 shares).
func bigStore(rows int) *Store {
	out := make([]model.Instance, rows)
	b, left := uint32(0), 0
	for i := range out {
		if left == 0 {
			if i > 0 {
				b++
			}
			left = 1 + int(b)*rows/64
		}
		left--
		out[i] = model.Instance{Batch: b, Worker: uint32(i % 97), Start: int64(i), End: int64(i + 10)}
	}
	return storeOf(int(b)+1, out)
}

// TestWorkerIndexMatchesSerial: the worker posting lists — built from row
// chunks above workerIndexParallelMin — equal a serial build.
func TestWorkerIndexMatchesSerial(t *testing.T) {
	s := bigStore(workerIndexParallelMin + 500)
	serial := map[uint32][]int32{}
	for i, v := range s.Workers() {
		serial[v] = append(serial[v], int32(i))
	}
	indexed := 0
	s.EachWorker(func(uint32, []int32) { indexed++ })
	if indexed != len(serial) {
		t.Fatalf("%d workers indexed, want %d", indexed, len(serial))
	}
	for k, rows := range serial {
		if idx := s.WorkerRows(k); !slices.Equal(idx, rows) {
			t.Fatalf("worker %d: posting list differs from the serial build (%d vs %d rows)", k, len(idx), len(rows))
		}
	}
}

func TestEachWorkerOrdered(t *testing.T) {
	s := sampleStore()
	var order []uint32
	s.EachWorker(func(id uint32, rows []int32) { order = append(order, id) })
	if len(order) != 3 || order[0] != 100 || order[2] != 102 {
		t.Errorf("EachWorker order = %v", order)
	}
}

// TestIndexInvalidatedByAppend: every view of a live store builds its own
// posting lists, so a row appended after one view was indexed shows up in
// the next view's index and never in the earlier one's.
func TestIndexInvalidatedByAppend(t *testing.T) {
	ls := liveSample(t)
	before := ls.View()
	if got := len(before.WorkerRows(100)); got != 2 {
		t.Fatalf("worker 100 rows = %d, want 2", got)
	}
	if err := ls.Append([]model.Instance{{Batch: 2, TaskType: 11, Item: 1, Worker: 100, Start: 6000, End: 6100}}); err != nil {
		t.Fatal(err)
	}
	if got := len(ls.View().WorkerRows(100)); got != 3 {
		t.Errorf("stale index: worker 100 rows = %d, want 3", got)
	}
	if got := len(before.WorkerRows(100)); got != 2 {
		t.Errorf("earlier view's index changed: worker 100 rows = %d", got)
	}
}

func TestValidate(t *testing.T) {
	s := sampleStore()
	if err := s.Validate(); err != nil {
		t.Fatalf("valid store flagged: %v", err)
	}
	// Corrupt: end before start.
	s.dur[0] = -1
	if err := s.Validate(); err == nil {
		t.Error("inverted interval not caught")
	}
	s.dur[0] = 100
	// Corrupt: range points at wrong batch.
	s.batch[0] = 2
	if err := s.Validate(); err == nil {
		t.Error("range/batch mismatch not caught")
	}
	// Intervals whose length wraps int64 seal a duration that misreads
	// them: negative, or non-negative but ending past MaxInt64.
	for _, in := range []model.Instance{
		{Start: math.MinInt64 + 10, End: math.MaxInt64 - 10},
		{Start: math.MaxInt64 - 5, End: math.MinInt64 + 4},
	} {
		if err := storeOf(1, []model.Instance{{}, in}).Validate(); err == nil {
			t.Errorf("interval [%d, %d] not caught", in.Start, in.End)
		}
	}
}

// TestValidateEncodingRun: encodings may cover any leading run of the
// segments, from none to all; more encodings than segments, or an entry
// that disagrees with its segment, is invalid.
func TestValidateEncodingRun(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	segs, numBatches := randomSegments(rng)
	for len(segs) < 3 {
		segs, numBatches = randomSegments(rng)
	}
	s, err := Assemble(numBatches, segs)
	if err != nil {
		t.Fatal(err)
	}
	full := s.encs
	for k := 0; k <= len(full); k++ {
		s.encs = full[:k]
		if err := s.Validate(); err != nil {
			t.Fatalf("encodings for the first %d of %d segments rejected: %v", k, len(full), err)
		}
	}
	s.encs = append(full[:len(full):len(full)], SegmentEnc{})
	if err := s.Validate(); err == nil {
		t.Errorf("%d encodings for %d segments accepted", len(s.encs), len(full))
	}
	for i := range full {
		bad := slices.Clone(full)
		bad[i].Rows++
		s.encs = bad[:i+1]
		if err := s.Validate(); err == nil {
			t.Errorf("segment %d's encoding covering %d of %d rows accepted", i, bad[i].Rows, s.segs[i].Rows())
		}
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	s := sampleStore()
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	var back Store
	if _, err := back.ReadFrom(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("ReadFrom: %v", err)
	}
	if back.Len() != s.Len() {
		t.Fatalf("round-trip length %d vs %d", back.Len(), s.Len())
	}
	for i := 0; i < s.Len(); i++ {
		if s.Row(i) != back.Row(i) {
			t.Fatalf("row %d differs: %+v vs %+v", i, s.Row(i), back.Row(i))
		}
	}
	if back.NumBatches() != s.NumBatches() {
		t.Error("range table size differs")
	}
	for b := 0; b < s.NumBatches(); b++ {
		alo, ahi := s.BatchRange(uint32(b))
		blo, bhi := back.BatchRange(uint32(b))
		if alo != blo || ahi != bhi {
			t.Errorf("batch %d range differs", b)
		}
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("restored store invalid: %v", err)
	}
}

func TestSnapshotEmptyStore(t *testing.T) {
	s := New(0)
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo empty: %v", err)
	}
	var back Store
	if _, err := back.ReadFrom(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("ReadFrom empty: %v", err)
	}
	if back.Len() != 0 {
		t.Error("empty store round trip gained rows")
	}
}

func TestSnapshotRejectsGarbage(t *testing.T) {
	var s Store
	if _, err := s.ReadFrom(bytes.NewReader([]byte("not a snapshot at all........"))); err == nil {
		t.Error("garbage accepted")
	}
	// Truncated valid prefix.
	good := sampleStore()
	var buf bytes.Buffer
	good.WriteTo(&buf)
	var s2 Store
	if _, err := s2.ReadFrom(bytes.NewReader(buf.Bytes()[:buf.Len()/2])); err == nil {
		t.Error("truncated snapshot accepted")
	}
}

func TestSnapshotCompression(t *testing.T) {
	// Delta-varint coding should beat fixed-width for realistic rows.
	var rows []model.Instance
	for b := uint32(0); b < 100; b++ {
		base := int64(1_400_000_000) + int64(b)*86400
		for i := 0; i < 50; i++ {
			rows = append(rows, model.Instance{
				Batch: b, TaskType: b % 7, Item: uint32(i), Worker: uint32(i % 13),
				Start: base + int64(i*60), End: base + int64(i*60+45),
				Trust: 0.9, Answer: 1,
			})
		}
	}
	s := storeOf(100, rows)
	var buf bytes.Buffer
	s.WriteTo(&buf)
	fixedWidth := s.Len() * (4 + 4 + 4 + 4 + 8 + 8 + 4 + 4)
	if buf.Len() >= fixedWidth {
		t.Errorf("snapshot %dB not smaller than fixed-width %dB", buf.Len(), fixedWidth)
	}
}

func BenchmarkAppend(b *testing.B) {
	bld := NewBuilder(0, 1)
	bld.BeginBatch(0)
	in := model.Instance{Batch: 0, TaskType: 1, Item: 2, Worker: 3, Start: 100, End: 200, Trust: 0.9, Answer: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bld.Append(in)
	}
}

func BenchmarkColumnScan(b *testing.B) {
	s := rampStore(1_000_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		total := int64(0)
		for _, v := range s.Starts() {
			total += v
		}
		_ = total
	}
}

func BenchmarkRowScan(b *testing.B) {
	s := rampStore(1_000_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		total := int64(0)
		for r := 0; r < s.Len(); r++ {
			total += s.Row(r).Start
		}
		_ = total
	}
}
