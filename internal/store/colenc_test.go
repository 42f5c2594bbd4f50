package store

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"crowdscope/internal/model"
	"crowdscope/internal/rng"
)

// randomSegmentedStore builds a random multi-segment store whose columns
// exercise every encoding: sorted batches (RLE), tiny task-type domains
// (dict), clustered starts (FOR), repeated answers (short-run RLE), and
// quantized or continuous trust values.
func randomSegmentedStore(seed uint64) *Store {
	r := rng.New(seed)
	numSegs := 1 + int(r.Uint64n(4))
	batchesPerSeg := 1 + int(r.Uint64n(4))
	nb := numSegs * batchesPerSeg
	quantTrust := r.Uint64n(2) == 0
	segs := make([]*Segment, 0, numSegs)
	for k := 0; k < numSegs; k++ {
		lo, hi := uint32(k*batchesPerSeg), uint32((k+1)*batchesPerSeg)
		b := NewBuilder(lo, hi)
		base := model.Epoch.Unix() + int64(k)*1000000
		for batch := lo; batch < hi; batch++ {
			b.BeginBatch(batch)
			rows := int(r.Uint64n(120))
			answer := uint32(r.Uint64n(1 << 30))
			for i := 0; i < rows; i++ {
				if r.Uint64n(3) == 0 {
					answer = uint32(r.Uint64n(1 << 30)) // runs of ~3
				}
				start := base + int64(r.Uint64n(500000))
				trust := float32(r.Float64())
				if quantTrust {
					trust = float32(r.Uint64n(16)) / 16
				}
				b.Append(model.Instance{
					Batch:    batch,
					TaskType: uint32(r.Uint64n(6)),
					Item:     uint32(r.Uint64n(200)),
					Worker:   uint32(r.Uint64n(5000)),
					Start:    start,
					End:      start + int64(r.Uint64n(4000)),
					Trust:    trust,
					Answer:   answer,
				})
			}
		}
		segs = append(segs, b.Seal())
	}
	s, err := Assemble(nb, segs)
	if err != nil {
		panic(err)
	}
	return s
}

// TestPropertyEncodedRoundTrip: for random stores, every sealed segment
// encoding decodes bit-identically back to the raw columns it was built
// from — per column, including the float32 trust patterns.
func TestPropertyEncodedRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		s := randomSegmentedStore(seed)
		encs := s.encodings()
		for i, si := range s.Segments() {
			e := &encs[i]
			n := si.Rows()
			if e.Rows != n {
				return false
			}
			if n == 0 {
				continue
			}
			u32 := make([]uint32, n)
			for _, c := range []struct {
				enc *EncodedU32
				raw []uint32
			}{
				{&e.Batch, s.batch[si.RowLo:si.RowHi]},
				{&e.TaskType, s.taskType[si.RowLo:si.RowHi]},
				{&e.Item, s.item[si.RowLo:si.RowHi]},
				{&e.Worker, s.worker[si.RowLo:si.RowHi]},
				{&e.Answer, s.answer[si.RowLo:si.RowHi]},
			} {
				c.enc.decodeInto(u32)
				for j := range c.raw {
					if u32[j] != c.raw[j] {
						return false
					}
				}
			}
			i64 := make([]int64, n)
			e.Start.decodeInto(i64)
			for j, want := range s.start[si.RowLo:si.RowHi] {
				if i64[j] != want {
					return false
				}
			}
			e.EndOff.decodeInto(i64)
			for j := si.RowLo; j < si.RowHi; j++ {
				if i64[j-si.RowLo] != s.dur[j] {
					return false
				}
			}
			f32 := make([]float32, n)
			e.Trust.decodeInto(f32)
			for j, want := range s.trust[si.RowLo:si.RowHi] {
				if math.Float32bits(f32[j]) != math.Float32bits(want) {
					return false
				}
			}
			if err := e.validate(n); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyEncodedBlockSerializeRoundTrip: serializing a sealed
// segment encoding and decoding the payload reproduces the same column
// values, and the decoder accepts exactly what the writer emits.
func TestPropertyEncodedBlockSerializeRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		s := randomSegmentedStore(seed)
		encs := s.encodings()
		var written [8]int64 // bytes per disk column, over every segment
		for i, si := range s.Segments() {
			if si.Rows() == 0 {
				continue
			}
			var buf bytes.Buffer
			offs := serializeEncBlock(&buf, &encs[i])
			for c := range written {
				written[c] += int64(offs[c+1] - offs[c])
			}
			var back SegmentEnc
			if err := decodeEncBlock(buf.Bytes(), si.Rows(), &back); err != nil {
				t.Logf("decode: %v", err)
				return false
			}
			n := si.Rows()
			var cols columns
			cols.grow(n)
			back.materializeInto(&cols, 0)
			for j := 0; j < n; j++ {
				if cols.row(j) != s.Row(si.RowLo+j) {
					return false
				}
			}
			// Re-serializing the decoded form is byte-identical: the
			// decoder only accepts the canonical encoding.
			var again bytes.Buffer
			serializeEncBlock(&again, &back)
			if !bytes.Equal(buf.Bytes(), again.Bytes()) {
				return false
			}
		}
		// What the writer wrote per column is what CompressionStats reports
		// and what the snapshot's footer records.
		stats := s.CompressionStats()
		var snap bytes.Buffer
		if _, err := s.WriteSnapshot(&snap, WriteOptions{}); err != nil {
			t.Log(err)
			return false
		}
		foot := snapshotFooter(t, snap.Bytes())
		for c, name := range [8]string{"batch", "tasktype", "item", "worker", "answer", "start", "end", "trust"} {
			var indexed int64
			for _, fb := range foot.blocks {
				indexed += fb.colLen[c]
			}
			var reported int64
			for _, cc := range stats {
				if cc.Name == name {
					reported = cc.EncodedBytes
				}
			}
			if indexed != written[c] || reported != written[c] {
				t.Logf("column %s: %d bytes written, %d in the footer, %d in CompressionStats", name, written[c], indexed, reported)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// snapshotFooter decodes the footer index a snapshot ends with.
func snapshotFooter(t *testing.T, snap []byte) *footerIndex {
	t.Helper()
	tr := snap[len(snap)-footerTrailerLen:]
	off, n := binary.LittleEndian.Uint64(tr[0:8]), uint64(binary.LittleEndian.Uint32(tr[8:12]))
	foot, err := decodeFooter(snap[off+9 : off+9+n])
	if err != nil {
		t.Fatalf("footer: %v", err)
	}
	return foot
}

// TestEncodeChooser pins the encoding each column shape should get.
func TestEncodeChooser(t *testing.T) {
	n := 4096
	sorted := make([]uint32, n)   // long runs -> RLE
	smallDom := make([]uint32, n) // 6 distinct values -> dict
	clustered := make([]uint32, n)
	random := make([]uint32, n)
	r := rng.New(7)
	for i := range sorted {
		sorted[i] = uint32(i / 128)
		smallDom[i] = uint32(r.Uint64n(6))
		clustered[i] = 1_000_000 + uint32(r.Uint64n(2000))
		random[i] = uint32(r.Uint64())
	}
	if e := encodeColumn(sorted); e.Code != CodeRLE {
		t.Errorf("sorted column encoded as %d, want RLE", e.Code)
	}
	if e := encodeColumn(smallDom); e.Code != CodeDict {
		t.Errorf("small-domain column encoded as %d, want dict", e.Code)
	} else if len(e.Dict) != 6 || e.Width != 3 {
		t.Errorf("dict shape: %d entries width %d", len(e.Dict), e.Width)
	}
	if e := encodeColumn(clustered); e.Code != CodeFOR {
		t.Errorf("clustered column encoded as %d, want FOR", e.Code)
	} else if e.Ref != 1_000_000 || e.Width != 11 {
		t.Errorf("FOR shape: ref %d width %d", e.Ref, e.Width)
	}
	if e := encodeColumn(random); e.Code != CodeFOR && e.Code != CodeRaw {
		t.Errorf("random column encoded as %d", e.Code)
	}

	constant := make([]uint32, n)
	for i := range constant {
		constant[i] = 42
	}
	e := encodeColumn(constant)
	if e.Code == CodeFOR && (e.Width != 0 || e.Ref != 42) {
		t.Errorf("constant FOR shape: ref %d width %d", e.Ref, e.Width)
	}
	back := make([]uint32, n)
	e.decodeInto(back)
	if back[17] != 42 {
		t.Errorf("constant Value = %d", back[17])
	}

	starts := make([]int64, n)
	base := model.Epoch.Unix()
	for i := range starts {
		starts[i] = base + int64(i)*37
	}
	if e := encodeColumn(starts); e.Code != CodeFOR {
		t.Errorf("timestamps encoded as %d, want FOR", e.Code)
	}

	// Ties are part of the file format, and each value type breaks them in
	// its own order: an id column takes the first of RLE, dict, FOR at the
	// minimum cost and raw only when nothing matches it; a trust column
	// takes dict only when strictly cheaper than FOR, and either only when
	// strictly cheaper than raw; a time column takes FOR only when strictly
	// cheaper than raw. The same values are encoded as ids and, through
	// their bit patterns, as trust.
	asTrust := func(ids []uint32) []float32 {
		out := make([]float32, len(ids))
		for i, v := range ids {
			out[i] = math.Float32frombits(v)
		}
		return out
	}
	twoRuns := func(n int, a, b uint32) []uint32 {
		out := make([]uint32, n)
		for i := range out {
			out[i] = a
			if i >= n/2 {
				out[i] = b
			}
		}
		return out
	}
	for _, tc := range []struct {
		name      string
		ids       []uint32
		id, trust ColumnCode
	}{
		// One row: raw (32 bits) beats every header.
		{"constant-1", twoRuns(1, 42, 42), CodeRaw, CodeRaw},
		// dict 0+32+24 = FOR 0+8+48 = 56 bits while the column fits one frame.
		{"constant-39", twoRuns(39, 42, 42), CodeDict, CodeFOR},
		{"constant-64", twoRuns(64, 42, 42), CodeDict, CodeFOR},
		// A second frame costs FOR 8 more bits: dict outright.
		{"constant-65", twoRuns(65, 42, 42), CodeDict, CodeDict},
		// Two runs of 25 whose span needs 16 bits: RLE 2*(16+5)+96 = dict
		// 50+64+24 = 138 bits.
		{"two-value-50", twoRuns(50, 1000, 1000+1<<15), CodeRLE, CodeDict},
		{"two-value-50-adjacent", twoRuns(50, 1000, 1001), CodeFOR, CodeFOR},
		// Three distinct values in four rows: dict 8+96+24 = raw 128 bits.
		{"dict-ties-raw", []uint32{0, 100000, 50000, 0}, CodeDict, CodeRaw},
	} {
		if got := encodeColumn(tc.ids).Code; got != tc.id {
			t.Errorf("%s as ids: code %d, want %d", tc.name, got, tc.id)
		}
		if got := encodeColumn(asTrust(tc.ids)).Code; got != tc.trust {
			t.Errorf("%s as trust: code %d, want %d", tc.name, got, tc.trust)
		}
	}
	// One frame of n rows spanning 56 bits costs 56n+8+56+80 bits packed:
	// 64n at n = 18, where raw keeps the column, and less from 19 on.
	for n, want := range map[int]ColumnCode{18: CodeRaw, 19: CodeFOR} {
		times := make([]int64, n)
		times[n-1] = 1 << 55
		if got := encodeColumn(times).Code; got != want {
			t.Errorf("%d times spanning 56 bits: code %d, want %d", n, got, want)
		}
	}
}

// TestRunIndex checks the RLE run binary search on the boundaries.
func TestRunIndex(t *testing.T) {
	e := EncodedU32{Code: CodeRLE, N: 10,
		RunVals: []uint32{5, 9, 5}, RunEnds: []uint32{3, 7, 10}}
	wants := []uint32{5, 5, 5, 9, 9, 9, 9, 5, 5, 5}
	for i, want := range wants {
		if got := valueU32(&e, i); got != want {
			t.Errorf("Value(%d) = %d, want %d", i, got, want)
		}
	}
}

// FuzzDecodeColumnBlock drives the encoded-block reader with arbitrary
// bytes. The committed corpus under testdata/fuzz/FuzzDecodeColumnBlock
// (regenerated with -update-fixtures) holds valid block payloads of every
// encoding plus truncated and bit-flipped variants. The invariants:
// decoding never panics, never allocates beyond a small multiple of the
// input (forged run counts, bit widths and dictionary sizes are bounded
// against the payload before allocation, and row counts are capped), and
// anything that decodes is in canonical form — re-serializing it
// reproduces the accepted payload byte-for-byte — and the block codec
// agrees with the value-at-a-time reference decoder (refcodec_test.go) on
// every input: same verdict, same error class, same column values.
func FuzzDecodeColumnBlock(f *testing.F) {
	s := fixtureStore(f)
	for i, si := range s.Segments() {
		if si.Rows() == 0 {
			continue
		}
		var buf bytes.Buffer
		serializeEncBlock(&buf, &s.encodings()[i])
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:buf.Len()/2])
		flip := append([]byte(nil), buf.Bytes()...)
		flip[buf.Len()/3] ^= 0x20
		f.Add(flip)
	}
	f.Add([]byte{})
	f.Add([]byte("not a block"))

	f.Fuzz(func(t *testing.T, data []byte) {
		sr := &sliceReader{buf: data}
		claimed, err := getUvarint(sr)
		if err != nil {
			claimed = 0
		}
		rows := int(min(claimed, MaxSegmentRows))
		var enc SegmentEnc
		err = decodeEncBlock(data, rows, &enc)
		ref, rerr := refDecodeEncBlock(data, rows)
		// Decoded values must be safe to read everywhere: comparing them
		// reads every row.
		agreeWithReference(t, &enc, &ref, err, rerr)
		if err != nil {
			return
		}
		if err := enc.validate(rows); err != nil {
			t.Fatalf("decoded block fails validate: %v", err)
		}
		var again bytes.Buffer
		serializeEncBlock(&again, &enc)
		if !bytes.Equal(data, again.Bytes()) {
			// The only tolerated difference is a non-minimal uvarint in
			// the original input; re-decoding must at least be idempotent.
			var back SegmentEnc
			if err := decodeEncBlock(again.Bytes(), rows, &back); err != nil {
				t.Fatalf("re-decode of re-serialized block failed: %v", err)
			}
			var third bytes.Buffer
			serializeEncBlock(&third, &back)
			if !bytes.Equal(again.Bytes(), third.Bytes()) {
				t.Fatal("re-serialization is not idempotent")
			}
		}
	})
}

// TestFuzzCorpusCommitted guards against the committed corpus being
// silently dropped: the fuzz smoke tier in CI is only as good as the
// seeds it starts from.
func TestFuzzCorpusCommitted(t *testing.T) {
	for _, dir := range []string{"FuzzReadFrom", "FuzzDecodeColumnBlock"} {
		entries, err := os.ReadDir(filepath.Join("testdata", "fuzz", dir))
		if err != nil || len(entries) == 0 {
			t.Errorf("committed fuzz corpus %s missing (regenerate with -update-fixtures): %v", dir, err)
		}
	}
}
