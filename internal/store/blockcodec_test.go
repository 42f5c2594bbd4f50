package store

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"
)

// TestBlockCodecMatchesPerRow holds unpack64/pack64 and the frame
// accessors to the per-row reference at every width, on full frames and on
// a column whose last frame is short.
func TestBlockCodecMatchesPerRow(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	for width := uint8(1); width <= 64; width++ {
		for _, n := range []int{1, 63, 64, 65, 200} {
			vals := make([]uint64, n)
			for i := range vals {
				vals[i] = rng.Uint64() & (uint64(1)<<width - 1)
			}
			want := make([]uint64, packedWords(n, width))
			wp := wordPacker{words: want}
			for _, v := range vals {
				wp.put(v, width)
			}
			got := packAll(n, width, func(i int) uint64 { return vals[i] })
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("width %d rows %d: packAll differs from the per-value packer", width, n)
			}
			var frame [frameRows]uint64
			for lo := 0; lo < n; lo += frameRows {
				UnpackFrame(&frame, got, width, lo/frameRows)
				for i := lo; i < min(lo+frameRows, n); i++ {
					if frame[i-lo] != unpackAt(want, width, i) {
						t.Fatalf("width %d rows %d: row %d unpacks to %d, per-row reference %d", width, n, i, frame[i-lo], unpackAt(want, width, i))
					}
				}
			}
			if got := maxPackedValue(got, width, n); got != slices.Max(vals) {
				t.Fatalf("width %d rows %d: maxPackedValue %d, want %d", width, n, got, slices.Max(vals))
			}
		}
	}
	var zeros [frameRows]uint64
	zeros[3] = 7
	unpack64(&zeros, nil, 0)
	if zeros != [frameRows]uint64{} {
		t.Fatal("width 0 did not unpack to zeros")
	}
}

// forPatterns are the delta shapes the frame codec is held to: what a
// pattern yields is reduced to canonical form (minimum 0, width exact) by
// forColumn.
var forPatterns = []struct {
	name  string
	delta func(rng *rand.Rand, bits uint8, i int) uint64
}{
	// Constant within a frame, stepping between frames: frame width 0.
	{"constant", func(_ *rand.Rand, bits uint8, i int) uint64 {
		return uint64(i/frameRows) & (uint64(1)<<bits - 1)
	}},
	{"ascending", func(_ *rand.Rand, bits uint8, i int) uint64 {
		return uint64(i) * 3 & (uint64(1)<<bits - 1)
	}},
	{"random", func(rng *rand.Rand, bits uint8, _ int) uint64 {
		return rng.Uint64() & (uint64(1)<<bits - 1)
	}},
	// Narrow frames with one full-width value each.
	{"outlier", func(rng *rand.Rand, bits uint8, i int) uint64 {
		if i%frameRows == 17 {
			return uint64(1)<<bits - 1
		}
		return rng.Uint64() & 3 & (uint64(1)<<bits - 1)
	}},
}

// forColumn builds a canonical FOR column of n rows from a pattern drawn at
// the given bit width: deltas rebased to minimum 0, packed at their exact
// width (which is 0 for a constant column).
func forColumn(rng *rand.Rand, delta func(*rand.Rand, uint8, int) uint64, bits uint8, n int) (packed []uint64, uw uint8) {
	deltas := make([]uint64, n)
	lo := ^uint64(0)
	for i := range deltas {
		deltas[i] = delta(rng, bits, i)
		lo = min(lo, deltas[i])
	}
	var hi uint64
	for i := range deltas {
		deltas[i] -= lo
		hi = max(hi, deltas[i])
	}
	uw = bitsForU64(hi)
	return packAll(n, uw, func(i int) uint64 { return deltas[i] }), uw
}

// TestFORFramesMatchReference: on every width, on row counts around the
// frame and refs-block boundaries and on every delta shape, the block
// writer's bytes are the reference writer's and the block reader returns
// the reference reader's words and maximum.
func TestFORFramesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for bits := uint8(0); bits <= 63; bits++ {
		for _, n := range []int{1, 63, 64, 65, 127, 128, 4097} {
			for _, pattern := range forPatterns {
				name := fmt.Sprintf("bits %d rows %d %s", bits, n, pattern.name)
				packed, uw := forColumn(rng, pattern.delta, bits, n)
				if uw == 0 {
					// A constant column has no frame streams: the column
					// codecs write and read the header alone.
					e := EncodedI64{Code: CodeFOR, N: n, Ref: 1<<64 - 5}
					var col bytes.Buffer
					writeEnc(&col, &e)
					var got, want EncodedI64
					if err := readEnc(&sliceReader{buf: col.Bytes()}, n, &got); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if err := refReadEncI64(&sliceReader{buf: col.Bytes()}, n, &want); err != nil {
						t.Fatalf("%s: reference: %v", name, err)
					}
					if !reflect.DeepEqual(got, want) || col.Len() != 10 {
						t.Fatalf("%s: constant column reads %+v, reference %+v, %d bytes", name, got, want, col.Len())
					}
					continue
				}
				var got, want bytes.Buffer
				writeFORFrames(&got, packed, uw, n)
				refWriteFORFrames(&want, packed, uw, n)
				if !bytes.Equal(got.Bytes(), want.Bytes()) {
					t.Fatalf("%s: frame bytes differ from the reference writer's", name)
				}
				if sh := forFrameShape(packed, uw, n); !reflect.DeepEqual(sh, refForFrameShape(packed, uw, n)) {
					t.Fatalf("%s: frame shape differs from the reference", name)
				}
				sr, rsr := &sliceReader{buf: got.Bytes()}, &sliceReader{buf: got.Bytes()}
				words, maxD, err := readFORFrames(sr, n, uw)
				rwords, rmaxD, rerr := refReadFORFrames(rsr, n, uw)
				if err != nil || rerr != nil {
					t.Fatalf("%s: read %v, reference %v", name, err, rerr)
				}
				if !reflect.DeepEqual(words, rwords) || maxD != rmaxD || !reflect.DeepEqual(words, packed) {
					t.Fatalf("%s: read back differs from the reference reader or the column", name)
				}
				if sr.remaining() != 0 || rsr.remaining() != 0 {
					t.Fatalf("%s: %d / %d bytes left unread", name, sr.remaining(), rsr.remaining())
				}
			}
		}
	}
}

// errClass names the sentinel a decode error wraps.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrTruncated):
		return "truncated"
	case errors.Is(err, ErrCorrupt):
		return "corrupt"
	}
	return "other"
}

// agreeWithReference holds one decode of the block codec to the reference
// decoder's on the same bytes: the same verdict and error class, and on
// success the same value.
func agreeWithReference(t *testing.T, what string, got, want any, err, rerr error) {
	t.Helper()
	if errClass(err) != errClass(rerr) {
		t.Fatalf("%s: %v, reference decoder %v", what, err, rerr)
	}
	if err == nil && !sameDecoded(got, want) {
		t.Fatalf("%s: decodes to %+v, reference decoder %+v", what, got, want)
	}
}

// sameDecoded is reflect.DeepEqual, except that a block's raw trust column
// compares by bit pattern: it may hold NaNs, which equal nothing (found by
// FuzzDecodeColumnBlock; the input is in its corpus as nan-raw-trust).
func sameDecoded(got, want any) bool {
	g, isBlock := got.(SegmentEnc)
	w, _ := want.(SegmentEnc)
	if !isBlock {
		return reflect.DeepEqual(got, want)
	}
	if len(g.Trust.Raw) != len(w.Trust.Raw) {
		return false
	}
	for i, v := range g.Trust.Raw {
		if math.Float32bits(v) != math.Float32bits(w.Trust.Raw[i]) {
			return false
		}
	}
	g.Trust.Raw, w.Trust.Raw = nil, nil
	return reflect.DeepEqual(g, w)
}

// FuzzReadFORFrames drives the frame reader and the reference reader with
// the same arbitrary bytes: they agree on whether the streams decode, on
// the packed words and maximum when they do and on the error class when
// they do not; neither panics or reads outside the payload (a slice bound
// would), and both leave the same bytes unread.
func FuzzReadFORFrames(f *testing.F) {
	rng := rand.New(rand.NewSource(9))
	for _, c := range []struct {
		bits uint8
		n    int
	}{{7, 64}, {12, 65}, {23, 200}, {40, 63}, {63, 130}, {3, 4097}} {
		packed, uw := forColumn(rng, forPatterns[2].delta, c.bits, c.n)
		var buf bytes.Buffer
		writeFORFrames(&buf, packed, uw, c.n)
		f.Add(buf.Bytes(), uint16(c.n), uw)
		f.Add(buf.Bytes()[:buf.Len()-1], uint16(c.n), uw)
		flip := append([]byte(nil), buf.Bytes()...)
		flip[len(flip)/2] ^= 0x10
		f.Add(flip, uint16(c.n), uw)
	}
	f.Add([]byte{}, uint16(1), uint8(1))

	f.Fuzz(func(t *testing.T, data []byte, rows uint16, uw uint8) {
		if rows == 0 || uw == 0 || uw > maxFORWidthI64 {
			return // the column codecs never ask for these
		}
		sr, rsr := &sliceReader{buf: data}, &sliceReader{buf: data}
		words, maxD, err := readFORFrames(sr, int(rows), uw)
		rwords, rmaxD, rerr := refReadFORFrames(rsr, int(rows), uw)
		agreeWithReference(t, "frames", words, rwords, err, rerr)
		if err == nil && (maxD != rmaxD || sr.pos != rsr.pos) {
			t.Fatalf("max %d at byte %d, reference %d at byte %d", maxD, sr.pos, rmaxD, rsr.pos)
		}
	})
}

// BenchmarkFORFrames times the frame codec alone — the disk frames of one
// 65,536-row FOR column to and from the packed form the kernels scan — at
// the column widths the generated log packs: end offsets (~13 bits in
// frames of 7-12), workers (12), trust patterns (23) and a wide time
// column (40). One iteration moves all four columns; ns/value is reported
// per width.
func BenchmarkFORFrames(b *testing.B) {
	const rows = 1 << 16
	widths := []uint8{7, 12, 23, 40}
	rng := rand.New(rand.NewSource(3))
	cols := make([]struct {
		packed []uint64
		uw     uint8
		disk   []byte
	}, len(widths))
	for i, bits := range widths {
		c := &cols[i]
		c.packed, c.uw = forColumn(rng, forPatterns[2].delta, bits, rows)
		var buf bytes.Buffer
		writeFORFrames(&buf, c.packed, c.uw, rows)
		c.disk = buf.Bytes()
	}
	report := func(b *testing.B, spent []time.Duration) {
		for i, bits := range widths {
			b.ReportMetric(float64(spent[i].Nanoseconds())/float64(b.N)/rows, fmt.Sprintf("ns/value-w%d", bits))
		}
	}
	b.Run("read", func(b *testing.B) {
		spent := make([]time.Duration, len(cols))
		for i := 0; i < b.N; i++ {
			for k := range cols {
				t0 := time.Now()
				if _, _, err := readFORFrames(&sliceReader{buf: cols[k].disk}, rows, cols[k].uw); err != nil {
					b.Fatal(err)
				}
				spent[k] += time.Since(t0)
			}
		}
		report(b, spent)
	})
	b.Run("write", func(b *testing.B) {
		spent := make([]time.Duration, len(cols))
		var buf bytes.Buffer
		for i := 0; i < b.N; i++ {
			for k := range cols {
				buf.Reset()
				t0 := time.Now()
				writeFORFrames(&buf, cols[k].packed, cols[k].uw, rows)
				spent[k] += time.Since(t0)
			}
		}
		report(b, spent)
	})
}
