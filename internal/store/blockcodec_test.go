package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// TestBlockCodecMatchesPerRow holds unpack64/pack64 and the frame
// reader to the per-row reference at every width, on full frames and on
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
			// The words as a dictionary column's codes, read through the
			// frame reader.
			e := EncodedU32{Code: CodeDict, N: n, Width: width, Packed: got}
			var frame [frameRows]uint64
			for lo := 0; lo < n; lo += frameRows {
				if base := e.Frame(&frame, lo/frameRows); base != 0 {
					t.Fatalf("width %d rows %d: dictionary frame base %d", width, n, base)
				}
				for i := lo; i < min(lo+frameRows, n); i++ {
					if frame[i-lo] != unpackAt(want, width, i) {
						t.Fatalf("width %d rows %d: row %d unpacks to %d, per-row reference %d", width, n, i, frame[i-lo], unpackAt(want, width, i))
					}
				}
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
	// Width-0 frames between wide ones.
	{"gaps", func(rng *rand.Rand, bits uint8, i int) uint64 {
		if i/frameRows%3 == 1 {
			return 0
		}
		return rng.Uint64() & (uint64(1)<<bits - 1)
	}},
}

// forColumn builds a canonical FOR column of n rows from a pattern drawn at
// the given bit width: int64 values rebased to minimum 0, so that they are
// their own deltas. It returns the column in the frame form a seal builds
// and the values packed at their exact uniform width uw (0 for a constant
// column) — the form the reference codec reads and writes.
func forColumn(rng *rand.Rand, delta func(*rand.Rand, uint8, int) uint64, bits uint8, n int) (e EncodedI64, packed []uint64, uw uint8) {
	vals := make([]int64, n)
	lo := ^uint64(0)
	for i := range vals {
		d := delta(rng, bits, i)
		vals[i] = int64(d)
		lo = min(lo, d)
	}
	for i := range vals {
		vals[i] -= int64(lo)
	}
	e = forEncoded(vals)
	return e, packAll(n, e.Width, func(i int) uint64 { return uint64(vals[i]) }), e.Width
}

// forEncoded builds the FOR form of vals, whatever code the chooser would
// pick for them.
func forEncoded[T value](vals []T) Encoded[T] {
	tr := traitsOf[T]()
	var sh shape
	scanShape(&sh, vals, tr)
	e := Encoded[T]{Code: CodeFOR, N: len(vals), Ref: sh.min ^ tr.sign, Width: sh.uw}
	if e.Width > 0 {
		e.packFrames(vals, tr, sh.frameBits)
	}
	return e
}

// TestFORFramesMatchReference: on every width, on row counts around the
// frame and refs-block boundaries and on every delta shape, the frames a
// seal builds validate, the writer's bytes are the reference writer's
// (from the uniform-width packing), and the reader keeps exactly the
// sealed frames while the reference reader decodes the same values.
func TestFORFramesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for bits := uint8(0); bits <= 63; bits++ {
		for _, n := range []int{1, 63, 64, 65, 127, 128, 4097} {
			for _, pattern := range forPatterns {
				name := fmt.Sprintf("bits %d rows %d %s", bits, n, pattern.name)
				e, packed, uw := forColumn(rng, pattern.delta, bits, n)
				if err := e.validate(n); err != nil {
					t.Fatalf("%s: sealed frames fail validate: %v", name, err)
				}
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
					if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(got, e) || col.Len() != 10 {
						t.Fatalf("%s: constant column reads %+v, reference %+v, %d bytes", name, got, want, col.Len())
					}
					continue
				}
				var got, want bytes.Buffer
				writeFORFrames(&got, &e)
				refWriteFORFrames(&want, packed, uw, n)
				if !bytes.Equal(got.Bytes(), want.Bytes()) {
					t.Fatalf("%s: frame bytes differ from the reference writer's", name)
				}
				sr, rsr := &sliceReader{buf: got.Bytes()}, &sliceReader{buf: got.Bytes()}
				back := EncodedI64{Code: CodeFOR, N: n, Width: uw}
				err := readFORFrames(sr, &back)
				rwords, rmaxD, rerr := refReadFORFrames(rsr, n, uw)
				if err != nil || rerr != nil {
					t.Fatalf("%s: read %v, reference %v", name, err, rerr)
				}
				if !reflect.DeepEqual(back, e) {
					t.Fatalf("%s: read back differs from the sealed frames", name)
				}
				agreeWithFrames(t, name, &back, rwords, rmaxD)
				if sr.remaining() != 0 || rsr.remaining() != 0 {
					t.Fatalf("%s: %d / %d bytes left unread", name, sr.remaining(), rsr.remaining())
				}
			}
		}
	}
}

// TestFORFramesRejectNonCanonical forges uint32 FOR columns of 65 rows —
// a full frame and a one-row one — that break each rule of the canonical
// form in turn, and holds both readers to ErrCorrupt on every one.
func TestFORFramesRejectNonCanonical(t *testing.T) {
	// forge writes the column: code, column width, reference, then the
	// frame widths, the reference offsets and the payload, each frame's
	// deltas given as (first value, the rest).
	forge := func(ref uint32, uw uint8, widths []uint8, refOffs []uint64, first [2]uint64, rest uint64) []byte {
		var b bytes.Buffer
		b.Write([]byte{byte(CodeFOR), uw})
		binary.Write(&b, binary.LittleEndian, ref)
		b.Write(widths)
		bw := bitWriter{buf: &b}
		for _, off := range refOffs {
			bw.write(off, uw)
		}
		bw.flush()
		for f, fw := range widths {
			bw.write(first[f], fw)
			for i := 1; i < 64 && f == 0; i++ {
				bw.write(rest, fw)
			}
		}
		bw.flush()
		return b.Bytes()
	}
	cases := map[string][]byte{
		// Frame 0 holds 0 and 3 at width 2, frame 1 the value 5 = 4+1.
		"canonical":               forge(10, 3, []uint8{2, 0}, []uint64{0, 5}, [2]uint64{0, 0}, 3),
		"frame minimum not 0":     forge(10, 3, []uint8{2, 0}, []uint64{0, 5}, [2]uint64{1, 0}, 3),
		"frame width not exact":   forge(10, 3, []uint8{3, 0}, []uint64{0, 5}, [2]uint64{0, 0}, 3),
		"frame wider than column": forge(10, 3, []uint8{4, 0}, []uint64{0, 5}, [2]uint64{0, 0}, 8),
		"column minimum not Ref":  forge(10, 3, []uint8{2, 0}, []uint64{1, 5}, [2]uint64{0, 0}, 3),
		"column width not exact":  forge(10, 4, []uint8{2, 0}, []uint64{0, 5}, [2]uint64{0, 0}, 3),
		"delta past column width": forge(10, 3, []uint8{2, 0}, []uint64{6, 0}, [2]uint64{0, 0}, 3),
		"value past MaxUint32":    forge(math.MaxUint32-4, 3, []uint8{2, 0}, []uint64{0, 5}, [2]uint64{0, 0}, 3),
	}
	for name, disk := range cases {
		for _, r := range []struct {
			name   string
			decode func([]byte, int) error
		}{{"block reader", errOf(u32Codec.decode)}, {"reference reader", errOf(u32Codec.refDecode)}} {
			err := r.decode(disk, 65)
			if name == "canonical" {
				if err != nil {
					t.Fatalf("%s: canonical column: %v", r.name, err)
				}
			} else if !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s: %s: %v, want ErrCorrupt", r.name, name, err)
			}
		}
	}
}

// agreeWithFrames holds a FOR column read with reference 0 to what the
// reference reader made of the same bytes: its uniform-width words and
// maximum delta.
func agreeWithFrames(t *testing.T, what string, e *EncodedI64, rwords []uint64, rmaxD uint64) {
	t.Helper()
	vals := make([]int64, e.N)
	e.decodeInto(vals)
	maxD := uint64(0)
	for i, v := range vals {
		if want := unpackAt(rwords, e.Width, i); uint64(v) != want {
			t.Fatalf("%s: row %d decodes to %d, reference decoder %d", what, i, v, want)
		}
		maxD = max(maxD, uint64(v))
	}
	if maxD != rmaxD {
		t.Fatalf("%s: maximum delta %d, reference decoder %d", what, maxD, rmaxD)
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

// agreeWithReference holds one decode of a block to the reference
// decoder's on the same bytes: the same verdict and error class, and on
// success the same values in every column.
func agreeWithReference(t *testing.T, got, want *SegmentEnc, err, rerr error) {
	t.Helper()
	if errClass(err) != errClass(rerr) {
		t.Fatalf("block: %v, reference decoder %v", err, rerr)
	}
	if err != nil {
		return
	}
	var cols columns
	cols.grow(got.Rows)
	got.materializeInto(&cols, 0)
	for i := 0; i < got.Rows; i++ {
		// Trust compares by bit pattern: a raw trust column may hold NaNs,
		// which equal nothing (found by FuzzDecodeColumnBlock; the input is
		// in its corpus as nan-raw-trust).
		ref := [...]uint64{uint64(valueU32(&want.Batch, i)), uint64(valueU32(&want.TaskType, i)), uint64(valueU32(&want.Item, i)),
			uint64(valueU32(&want.Worker, i)), uint64(valueU32(&want.Answer, i)), uint64(valueI64(&want.Start, i)),
			uint64(valueI64(&want.EndOff, i)), uint64(math.Float32bits(valueF32(&want.Trust, i)))}
		blk := [...]uint64{uint64(cols.batch[i]), uint64(cols.taskType[i]), uint64(cols.item[i]), uint64(cols.worker[i]),
			uint64(cols.answer[i]), uint64(cols.start[i]), uint64(cols.dur[i]), uint64(math.Float32bits(cols.trust[i]))}
		if ref != blk {
			t.Fatalf("block: row %d decodes to %v, reference decoder %v", i, blk, ref)
		}
	}
}

// frameCorruptions are the ways TestCheckFramesMatchesExact and the
// FuzzReadFORFrames seeds break frame f of a canonical FOR column, each
// aimed at one lane test: a least lane that is not zero, a top bit clear
// in every lane, a reference whose frame passes the column width, and the
// reference of the column's top frame moved so its bounds cannot settle
// the column-width check, once still inside the width and once one past
// it; and its lanes lowered so that no frame reaches the column's top bit.
var frameCorruptions = []struct {
	name  string
	apply func(e frameColumn, f int)
}{
	{"least lane nonzero", func(e frameColumn, f int) {
		e.setLanes(f, func(d uint64) uint64 { return max(d, 1) })
	}},
	{"top bit clear in every lane", func(e frameColumn, f int) {
		w := e.frameWidth(f)
		e.setLanes(f, func(d uint64) uint64 { return d &^ (1 << (w - 1)) })
	}},
	{"reference past the column width", func(e frameColumn, f int) {
		e.setRefOff(f, e.maxUW()-(uint64(1)<<e.frameWidth(f)-1)/2)
	}},
	{"top frame inside the width", func(e frameColumn, _ int) {
		f, hi := e.topFrame()
		e.setRefOff(f, e.maxUW()-hi)
	}},
	{"top frame past the width", func(e frameColumn, _ int) {
		f, hi := e.topFrame()
		e.setRefOff(f, e.maxUW()-hi+1)
	}},
	{"top frame short of the top bit", func(e frameColumn, _ int) {
		f, _ := e.topFrame()
		if half, off := e.maxUW()/2+1, e.refOff(f); off < half {
			e.setLanes(f, func(d uint64) uint64 { return min(d, half-1-off) })
		}
	}},
}

// frameColumn is what the corruptions need of a FOR column of any type.
type frameColumn interface {
	frameWidth(f int) uint8
	maxUW() uint64
	setLanes(f int, fn func(uint64) uint64)
	setRefOff(f int, off uint64)
	refOff(f int) uint64
	topFrame() (f int, hi uint64)
}

func (e *Encoded[T]) frameWidth(f int) uint8 { _, _, w := e.frame(f); return w }

func (e *Encoded[T]) maxUW() uint64 { return uint64(1)<<e.Width - 1 }

// setLanes rewrites the deltas of frame f's rows in place, at its width.
func (e *Encoded[T]) setLanes(f int, fn func(uint64) uint64) {
	var blk [frameRows]uint64
	e.Frame(&blk, f)
	rows := min(frameRows, e.N-f*frameRows)
	for i := range blk[:rows] {
		blk[i] = fn(blk[i])
	}
	clear(blk[rows:])
	_, off, w := e.frame(f)
	packFrame(e.Packed[off:], &blk, w)
}

func (e *Encoded[T]) refOff(f int) uint64 { ref, _, _ := e.frame(f); return ref - e.Ref }

func (e *Encoded[T]) setRefOff(f int, refOff uint64) {
	_, off, w := e.frame(f)
	e.setFrame(f, e.Ref+refOff, off, w)
}

// topFrame returns the frame holding the column's largest delta above Ref,
// and that frame's largest delta.
func (e *Encoded[T]) topFrame() (top int, hi uint64) {
	var vals [frameRows]uint64
	best := uint64(0)
	for f := 0; f < len(e.frames)/2; f++ {
		ref, _, fhi := e.frameExtremes(&vals, f)
		if ref-e.Ref+fhi >= best {
			top, hi, best = f, fhi, ref-e.Ref+fhi
		}
	}
	return top, hi
}

// canonicalFOR seals a FOR column whose deltas above a random reference
// are ords, through the seal's own frame packer.
func canonicalFOR[T value](rng *rand.Rand, ords []uint64, width uint8) Encoded[T] {
	tr := traitsOf[T]()
	base := rng.Uint64() % (tr.top() - (uint64(1)<<width - 1) + 1)
	vals := make([]T, len(ords))
	flipped := make([]uint64, len(ords))
	for i, d := range ords {
		flipped[i] = (base + d) ^ tr.sign
	}
	storeBlock(vals, flipped, 0)
	return forEncoded(vals)
}

// checkFramesAgree holds the lane-test checker to the exact one on e: the
// same verdict, and the exact path's error text.
func checkFramesAgree[T value](t *testing.T, what string, e *Encoded[T]) {
	t.Helper()
	nf := (e.N + frameRows - 1) / frameRows
	want := e.checkValues(nf)
	if got := e.acceptFrames(nf); got != (want == nil) {
		t.Fatalf("%s: lane tests accept %v, exact checker says %v", what, got, want)
	}
	if err := e.checkFrames(); fmt.Sprint(err) != fmt.Sprint(want) {
		t.Fatalf("%s: checkFrames says %v, exact checker %v", what, err, want)
	}
}

// TestCheckFramesMatchesExact runs the lane-test checker and the exact,
// unpacking one on every width of each FOR type, on columns of full frames
// and on columns whose last frame is short: canonical columns, columns
// whose only frame to reach the column's top bit does so with bounds too
// loose to tell, and each frameCorruptions entry on a full and on the
// partial frame. Both must agree on the verdict and the error text.
func TestCheckFramesMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for _, typ := range []struct {
		name  string
		max   uint8
		check func(t *testing.T, what string, ords []uint64, width uint8, corrupt func(frameColumn))
	}{
		{"uint32", 32, checkTypedFrames[uint32]},
		{"int64", maxFORWidthI64, checkTypedFrames[int64]},
		{"float32", 32, checkTypedFrames[float32]},
	} {
		for w := uint8(1); w <= typ.max; w++ {
			span := uint64(1)<<w - 1
			for _, n := range []int{3 * frameRows, 2*frameRows + 17} {
				random := make([]uint64, n)
				for i := range random {
					random[i] = rng.Uint64() & span
				}
				random[0], random[n-1] = 0, span
				type shape struct {
					name string
					ords []uint64
				}
				shapes := []shape{{"random", random}}
				if w >= 3 {
					// Frame 0 stays below 2^(w-2); frame 1 reaches the top
					// bit from a reference below 2^(w-2), at width w-1.
					reach := make([]uint64, n)
					for i := range reach {
						reach[i] = rng.Uint64() & (span >> 2)
						if i/frameRows == 1 {
							reach[i] = span>>2 + rng.Uint64()&(span>>1)
						}
					}
					reach[0], reach[frameRows] = 0, span>>2
					reach[frameRows+1] = span>>2 + span>>1
					shapes = append(shapes, shape{"loose top frame", reach})
				}
				for _, shape := range shapes {
					what := fmt.Sprintf("%s width %d rows %d %s", typ.name, w, n, shape.name)
					typ.check(t, what, shape.ords, w, nil)
					for _, c := range frameCorruptions {
						// The second full frame, and the last: partial
						// where the rows end mid-frame.
						for _, f := range []int{1, (n - 1) / frameRows} {
							typ.check(t, fmt.Sprintf("%s: %s in frame %d", what, c.name, f), shape.ords, w, func(e frameColumn) { c.apply(e, f) })
						}
					}
				}
			}
		}
	}
}

// checkTypedFrames seals ords as a column of T, applies corrupt (nil
// leaves it canonical) and holds the two checkers to each other.
func checkTypedFrames[T value](t *testing.T, what string, ords []uint64, width uint8, corrupt func(frameColumn)) {
	t.Helper()
	e := canonicalFOR[T](rand.New(rand.NewSource(int64(len(ords))*64+int64(width))), ords, width)
	if e.Code != CodeFOR || e.Width != width {
		t.Fatalf("%s: sealed code %d width %d", what, e.Code, e.Width)
	}
	if corrupt == nil {
		if err := e.checkFrames(); err != nil {
			t.Fatalf("%s: canonical column rejected: %v", what, err)
		}
	} else {
		corrupt(&e)
	}
	checkFramesAgree(t, what, &e)
}

// FuzzReadFORFrames drives the frame reader and the reference reader with
// the same arbitrary bytes: they agree on whether the streams decode, on
// the error class when they do not and on the values when they do; neither
// panics or reads outside the payload (a slice bound would), and both
// consume the same bytes.
func FuzzReadFORFrames(f *testing.F) {
	rng := rand.New(rand.NewSource(9))
	for _, c := range []struct {
		bits uint8
		n    int
	}{{7, 64}, {12, 65}, {23, 200}, {40, 63}, {63, 130}, {3, 4097}} {
		e, _, uw := forColumn(rng, forPatterns[2].delta, c.bits, c.n)
		var buf bytes.Buffer
		writeFORFrames(&buf, &e)
		f.Add(buf.Bytes(), uint16(c.n), uw)
		f.Add(buf.Bytes()[:buf.Len()-1], uint16(c.n), uw)
		flip := append([]byte(nil), buf.Bytes()...)
		flip[len(flip)/2] ^= 0x10
		f.Add(flip, uint16(c.n), uw)
	}
	f.Add([]byte{}, uint16(1), uint8(1))
	// One column per frameCorruptions entry, broken in its second frame.
	ords := make([]uint64, 2*frameRows+2)
	for i := range ords {
		ords[i] = rng.Uint64() & (1<<12 - 1)
	}
	ords[0], ords[frameRows+1] = 0, 1<<12-1
	for _, c := range frameCorruptions {
		e := canonicalFOR[int64](rng, ords, 12)
		c.apply(&e, 1)
		var buf bytes.Buffer
		writeFORFrames(&buf, &e)
		f.Add(buf.Bytes(), uint16(e.N), e.Width)
	}

	f.Fuzz(func(t *testing.T, data []byte, rows uint16, uw uint8) {
		if rows == 0 || uw == 0 || uw > maxFORWidthI64 {
			return // the column codecs never ask for these
		}
		sr, rsr := &sliceReader{buf: data}, &sliceReader{buf: data}
		e := EncodedI64{Code: CodeFOR, N: int(rows), Width: uw}
		err := readFORFrames(sr, &e)
		rwords, rmaxD, rerr := refReadFORFrames(rsr, int(rows), uw)
		if errClass(err) != errClass(rerr) {
			t.Fatalf("frames: %v, reference reader %v", err, rerr)
		}
		if sr.pos != rsr.pos {
			t.Fatalf("read to byte %d, reference reader to %d", sr.pos, rsr.pos)
		}
		if err == nil {
			agreeWithFrames(t, "frames", &e, rwords, rmaxD)
		}
	})
}

// BenchmarkFORFrames times the frame codec alone — the disk frames of one
// 65,536-row FOR column to and from the frame form the kernels scan — at
// the column widths the generated log packs: end offsets (~13 bits in
// frames of 7-12), workers (12), trust patterns (23) and a wide time
// column (40). One iteration moves all four columns; ns/value is reported
// per width.
func BenchmarkFORFrames(b *testing.B) {
	const rows = 1 << 16
	widths := []uint8{7, 12, 23, 40}
	rng := rand.New(rand.NewSource(3))
	cols := make([]struct {
		enc  EncodedI64
		disk []byte
	}, len(widths))
	for i, bits := range widths {
		c := &cols[i]
		c.enc, _, _ = forColumn(rng, forPatterns[2].delta, bits, rows)
		var buf bytes.Buffer
		writeFORFrames(&buf, &c.enc)
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
				e := EncodedI64{Code: CodeFOR, N: rows, Width: cols[k].enc.Width}
				if err := readFORFrames(&sliceReader{buf: cols[k].disk}, &e); err != nil {
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
				writeFORFrames(&buf, &cols[k].enc)
				spent[k] += time.Since(t0)
			}
		}
		report(b, spent)
	})
}
