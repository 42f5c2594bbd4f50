package store

import (
	"fmt"
	"math"
	"math/bits"
)

// Lightweight per-segment column encodings. Each sealed segment carries,
// alongside (or instead of) its raw arrays, a compressed form chosen per
// column by measured serialized cost:
//
//   - CodeRLE:  (value, cumulative-end) runs. Batch rows are contiguous
//     per batch and answers repeat per assignment, so the run count —
//     not the row count — is what those columns pay for. On disk the
//     runs themselves are bit-packed (frame-of-reference values plus
//     run lengths).
//   - CodeDict: a sorted dictionary of at most dictMaxEntries distinct
//     values plus bit-packed indexes. Enum-like columns pack to a few
//     bits per row, and predicates resolve to a code-set mask tested
//     once per segment.
//   - CodeFOR:  frame-of-reference delta bit-packing: values store as
//     offsets from the column minimum at a fixed bit width. In memory
//     the width is uniform (random access stays O(1) and the scan
//     kernels stay simple); on disk the column is cut into 64-row
//     frames, each with its own reference and width, which captures the
//     locality of clustered columns (timestamps, items) that one global
//     width cannot.
//   - CodeRaw:  the fixed-width fallback when no encoding pays.
//
// Trust is a float32 column; its IEEE-754 bit patterns are encoded with
// the same machinery (EncodedF32): generated trust scores cluster in a
// narrow value band, so the patterns span far fewer than 32 bits even
// though almost every value is distinct.
//
// The query engine scans these forms directly (see internal/query); the
// snapshot codec persists them (see codec_enc.go); and the store
// materializes raw arrays lazily, per column, for consumers that need
// flat slices. Encoders are lossless and deterministic — a pure function
// of the column values — so snapshot bytes stay a pure function of the
// store contents.

// ColumnCode identifies how one encoded column is represented.
type ColumnCode uint8

const (
	// CodeRaw holds the values as a plain fixed-width array.
	CodeRaw ColumnCode = iota
	// CodeRLE holds (value, cumulative end) runs.
	CodeRLE
	// CodeDict holds bit-packed indexes into a small sorted dictionary.
	CodeDict
	// CodeFOR holds bit-packed offsets from a reference (the column min).
	CodeFOR
)

// dictMaxEntries bounds dictionary size so a predicate's matching-code set
// always fits one uint64 mask.
const dictMaxEntries = 64

// maxFORWidthI64 bounds the packed width of int64 FOR columns so that
// Ref + delta arithmetic stays in int64 territory and is overflow-checked
// at decode time.
const maxFORWidthI64 = 63

// frameRows is the disk frame size of FOR columns: every 64 rows carry
// their own reference offset and bit width.
const frameRows = 64

// EncodedU32 is one uint32 column of one segment in encoded form. Fields
// are exported for the scan kernels in internal/query; they must be
// treated as immutable.
type EncodedU32 struct {
	Code ColumnCode
	N    int

	// Raw is the fixed-width fallback (CodeRaw).
	Raw []uint32

	// RunVals/RunEnds are the CodeRLE runs: run i holds RunVals[i] for
	// rows [RunEnds[i-1], RunEnds[i]). RunEnds ascends strictly and ends
	// at N; runs are maximal (adjacent run values differ) but otherwise
	// arbitrary — batch rows are contiguous per batch, yet batches may
	// appear in any ID order.
	RunVals []uint32
	RunEnds []uint32

	// Dict is the CodeDict sorted distinct-value table; packed values are
	// indexes into it.
	Dict []uint32

	// Ref is the CodeFOR frame of reference (the column min).
	Ref uint32

	// Width is the packed bit width (CodeDict, CodeFOR); zero means every
	// row decodes to the same value and Packed is empty.
	Width uint8

	// Packed holds the bit-packed little-endian values: value i occupies
	// bits [i*Width, (i+1)*Width) of the concatenated words.
	Packed []uint64
}

// EncodedI64 is one int64 column of one segment in encoded form
// (CodeRaw or CodeFOR only).
type EncodedI64 struct {
	Code   ColumnCode
	N      int
	Raw    []int64
	Ref    int64
	Width  uint8
	Packed []uint64
}

// EncodedF32 is one float32 column of one segment, encoded over the
// IEEE-754 bit patterns (CodeRaw, CodeDict or CodeFOR).
type EncodedF32 struct {
	Code   ColumnCode
	N      int
	Raw    []float32
	Dict   []uint32 // sorted distinct bit patterns
	Ref    uint32   // pattern frame of reference
	Width  uint8
	Packed []uint64
}

// SegmentEnc holds every encoded column of one segment. The End column is
// stored as EndOff — the per-row end-start offset — because task
// durations span far fewer bits than absolute timestamps; End values
// reconstruct as Start + EndOff.
type SegmentEnc struct {
	Rows int

	Batch    EncodedU32
	TaskType EncodedU32
	Item     EncodedU32
	Worker   EncodedU32
	Answer   EncodedU32

	Start  EncodedI64
	EndOff EncodedI64

	Trust EncodedF32
}

// u32s returns the five uint32 columns in disk order, the order
// columns.u32s lists the raw ones in.
func (e *SegmentEnc) u32s() [5]*EncodedU32 {
	return [5]*EncodedU32{&e.Batch, &e.TaskType, &e.Item, &e.Worker, &e.Answer}
}

// packedWords returns how many uint64 words n values of the given width
// occupy.
func packedWords(n int, width uint8) int {
	return (n*int(width) + 63) / 64
}

// bitsForU64 returns the bit width needed to represent v.
func bitsForU64(v uint64) uint8 { return uint8(bits.Len64(v)) }

// The block codec. 64 values of width w occupy exactly w words, so a
// packed column is a sequence of frames — frame f covers rows
// [64f, 64f+64) and starts at word f*w — and so is the disk payload of
// every full FOR frame (codec_enc.go). unpack64 and pack64 move one frame
// with whole-word loads and shifts; they are the only code that extracts
// or deposits packed values, in this package and in internal/query.

// unpack64 extracts the 64 width-bit values packed LSB-first in
// src[:width] (1 <= width <= 64; width 0 yields zeros).
func unpack64(dst *[frameRows]uint64, src []uint64, width uint8) {
	switch width {
	case 0:
		*dst = [frameRows]uint64{}
		return
	case 64:
		copy(dst[:], src[:frameRows])
		return
	}
	w := uint(width)
	mask := uint64(1)<<w - 1
	src = src[:w]
	// acc holds the have low bits not yet handed out; a value that
	// straddles a word boundary takes its high bits from the next word.
	var acc uint64
	have, j := uint(0), 0
	for i := range dst {
		if have < w {
			next := src[j]
			j++
			dst[i] = (acc | next<<(have&63)) & mask
			acc = next >> ((w - have) & 63)
			have += 64 - w
		} else {
			dst[i] = acc & mask
			acc >>= w & 63
			have -= w
		}
	}
}

// pack64 deposits 64 values, each below 2^width, LSB-first into
// dst[:width] (1 <= width <= 64), overwriting it.
func pack64(dst []uint64, src *[frameRows]uint64, width uint8) {
	if width == 64 {
		copy(dst[:frameRows], src[:])
		return
	}
	w := uint(width)
	dst = dst[:w]
	var acc uint64
	have, j := uint(0), 0
	for _, v := range src {
		acc |= v << (have & 63)
		have += w
		if have >= 64 {
			dst[j] = acc
			j++
			have -= 64
			// What of v did not fit; nothing (v < 2^w) when v ended on
			// the word boundary.
			acc = v >> ((w - have) & 63)
		}
	}
}

// UnpackFrame extracts frame f — rows [64f, 64f+64) — of a packed
// column. The column's last frame may hold fewer than 64 rows; the values
// past them are unspecified.
func UnpackFrame(dst *[frameRows]uint64, packed []uint64, width uint8, f int) {
	src := packed[f*int(width):]
	if len(src) < int(width) {
		var pad [frameRows]uint64
		copy(pad[:], src)
		src = pad[:]
	}
	unpack64(dst, src, width)
}

// packFrame deposits frame f of a packed column of the given width. The
// column's last frame may be short: src must be zero past its rows.
func packFrame(packed []uint64, src *[frameRows]uint64, width uint8, f int) {
	dst := packed[f*int(width):]
	if len(dst) < int(width) {
		var pad [frameRows]uint64
		pack64(pad[:], src, width)
		copy(dst, pad[:])
		return
	}
	pack64(dst, src, width)
}

// packAll bit-packs n values produced by get.
func packAll(n int, width uint8, get func(i int) uint64) []uint64 {
	if n == 0 || width == 0 {
		return nil
	}
	words := make([]uint64, packedWords(n, width))
	var vals [frameRows]uint64
	for lo := 0; lo < n; lo += frameRows {
		m := min(frameRows, n-lo)
		for i := 0; i < m; i++ {
			vals[i] = get(lo + i)
		}
		clear(vals[m:])
		packFrame(words, &vals, width, lo/frameRows)
	}
	return words
}

// maxPackedValue scans a packed array for its maximum value; validation
// uses it to bound dictionary codes and FOR deltas before any kernel
// trusts them.
func maxPackedValue(words []uint64, width uint8, n int) uint64 {
	var m uint64
	var vals [frameRows]uint64
	for lo := 0; lo < n; lo += frameRows {
		UnpackFrame(&vals, words, width, lo/frameRows)
		for _, v := range vals[:min(frameRows, n-lo)] {
			m = max(m, v)
		}
	}
	return m
}

// u32Shape is the single-pass scan the uint32 encoder chooses from:
// column bounds, maximal-run statistics, the small distinct set, and the
// per-disk-frame spans.
type u32Shape struct {
	minV, maxV uint32
	runs       int
	maxRunLen  int
	set        enumSet
	frameBits  int64 // sum over frames of frameWidth*frameRows
	frames     int
}

func scanU32(vals []uint32) u32Shape {
	sh := u32Shape{minV: vals[0], maxV: vals[0], runs: 1, maxRunLen: 1, set: enumSet{cap: dictMaxEntries}}
	sh.set.add(vals[0])
	runLen := 1
	for lo := 0; lo < len(vals); lo += frameRows {
		hi := min(lo+frameRows, len(vals))
		fmin, fmax := vals[lo], vals[lo]
		for i := lo; i < hi; i++ {
			v := vals[i]
			fmin, fmax = min(fmin, v), max(fmax, v)
			if i > 0 {
				if v != vals[i-1] {
					sh.runs++
					sh.maxRunLen = max(sh.maxRunLen, runLen)
					runLen = 1
				} else {
					runLen++
				}
			}
			sh.set.add(v)
		}
		sh.minV, sh.maxV = min(sh.minV, fmin), max(sh.maxV, fmax)
		sh.frameBits += int64(bitsForU64(uint64(fmax-fmin))) * int64(hi-lo)
		sh.frames++
	}
	sh.maxRunLen = max(sh.maxRunLen, runLen)
	return sh
}

// encodeU32Column picks the cheapest encoding for one uint32 column,
// costing each candidate at its serialized (disk) size. The choice is a
// pure function of the values, which keeps snapshot bytes deterministic.
func encodeU32Column(vals []uint32) EncodedU32 {
	n := len(vals)
	if n == 0 {
		return EncodedU32{Code: CodeRaw}
	}
	sh := scanU32(vals)
	uw := bitsForU64(uint64(sh.maxV - sh.minV))

	rawBits := int64(n) * 32
	// Packed RLE: run values FOR-packed at the column width plus run
	// lengths (stored as length-1) at the max-length width. Columns
	// without real run structure (runs approaching one per row) degrade
	// to FOR — same bytes, but the run-level scan kernel would lose.
	wl := bitsForU64(uint64(sh.maxRunLen - 1))
	rleBits := int64(math.MaxInt64)
	if 2*sh.runs <= n {
		rleBits = int64(sh.runs)*int64(uw+wl) + 96
	}
	// Frame FOR: per-frame payload plus per-frame reference and width.
	forBits := sh.frameBits + int64(sh.frames)*int64(uint8(8)+uw) + 48
	dictBits := int64(math.MaxInt64)
	var dictWidth uint8
	if !sh.set.overflow {
		dictWidth = bitsForU64(uint64(len(sh.set.vals) - 1))
		dictBits = int64(n)*int64(dictWidth) + int64(len(sh.set.vals))*32 + 24
	}

	best := rawBits
	for _, c := range []int64{rleBits, dictBits, forBits} {
		if c < best {
			best = c
		}
	}
	switch best {
	case rleBits:
		e := EncodedU32{Code: CodeRLE, N: n,
			RunVals: make([]uint32, 0, sh.runs), RunEnds: make([]uint32, 0, sh.runs)}
		for i := 0; i < n; i++ {
			if i == 0 || vals[i] != vals[i-1] {
				if i > 0 {
					e.RunEnds = append(e.RunEnds, uint32(i))
				}
				e.RunVals = append(e.RunVals, vals[i])
			}
		}
		e.RunEnds = append(e.RunEnds, uint32(n))
		return e
	case dictBits:
		dict := append([]uint32(nil), sh.set.vals...)
		e := EncodedU32{Code: CodeDict, N: n, Dict: dict, Width: dictWidth}
		e.Packed = packAll(n, dictWidth, func(i int) uint64 {
			lo, hi := 0, len(dict)
			for lo < hi {
				mid := (lo + hi) / 2
				if dict[mid] < vals[i] {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			return uint64(lo)
		})
		return e
	case forBits:
		e := EncodedU32{Code: CodeFOR, N: n, Ref: sh.minV, Width: uw}
		e.Packed = packAll(n, uw, func(i int) uint64 { return uint64(vals[i] - sh.minV) })
		return e
	}
	return EncodedU32{Code: CodeRaw, N: n, Raw: append([]uint32(nil), vals...)}
}

// encodeI64Column picks frame FOR or raw for one int64 column.
func encodeI64Column(vals []int64) EncodedI64 {
	n := len(vals)
	if n == 0 {
		return EncodedI64{Code: CodeRaw}
	}
	minV, maxV := vals[0], vals[0]
	var frameBits int64
	frames := 0
	for lo := 0; lo < n; lo += frameRows {
		hi := min(lo+frameRows, n)
		fmin, fmax := vals[lo], vals[lo]
		for _, v := range vals[lo:hi] {
			fmin, fmax = min(fmin, v), max(fmax, v)
		}
		minV, maxV = min(minV, fmin), max(maxV, fmax)
		frameBits += int64(bitsForU64(uint64(fmax)-uint64(fmin))) * int64(hi-lo)
		frames++
	}
	span := uint64(maxV) - uint64(minV)
	uw := bitsForU64(span)
	forBits := frameBits + int64(frames)*int64(8+uw) + 80
	if uw <= maxFORWidthI64 && forBits < int64(n)*64 {
		e := EncodedI64{Code: CodeFOR, N: n, Ref: minV, Width: uw}
		e.Packed = packAll(n, uw, func(i int) uint64 { return uint64(vals[i]) - uint64(minV) })
		return e
	}
	return EncodedI64{Code: CodeRaw, N: n, Raw: append([]int64(nil), vals...)}
}

// encodeF32Column encodes a float32 column over its bit patterns:
// dictionary when few values are distinct, frame-of-reference packing
// when the patterns span a narrow band (clustered positive values do),
// raw otherwise.
func encodeF32Column(vals []float32) EncodedF32 {
	n := len(vals)
	if n == 0 {
		return EncodedF32{Code: CodeRaw}
	}
	pat := func(i int) uint32 { return math.Float32bits(vals[i]) }
	minP, maxP := pat(0), pat(0)
	set := enumSet{cap: dictMaxEntries}
	var frameBits int64
	frames := 0
	for lo := 0; lo < n; lo += frameRows {
		hi := min(lo+frameRows, n)
		fmin, fmax := pat(lo), pat(lo)
		for i := lo; i < hi; i++ {
			p := pat(i)
			fmin, fmax = min(fmin, p), max(fmax, p)
			set.add(p)
		}
		minP, maxP = min(minP, fmin), max(maxP, fmax)
		frameBits += int64(bitsForU64(uint64(fmax-fmin))) * int64(hi-lo)
		frames++
	}
	uw := bitsForU64(uint64(maxP - minP))
	rawBits := int64(n) * 32
	forBits := frameBits + int64(frames)*int64(8+uw) + 48
	dictBits := int64(math.MaxInt64)
	var dictWidth uint8
	if !set.overflow {
		dictWidth = bitsForU64(uint64(len(set.vals) - 1))
		dictBits = int64(n)*int64(dictWidth) + int64(len(set.vals))*32 + 24
	}
	switch {
	case dictBits < forBits && dictBits < rawBits:
		dict := append([]uint32(nil), set.vals...)
		e := EncodedF32{Code: CodeDict, N: n, Dict: dict, Width: dictWidth}
		e.Packed = packAll(n, dictWidth, func(i int) uint64 {
			p := pat(i)
			lo, hi := 0, len(dict)
			for lo < hi {
				mid := (lo + hi) / 2
				if dict[mid] < p {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			return uint64(lo)
		})
		return e
	case forBits < rawBits:
		e := EncodedF32{Code: CodeFOR, N: n, Ref: minP, Width: uw}
		e.Packed = packAll(n, uw, func(i int) uint64 { return uint64(pat(i) - minP) })
		return e
	}
	return EncodedF32{Code: CodeRaw, N: n, Raw: append([]float32(nil), vals...)}
}

// RunIndex returns the index of the CodeRLE run containing row i.
func (e *EncodedU32) RunIndex(i int) int {
	lo, hi := 0, len(e.RunEnds)
	for lo < hi {
		mid := (lo + hi) / 2
		if int(e.RunEnds[mid]) <= i {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// fill sets every element of dst to v (a width-0 column, an RLE run).
func fill[T any](dst []T, v T) {
	for i := range dst {
		dst[i] = v
	}
}

// DecodeInto materializes the column into dst (len N).
func (e *EncodedU32) DecodeInto(dst []uint32) {
	var vals [frameRows]uint64
	switch {
	case e.Code == CodeRaw:
		copy(dst, e.Raw)
	case e.Code == CodeRLE:
		pos := 0
		for r, end := range e.RunEnds {
			fill(dst[pos:end], e.RunVals[r])
			pos = int(end)
		}
	case e.Code == CodeDict && e.Width == 0:
		fill(dst[:e.N], e.Dict[0])
	case e.Code == CodeDict:
		for lo := 0; lo < e.N; lo += frameRows {
			UnpackFrame(&vals, e.Packed, e.Width, lo/frameRows)
			out := dst[lo:min(lo+frameRows, e.N)]
			for i, v := range vals[:len(out)] {
				out[i] = e.Dict[v]
			}
		}
	case e.Width == 0: // CodeFOR
		fill(dst[:e.N], e.Ref)
	default:
		for lo := 0; lo < e.N; lo += frameRows {
			UnpackFrame(&vals, e.Packed, e.Width, lo/frameRows)
			out := dst[lo:min(lo+frameRows, e.N)]
			for i, v := range vals[:len(out)] {
				out[i] = e.Ref + uint32(v)
			}
		}
	}
}

// DecodeInto materializes the column into dst (len N).
func (e *EncodedI64) DecodeInto(dst []int64) {
	var vals [frameRows]uint64
	switch {
	case e.Code == CodeRaw:
		copy(dst, e.Raw)
	case e.Width == 0:
		fill(dst[:e.N], e.Ref)
	default:
		for lo := 0; lo < e.N; lo += frameRows {
			UnpackFrame(&vals, e.Packed, e.Width, lo/frameRows)
			out := dst[lo:min(lo+frameRows, e.N)]
			for i, v := range vals[:len(out)] {
				out[i] = e.Ref + int64(v)
			}
		}
	}
}

// DecodeInto materializes the column into dst (len N).
func (e *EncodedF32) DecodeInto(dst []float32) {
	var vals [frameRows]uint64
	switch {
	case e.Code == CodeRaw:
		copy(dst, e.Raw)
	case e.Code == CodeDict && e.Width == 0:
		fill(dst[:e.N], math.Float32frombits(e.Dict[0]))
	case e.Code == CodeDict:
		for lo := 0; lo < e.N; lo += frameRows {
			UnpackFrame(&vals, e.Packed, e.Width, lo/frameRows)
			out := dst[lo:min(lo+frameRows, e.N)]
			for i, v := range vals[:len(out)] {
				out[i] = math.Float32frombits(e.Dict[v])
			}
		}
	case e.Width == 0: // CodeFOR
		fill(dst[:e.N], math.Float32frombits(e.Ref))
	default:
		for lo := 0; lo < e.N; lo += frameRows {
			UnpackFrame(&vals, e.Packed, e.Width, lo/frameRows)
			out := dst[lo:min(lo+frameRows, e.N)]
			for i, v := range vals[:len(out)] {
				out[i] = math.Float32frombits(e.Ref + uint32(v))
			}
		}
	}
}

// encodeSegmentColumns builds the encoded form of one segment's rows: the
// whole of c.
func encodeSegmentColumns(c *columns) SegmentEnc {
	n := c.len()
	e := SegmentEnc{Rows: n}
	if n == 0 {
		return e
	}
	raw := c.u32s()
	for k, col := range e.u32s() {
		*col = encodeU32Column(*raw[k])
	}
	e.Start = encodeI64Column(c.start)
	offs := make([]int64, n)
	for i := range offs {
		offs[i] = c.end[i] - c.start[i]
	}
	e.EndOff = encodeI64Column(offs)
	e.Trust = encodeF32Column(c.trust)
	return e
}

// validate checks the structural invariants the scan kernels and
// materializers rely on; the snapshot decoder additionally enforces them
// (plus canonical-form rules) before trusting any loaded encoding. The
// full-column scans (maxPackedValue) bound dictionary codes and FOR
// deltas so Value can never index or overflow.
func (e *EncodedU32) validate(rows int) error {
	if e.N != rows {
		return fmt.Errorf("%w: encoded column covers %d of %d rows", ErrCorrupt, e.N, rows)
	}
	switch e.Code {
	case CodeRaw:
		if len(e.Raw) != rows {
			return fmt.Errorf("%w: raw column length %d != %d rows", ErrCorrupt, len(e.Raw), rows)
		}
	case CodeRLE:
		if len(e.RunVals) == 0 || len(e.RunVals) != len(e.RunEnds) {
			return fmt.Errorf("%w: %d run values for %d run ends", ErrCorrupt, len(e.RunVals), len(e.RunEnds))
		}
		prev := uint32(0)
		for _, end := range e.RunEnds {
			if end <= prev {
				return fmt.Errorf("%w: run ends not strictly ascending", ErrCorrupt)
			}
			prev = end
		}
		if int(prev) != rows {
			return fmt.Errorf("%w: runs cover %d of %d rows", ErrCorrupt, prev, rows)
		}
	case CodeDict:
		if err := validateDict(e.Dict, e.Width, e.Packed, rows); err != nil {
			return err
		}
	case CodeFOR:
		if e.Width > 32 {
			return fmt.Errorf("%w: FOR width %d exceeds 32", ErrCorrupt, e.Width)
		}
		if len(e.Packed) != packedWords(rows, e.Width) {
			return fmt.Errorf("%w: %d packed words, want %d", ErrCorrupt, len(e.Packed), packedWords(rows, e.Width))
		}
		if e.Width > 0 && maxPackedValue(e.Packed, e.Width, rows) > uint64(math.MaxUint32-e.Ref) {
			return fmt.Errorf("%w: FOR delta overflows uint32", ErrCorrupt)
		}
	default:
		return fmt.Errorf("%w: unknown column code %d", ErrCorrupt, e.Code)
	}
	return nil
}

func validateDict(dict []uint32, width uint8, packed []uint64, rows int) error {
	nd := len(dict)
	if nd == 0 || nd > dictMaxEntries {
		return fmt.Errorf("%w: dictionary of %d entries", ErrCorrupt, nd)
	}
	for i := 1; i < nd; i++ {
		if dict[i] <= dict[i-1] {
			return fmt.Errorf("%w: dictionary not strictly ascending", ErrCorrupt)
		}
	}
	if width != bitsForU64(uint64(nd-1)) {
		return fmt.Errorf("%w: dict width %d for %d entries", ErrCorrupt, width, nd)
	}
	if len(packed) != packedWords(rows, width) {
		return fmt.Errorf("%w: %d packed words, want %d", ErrCorrupt, len(packed), packedWords(rows, width))
	}
	if width > 0 && maxPackedValue(packed, width, rows) >= uint64(nd) {
		return fmt.Errorf("%w: dictionary code out of range", ErrCorrupt)
	}
	return nil
}

func (e *EncodedI64) validate(rows int) error {
	if e.N != rows {
		return fmt.Errorf("%w: encoded column covers %d of %d rows", ErrCorrupt, e.N, rows)
	}
	switch e.Code {
	case CodeRaw:
		if len(e.Raw) != rows {
			return fmt.Errorf("%w: raw column length %d != %d rows", ErrCorrupt, len(e.Raw), rows)
		}
	case CodeFOR:
		if e.Width > maxFORWidthI64 {
			return fmt.Errorf("%w: FOR width %d exceeds %d", ErrCorrupt, e.Width, maxFORWidthI64)
		}
		if len(e.Packed) != packedWords(rows, e.Width) {
			return fmt.Errorf("%w: %d packed words, want %d", ErrCorrupt, len(e.Packed), packedWords(rows, e.Width))
		}
		if e.Width > 0 && e.Ref >= 0 {
			if maxPackedValue(e.Packed, e.Width, rows) > uint64(math.MaxInt64)-uint64(e.Ref) {
				return fmt.Errorf("%w: FOR delta overflows int64", ErrCorrupt)
			}
		}
	default:
		return fmt.Errorf("%w: column code %d invalid for int64", ErrCorrupt, e.Code)
	}
	return nil
}

func (e *EncodedF32) validate(rows int) error {
	if e.N != rows {
		return fmt.Errorf("%w: encoded column covers %d of %d rows", ErrCorrupt, e.N, rows)
	}
	switch e.Code {
	case CodeRaw:
		if len(e.Raw) != rows {
			return fmt.Errorf("%w: raw column length %d != %d rows", ErrCorrupt, len(e.Raw), rows)
		}
	case CodeDict:
		if err := validateDict(e.Dict, e.Width, e.Packed, rows); err != nil {
			return err
		}
	case CodeFOR:
		if e.Width > 32 {
			return fmt.Errorf("%w: FOR width %d exceeds 32", ErrCorrupt, e.Width)
		}
		if len(e.Packed) != packedWords(rows, e.Width) {
			return fmt.Errorf("%w: %d packed words, want %d", ErrCorrupt, len(e.Packed), packedWords(rows, e.Width))
		}
		if e.Width > 0 && maxPackedValue(e.Packed, e.Width, rows) > uint64(math.MaxUint32-e.Ref) {
			return fmt.Errorf("%w: FOR delta overflows uint32", ErrCorrupt)
		}
	default:
		return fmt.Errorf("%w: column code %d invalid for float32", ErrCorrupt, e.Code)
	}
	return nil
}

func (e *SegmentEnc) validate(rows int) error {
	if e.Rows != rows {
		return fmt.Errorf("%w: encoded block covers %d of %d rows", ErrCorrupt, e.Rows, rows)
	}
	for k, col := range e.u32s() {
		if err := col.validate(rows); err != nil {
			return fmt.Errorf("%s: %w", colName[k], err)
		}
	}
	if err := e.Start.validate(rows); err != nil {
		return fmt.Errorf("start: %w", err)
	}
	if err := e.EndOff.validate(rows); err != nil {
		return fmt.Errorf("endOff: %w", err)
	}
	if err := e.Trust.validate(rows); err != nil {
		return fmt.Errorf("trust: %w", err)
	}
	return nil
}

// uvarintLen returns the encoded size of one uvarint.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// ColumnCompression summarizes one column's footprint across all
// segments: the fixed-width raw bytes versus the encoded bytes the
// snapshot column blocks occupy.
type ColumnCompression struct {
	Name         string
	RawBytes     int64
	EncodedBytes int64
}

// Ratio returns RawBytes/EncodedBytes (1.0 for an empty column).
func (c ColumnCompression) Ratio() float64 {
	if c.EncodedBytes == 0 {
		return 1
	}
	return float64(c.RawBytes) / float64(c.EncodedBytes)
}

// CompressionStats reports the per-column compression of the store's
// segment encodings, in fixed column order; nil for an empty store.
func (s *Store) CompressionStats() []ColumnCompression {
	if s.Len() == 0 {
		return nil
	}
	encs := s.Encodings()
	n := int64(s.Len())
	out := []ColumnCompression{
		{Name: "batch", RawBytes: 4 * n}, {Name: "tasktype", RawBytes: 4 * n},
		{Name: "item", RawBytes: 4 * n}, {Name: "worker", RawBytes: 4 * n},
		{Name: "start", RawBytes: 8 * n}, {Name: "end", RawBytes: 8 * n},
		{Name: "trust", RawBytes: 4 * n}, {Name: "answer", RawBytes: 4 * n},
	}
	for i := range encs {
		e := &encs[i]
		if e.Rows == 0 {
			continue
		}
		out[0].EncodedBytes += e.Batch.encodedBytes()
		out[1].EncodedBytes += e.TaskType.encodedBytes()
		out[2].EncodedBytes += e.Item.encodedBytes()
		out[3].EncodedBytes += e.Worker.encodedBytes()
		out[4].EncodedBytes += e.Start.encodedBytes()
		out[5].EncodedBytes += e.EndOff.encodedBytes()
		out[6].EncodedBytes += e.Trust.encodedBytes()
		out[7].EncodedBytes += e.Answer.encodedBytes()
	}
	return out
}
