package store

import (
	"bytes"
	"fmt"
	"math"
	"math/bits"
	"slices"
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
//   - CodeFOR:  frame-of-reference delta bit-packing in 64-row frames:
//     each frame stores its values as offsets from its own minimum at
//     its own exact width, which captures the locality of clustered
//     columns (timestamps, items) that one column-wide width cannot. The
//     frames are one form, in memory and on disk: a seal packs them
//     straight from the values, the writer emits their words, the
//     reader keeps them.
//   - CodeRaw:  the fixed-width fallback when no encoding pays.
//
// There is one encoded column, Encoded[T], for the three machine types the
// log's attributes have. Everything between a raw []T and the bytes on
// disk works on ordinals — a value's bit pattern as a uint64: the value
// itself for uint32, the two's-complement bits for int64, the IEEE-754
// pattern for float32 (generated trust scores cluster in a narrow band, so
// their patterns span far fewer than 32 bits) — moved 64 at a time by
// loadBlock and storeBlock, the only code that knows a T from its ordinal.
// What differs by type beyond that is one traits row.
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
// reference + delta arithmetic stays in int64 territory and is
// overflow-checked at decode time.
const maxFORWidthI64 = 63

// frameRows is the frame size of packed columns: every 64 rows of a FOR
// column carry their own reference and bit width.
const frameRows = 64

// value is the set of machine types a column holds: ids are uint32,
// timestamps int64, the trust score float32.
type value interface{ uint32 | int64 | float32 }

// Encoded is one column of one segment in encoded form. Fields are
// exported for the scan kernels in internal/query; they must be treated as
// immutable.
type Encoded[T value] struct {
	Code ColumnCode
	N    int

	// Raw is the fixed-width fallback (CodeRaw).
	Raw []T

	// RunVals/RunEnds are the CodeRLE runs: run i holds RunVals[i] for
	// rows [RunEnds[i-1], RunEnds[i]). RunEnds ascends strictly and ends
	// at N; runs are maximal (adjacent run values differ) but otherwise
	// arbitrary — batch rows are contiguous per batch, yet batches may
	// appear in any ID order.
	RunVals []T
	RunEnds []uint32

	// Dict is the CodeDict table of distinct ordinals, sorted; packed
	// values are indexes into it. A predicate resolves against it once per
	// segment, on bit patterns; no 64-bit type admits the code.
	Dict []uint32

	// Ref is the CodeFOR frame of reference: the ordinal of the column
	// minimum.
	Ref uint64

	// Width is the packed bit width: of every dictionary code (CodeDict),
	// of the column's span above Ref (CodeFOR). Zero means every row
	// decodes to the same value and Packed is empty.
	Width uint8

	// Packed holds the bit-packed little-endian words. Dictionary code i
	// occupies bits [i*Width, (i+1)*Width) of the concatenated words; a
	// FOR frame occupies the words from its directory offset on, its
	// deltas packed at its own width — the words exactly as the disk
	// holds them. Read them through Frame.
	Packed []uint64

	// frames is the CodeFOR frame directory, two words per 64 rows: the
	// frame's reference ordinal, then its first word in Packed (the low 32
	// bits) and its width (the byte above). It is nil when Width is zero
	// and otherwise shares one allocation with Packed.
	frames []uint64
}

// allocFrames sizes the directory of a FOR column and Packed for the given
// number of words, in one allocation; setFrame fills the directory.
func (e *Encoded[T]) allocFrames(words int) {
	nd := 2 * ((e.N + frameRows - 1) / frameRows)
	buf := make([]uint64, nd+words)
	e.frames, e.Packed = buf[:nd:nd], buf[nd:]
}

func (e *Encoded[T]) setFrame(f int, ref uint64, off int, width uint8) {
	e.frames[2*f], e.frames[2*f+1] = ref, uint64(width)<<32|uint64(off)
}

// frame returns the directory entry of FOR frame f.
func (e *Encoded[T]) frame(f int) (ref uint64, off int, width uint8) {
	ent := e.frames[2*f : 2*f+2]
	return ent[0], int(uint32(ent[1])), uint8(ent[1] >> 32)
}

// The three instantiations, by the names their users know them under.
type (
	EncodedU32 = Encoded[uint32]
	EncodedI64 = Encoded[int64]
	EncodedF32 = Encoded[float32]
)

// traits is what the codec knows of a value type beyond its ordinals.
type traits struct {
	name string
	// order lists the codes a column of the type may carry, in the order
	// the chooser prefers them at equal cost: a column takes the first
	// code in its order that reaches the minimum. Both the set and the
	// order are part of the file format — the reader refuses a code that
	// is not listed, and two writers that broke a tie differently would
	// write different files for the same rows.
	order []ColumnCode
	// refBytes is the size on disk of a raw value and of a reference.
	refBytes int
	// maxWidth is the widest FOR column.
	maxWidth uint8
	// sign is the ordinal bit to flip for ordinals to order as their values
	// do. A reference is a minimum in that order, and a delta may not carry
	// reference + delta past the top of it.
	sign uint64
}

var (
	u32Traits = traits{"uint32", []ColumnCode{CodeRLE, CodeDict, CodeFOR, CodeRaw}, 4, 32, 0}
	i64Traits = traits{"int64", []ColumnCode{CodeRaw, CodeFOR}, 8, maxFORWidthI64, 1 << 63}
	f32Traits = traits{"float32", []ColumnCode{CodeRaw, CodeFOR, CodeDict}, 4, 32, 0}
)

func traitsOf[T value]() *traits {
	var zero T
	switch any(zero).(type) {
	case uint32:
		return &u32Traits
	case int64:
		return &i64Traits
	}
	return &f32Traits
}

func (tr *traits) admits(code ColumnCode) bool { return slices.Contains(tr.order, code) }

// top returns the largest ordinal, in value order.
func (tr *traits) top() uint64 { return ^uint64(0) >> (64 - 8*tr.refBytes) }

// overflows reports a reference and a largest delta whose sum is not an
// ordinal of the type.
func (tr *traits) overflows(ref, maxDelta uint64) bool {
	ref ^= tr.sign
	return ref > tr.top() || maxDelta > tr.top()-ref
}

// loadBlock writes the ordinals of src — at most 64 values — to the head of
// blk and returns how many there are.
func loadBlock[T value](blk *[frameRows]uint64, src []T) int {
	// Each case slices blk by its own src: the bounds check is paid once a
	// block, not once a value.
	switch src := any(src).(type) {
	case []uint32:
		dst := blk[:len(src)]
		for i, v := range src {
			dst[i] = uint64(v)
		}
	case []int64:
		dst := blk[:len(src)]
		for i, v := range src {
			dst[i] = uint64(v)
		}
	case []float32:
		dst := blk[:len(src)]
		for i, v := range src {
			dst[i] = uint64(math.Float32bits(v))
		}
	}
	return len(src)
}

// storeBlock sets dst to the values of the ordinals base + src[i]; src is
// at least as long as dst.
func storeBlock[T value](dst []T, src []uint64, base uint64) {
	switch dst := any(dst).(type) {
	case []uint32:
		for i, o := range src[:len(dst)] {
			dst[i] = uint32(base + o)
		}
	case []int64:
		for i, o := range src[:len(dst)] {
			dst[i] = int64(base + o)
		}
	case []float32:
		for i, o := range src[:len(dst)] {
			dst[i] = math.Float32frombits(uint32(base + o))
		}
	}
}

// fill sets every element of dst to v (an RLE run).
func fill[T any](dst []T, v T) {
	for i := range dst {
		dst[i] = v
	}
}

// fillRuns sets rows [0, ends[0]) of dst to vals[0], [ends[0], ends[1]) to
// vals[1] and so on. Out of line on purpose: inlined into decodeInto the
// fill loop keeps its counter in memory and runs at a third of the speed
// (BenchmarkMaterialize).
//
//go:noinline
func fillRuns[T any](dst []T, vals []T, ends []uint32) {
	pos := 0
	for i, end := range ends {
		fill(dst[pos:end], vals[i])
		pos = int(end)
	}
}

// SegmentEnc holds every encoded column of one segment. End is stored as
// EndOff, the per-row duration end − start, which is also the arena's
// column: task durations span far fewer bits than absolute timestamps, and
// End values reconstruct as Start + EndOff.
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

// packedWords returns how many uint64 words n values of the given width
// occupy.
func packedWords(n int, width uint8) int {
	return (n*int(width) + 63) / 64
}

// bitsForU64 returns the bit width needed to represent v.
func bitsForU64(v uint64) uint8 { return uint8(bits.Len64(v)) }

// The block codec. 64 values of width w occupy exactly w words, so a
// packed column is a sequence of frames, each starting on a word: frame f
// of a dictionary column at word f*Width, frame f of a FOR column at its
// directory offset — and so is the disk payload of both (codec_enc.go).
// unpack64 and pack64 move one frame with whole-word loads and shifts;
// they are the only code that extracts or deposits packed values.

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

// unpackFrame extracts one frame from the words starting at its first; a
// column's last frame may hold fewer words than its width, and the values
// past its rows are unspecified.
func unpackFrame(dst *[frameRows]uint64, src []uint64, width uint8) {
	if len(src) < int(width) {
		var pad [frameRows]uint64
		copy(pad[:], src)
		src = pad[:]
	}
	unpack64(dst, src, width)
}

// packFrame deposits one frame into the words starting at its first, which
// may be fewer than its width for a column's last frame: src must then be
// zero past its rows.
func packFrame(dst []uint64, src *[frameRows]uint64, width uint8) {
	if width == 0 {
		return
	}
	if len(dst) < int(width) {
		var pad [frameRows]uint64
		pack64(pad[:], src, width)
		copy(dst, pad[:])
		return
	}
	pack64(dst, src, width)
}

// Frame is the one reader of a packed column (CodeDict, CodeFOR): it
// unpacks frame f — rows [64f, 64f+64) — into dst and returns the ordinal
// every value adds to: the frame's reference for FOR, whose dst holds
// deltas, and 0 for a dictionary, whose dst holds codes. Values past the
// column's last row are unspecified.
func (e *Encoded[T]) Frame(dst *[frameRows]uint64, f int) uint64 {
	if e.Code == CodeDict {
		unpackFrame(dst, e.Packed[f*int(e.Width):], e.Width)
		return 0
	}
	if e.frames == nil { // a constant FOR column: every delta is 0
		clear(dst[:])
		return e.Ref
	}
	ref, off, width := e.frame(f)
	unpackFrame(dst, e.Packed[off:], width)
	return ref
}

// Span is how far above Ref the values of a FOR column may lie at its
// width: 2^Width-1, zero for a constant column. Ref is the column's least
// value, so [Ref, Ref+Span] bounds it exactly at the bottom.
func (e *Encoded[T]) Span() uint64 { return uint64(1)<<e.Width - 1 }

// FrameBounds is Span for FOR frame f, read from the directory alone: the
// frame's ordinals lie in [ref, ref+span], with span 2^width-1 for the
// frame's width, and (Ref, 0) for a constant column.
func (e *Encoded[T]) FrameBounds(f int) (ref, span uint64) {
	if e.frames == nil {
		return e.Ref, 0
	}
	ref, _, width := e.frame(f)
	return ref, uint64(1)<<width - 1
}

// shape is what one pass over a column tells the chooser: its bounds, the
// spans of its disk frames, its maximal runs and — where the type admits a
// dictionary — its small distinct set.
type shape struct {
	min, max   uint64 // ordinals with the sign bit flipped: in value order
	frameBits  int64  // sum over frames of frame width * frame rows
	frames     int
	runs       int
	maxRunLen  int
	set        enumSet
	setBuf     [dictMaxEntries]uint32 // backs set
	uw, dw, wl uint8                  // column, dictionary and run-length widths
}

func scanShape[T value](sh *shape, vals []T, tr *traits) {
	// A type without dictionaries starts with its set overflowed: nothing
	// is added to it.
	sh.min = ^uint64(0)
	sh.set = enumSet{cap: dictMaxEntries, vals: sh.setBuf[:0], overflow: !tr.admits(CodeDict)}
	var blk [frameRows]uint64
	var prev uint64
	runLen := 0
	for lo := 0; lo < len(vals); lo += frameRows {
		m := loadBlock(&blk, vals[lo:min(lo+frameRows, len(vals))])
		fmin, fmax := ^uint64(0), uint64(0)
		for _, o := range blk[:m] {
			o ^= tr.sign
			fmin, fmax = min(fmin, o), max(fmax, o)
			if o == prev && runLen > 0 {
				runLen++
				continue
			}
			sh.maxRunLen = max(sh.maxRunLen, runLen)
			sh.runs++
			prev, runLen = o, 1
			// A value repeating its predecessor is in the set already.
			if !sh.set.overflow {
				sh.set.add(uint32(o))
			}
		}
		sh.min, sh.max = min(sh.min, fmin), max(sh.max, fmax)
		sh.frameBits += int64(bitsForU64(fmax-fmin)) * int64(m)
		sh.frames++
	}
	sh.maxRunLen = max(sh.maxRunLen, runLen)
	sh.uw = bitsForU64(sh.max - sh.min)
	sh.wl = bitsForU64(uint64(sh.maxRunLen - 1))
	if !sh.set.overflow {
		sh.dw = bitsForU64(uint64(len(sh.set.vals) - 1))
	}
}

// choose costs each candidate at its serialized (disk) size in bits and
// returns the first code of the type's order that reaches the minimum.
func (sh *shape) choose(n int, tr *traits) ColumnCode {
	refBits := int64(8 * tr.refBytes)
	var cost [4]int64
	for c := range cost {
		cost[c] = math.MaxInt64
	}
	cost[CodeRaw] = int64(n) * refBits
	// Packed RLE: run values FOR-packed at the column width plus run
	// lengths (stored as length-1) at the max-length width. Columns
	// without real run structure (runs approaching one per row) degrade
	// to FOR — same bytes, but the run-level scan kernel would lose.
	if tr.admits(CodeRLE) && 2*sh.runs <= n {
		cost[CodeRLE] = int64(sh.runs)*int64(sh.uw+sh.wl) + 96
	}
	if !sh.set.overflow {
		cost[CodeDict] = int64(n)*int64(sh.dw) + int64(len(sh.set.vals))*refBits + 24
	}
	// Frame FOR: per-frame payload plus per-frame reference and width,
	// behind the code, the column width and the reference.
	if sh.uw <= tr.maxWidth {
		cost[CodeFOR] = sh.frameBits + int64(sh.frames)*int64(8+sh.uw) + 16 + refBits
	}
	best := tr.order[0]
	for _, c := range tr.order[1:] {
		if cost[c] < cost[best] {
			best = c
		}
	}
	return best
}

// encodeColumn picks the cheapest encoding for one column and builds it.
// The choice is a pure function of the values, which keeps snapshot bytes
// deterministic.
func encodeColumn[T value](vals []T) Encoded[T] {
	n := len(vals)
	if n == 0 {
		return Encoded[T]{Code: CodeRaw}
	}
	tr := traitsOf[T]()
	var sh shape
	scanShape(&sh, vals, tr)
	e := Encoded[T]{Code: sh.choose(n, tr), N: n}
	switch e.Code {
	case CodeRaw:
		e.Raw = append([]T(nil), vals...)
	case CodeRLE:
		e.RunVals, e.RunEnds = make([]T, 0, sh.runs), make([]uint32, 0, sh.runs)
		var blk [frameRows]uint64
		var prev uint64
		for lo := 0; lo < n; lo += frameRows {
			m := loadBlock(&blk, vals[lo:min(lo+frameRows, n)])
			for i, o := range blk[:m] {
				if row := lo + i; row == 0 || o != prev {
					if row > 0 {
						e.RunEnds = append(e.RunEnds, uint32(row))
					}
					e.RunVals = append(e.RunVals, vals[row])
					prev = o
				}
			}
		}
		e.RunEnds = append(e.RunEnds, uint32(n))
	case CodeDict:
		e.Dict, e.Width = append([]uint32(nil), sh.set.vals...), sh.dw
		e.Packed = packCodes(vals, e.Width, e.Dict)
	case CodeFOR:
		e.Ref, e.Width = sh.min^tr.sign, sh.uw
		if e.Width > 0 {
			e.packFrames(vals, tr, sh.frameBits)
		}
	}
	return e
}

// packCodes bit-packs every value's index in dict.
func packCodes[T value](vals []T, width uint8, dict []uint32) []uint64 {
	if width == 0 {
		return nil
	}
	words := make([]uint64, packedWords(len(vals), width))
	var blk [frameRows]uint64
	for lo := 0; lo < len(vals); lo += frameRows {
		m := loadBlock(&blk, vals[lo:min(lo+frameRows, len(vals))])
		for i, o := range blk[:m] {
			code, _ := slices.BinarySearch(dict, uint32(o))
			blk[i] = uint64(code)
		}
		clear(blk[m:])
		packFrame(words[lo/frameRows*int(width):], &blk, width)
	}
	return words
}

// packFrames cuts a FOR column into its frames: every 64 rows packed as
// offsets from their own minimum at their exact width, laid end to end
// over frameBits bits of words.
func (e *Encoded[T]) packFrames(vals []T, tr *traits, frameBits int64) {
	e.allocFrames(int((frameBits + 63) / 64))
	var blk [frameRows]uint64
	off := 0
	for lo := 0; lo < len(vals); lo += frameRows {
		m := loadBlock(&blk, vals[lo:min(lo+frameRows, len(vals))])
		fmin := ^uint64(0)
		for _, o := range blk[:m] {
			fmin = min(fmin, o^tr.sign)
		}
		// The widest delta sets the top bit of their union.
		ref, union := fmin^tr.sign, uint64(0)
		for i := range blk[:m] {
			blk[i] -= ref
			union |= blk[i]
		}
		clear(blk[m:])
		fw := bitsForU64(union)
		e.setFrame(lo/frameRows, ref, off, fw)
		packFrame(e.Packed[off:], &blk, fw)
		off += int(fw)
	}
}

// decodeInto materializes the column into dst (len N).
func (e *Encoded[T]) decodeInto(dst []T) {
	switch e.Code {
	case CodeRaw:
		copy(dst, e.Raw)
	case CodeRLE:
		fillRuns(dst, e.RunVals, e.RunEnds)
	default:
		var blk [frameRows]uint64
		for lo := 0; lo < e.N; lo += frameRows {
			out := dst[lo:min(lo+frameRows, e.N)]
			base := e.Frame(&blk, lo/frameRows)
			if e.Code == CodeDict {
				for i, code := range blk[:len(out)] {
					blk[i] = uint64(e.Dict[code])
				}
			}
			storeBlock(out, blk[:], base)
		}
	}
}

// validate checks the structural invariants the scan kernels and
// materializers rely on, through the same checks the snapshot decoder
// enforces before trusting any loaded encoding: the frame and dictionary
// checkers bound every FOR delta and dictionary code, so no decode can
// index past a dictionary or overflow.
func (e *Encoded[T]) validate(rows int) error {
	tr := traitsOf[T]()
	if e.N != rows {
		return fmt.Errorf("%w: encoded column covers %d of %d rows", ErrCorrupt, e.N, rows)
	}
	if !tr.admits(e.Code) {
		return fmt.Errorf("%w: column code %d invalid for %s", ErrCorrupt, e.Code, tr.name)
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
		return e.checkDict()
	case CodeFOR:
		if e.Width > tr.maxWidth {
			return fmt.Errorf("%w: FOR width %d exceeds %d", ErrCorrupt, e.Width, tr.maxWidth)
		}
		return e.checkFrames()
	}
	return nil
}

// checkDict holds a dictionary column to the canonical form the seal
// builds: at most 64 entries, strictly ascending, codes at their exact
// width, every code indexing the dictionary and every entry used.
func (e *Encoded[T]) checkDict() error {
	nd := len(e.Dict)
	if nd == 0 || nd > dictMaxEntries || e.Width != bitsForU64(uint64(nd-1)) {
		return fmt.Errorf("%w: dictionary of %d entries at width %d", ErrCorrupt, nd, e.Width)
	}
	for i := 1; i < nd; i++ {
		if e.Dict[i] <= e.Dict[i-1] {
			return fmt.Errorf("%w: dictionary not strictly ascending", ErrCorrupt)
		}
	}
	if len(e.Packed) != packedWords(e.N, e.Width) {
		return fmt.Errorf("%w: %d packed words, want %d", ErrCorrupt, len(e.Packed), packedWords(e.N, e.Width))
	}
	// Codes are at most 6 bits wide, so the seen-mask shift is in range
	// whatever the words hold. A width-0 column is its one entry, even
	// over no rows.
	seen := uint64(1)
	if e.Width > 0 {
		seen = 0
	}
	var codes [frameRows]uint64
	for lo := 0; lo < e.N && e.Width > 0; lo += frameRows {
		e.Frame(&codes, lo/frameRows)
		for _, code := range codes[:min(frameRows, e.N-lo)] {
			if code >= uint64(nd) {
				return fmt.Errorf("%w: dictionary code out of range", ErrCorrupt)
			}
			seen |= 1 << code
		}
	}
	if seen != uint64(1)<<nd-1 {
		return fmt.Errorf("%w: unused dictionary entries", ErrCorrupt)
	}
	return nil
}

// checkFrames holds a FOR column's directory and words to the canonical
// form the seal builds and the disk format requires: one frame per 64
// rows, laid end to end over Packed, each no wider than the column;
// every frame anchored at its reference (least delta 0) at its exact
// width; the column anchored at Ref (least frame reference Ref) at its
// exact width; and no value past the top of the type. acceptFrames
// accepts a canonical column without unpacking its full frames; anything
// it does not accept goes to checkValues, which unpacks every frame, so
// every rejection carries the exact path's error.
func (e *Encoded[T]) checkFrames() error {
	tr := traitsOf[T]()
	if e.Width == 0 {
		if e.frames != nil || len(e.Packed) != 0 || tr.overflows(e.Ref, 0) {
			return fmt.Errorf("%w: non-canonical constant FOR column", ErrCorrupt)
		}
		return nil
	}
	nf := (e.N + frameRows - 1) / frameRows
	if len(e.frames) != 2*nf {
		return fmt.Errorf("%w: %d FOR directory words for %d rows", ErrCorrupt, len(e.frames), e.N)
	}
	nbits := 0
	for f := 0; f < nf; f++ {
		_, off, width := e.frame(f)
		if width > e.Width {
			return fmt.Errorf("%w: frame width %d exceeds column width %d", ErrCorrupt, width, e.Width)
		}
		if off != nbits/64 {
			return fmt.Errorf("%w: FOR frame %d at word %d, want %d", ErrCorrupt, f, off, nbits/64)
		}
		nbits += int(width) * min(frameRows, e.N-f*frameRows)
	}
	if len(e.Packed) != (nbits+63)/64 {
		return fmt.Errorf("%w: %d FOR words, want %d", ErrCorrupt, len(e.Packed), (nbits+63)/64)
	}
	if e.acceptFrames(nf) {
		return nil
	}
	return e.checkValues(nf)
}

// frameExtremes unpacks frame f into vals and returns its reference and
// its least and largest delta: the exact reading of a frame.
func (e *Encoded[T]) frameExtremes(vals *[frameRows]uint64, f int) (ref, lo, hi uint64) {
	ref = e.Frame(vals, f)
	lo = ^uint64(0)
	for _, d := range vals[:min(frameRows, e.N-f*frameRows)] {
		lo, hi = min(lo, d), max(hi, d)
	}
	return ref, lo, hi
}

// checkValues is the exact frame checker: it unpacks every frame of a
// column whose directory checkFrames has laid out, and returns the first
// rule a frame, then the column, breaks.
func (e *Encoded[T]) checkValues(nf int) error {
	tr := traitsOf[T]()
	maxUW := uint64(1)<<e.Width - 1
	globalMin, globalMax := ^uint64(0), uint64(0)
	var vals [frameRows]uint64
	for f := 0; f < nf; f++ {
		ref, lo, hi := e.frameExtremes(&vals, f)
		_, _, width := e.frame(f)
		refOff := ref - e.Ref
		if refOff > maxUW || hi > maxUW-refOff {
			return fmt.Errorf("%w: FOR delta exceeds column width", ErrCorrupt)
		}
		if lo != 0 || bitsForU64(hi) != width {
			return fmt.Errorf("%w: non-canonical FOR frame", ErrCorrupt)
		}
		globalMin, globalMax = min(globalMin, refOff), max(globalMax, refOff+hi)
	}
	if globalMin != 0 || bitsForU64(globalMax) != e.Width {
		return fmt.Errorf("%w: non-canonical FOR column", ErrCorrupt)
	}
	if tr.overflows(e.Ref, globalMax) {
		return fmt.Errorf("%w: FOR delta overflows %s", ErrCorrupt, tr.name)
	}
	return nil
}

// acceptFrames reports whether a column whose directory checkFrames has
// laid out is canonical, without unpacking a full frame: it accepts
// exactly what checkValues accepts. A full frame of width w holds 64 lanes
// of w bits over w words, and word-parallel lane tests settle each rule on
// them. The frame is anchored at its exact width iff some lane is zero and
// some lane has its top bit set (canonicalLanes); its largest delta then
// lies in [2^(w-1), 2^w-1]. Its values stay within the column width and
// the type iff no lane passes the room the column leaves above the frame's
// reference, which the upper bound settles or else a carry test does
// (canonicalLanesAtMost). The column reaches its exact width iff some
// frame's largest delta reaches 2^(W-1) above Ref, which the lower bound
// settles or else the carry test does. A partial last frame is unpacked
// for its exact extremes. False leaves the error to checkValues.
func (e *Encoded[T]) acceptFrames(nf int) bool {
	tr := traitsOf[T]()
	// ceil is the largest delta above Ref the column may hold: the column
	// width's, or less where the type's top is nearer.
	ref := e.Ref ^ tr.sign
	if ref > tr.top() {
		return false
	}
	ceil := min(uint64(1)<<e.Width-1, tr.top()-ref)
	half := uint64(1) << (e.Width - 1)
	least, reached := ^uint64(0), false
	var vals [frameRows]uint64
	for f := 0; f < nf; f++ {
		fref, off, width := e.frame(f)
		refOff := fref - e.Ref
		if refOff > ceil {
			return false
		}
		least = min(least, refOff)
		room := ceil - refOff
		switch {
		case width == 0:
			reached = reached || refOff >= half
		case e.N-f*frameRows < frameRows:
			_, lo, hi := e.frameExtremes(&vals, f)
			if lo != 0 || bitsForU64(hi) != width || hi > room {
				return false
			}
			reached = reached || refOff+hi >= half
		default:
			words := e.Packed[off : off+int(width)]
			span := uint64(1)<<width - 1
			if span > room {
				if !canonicalLanesAtMost(words, width, room) {
					return false
				}
			} else if !canonicalLanes(words, width) {
				return false
			}
			// The frame is canonical by now: the fused test answers for
			// the carry alone.
			if !reached && refOff+span >= half {
				reached = refOff+span/2+1 >= half || !canonicalLanesAtMost(words, width, half-1-refOff)
			}
		}
	}
	return least == 0 && reached
}

// laneMask is one word of the lane masks of a frame width: the bits where
// lanes start and the bits where they end.
type laneMask struct{ low, top uint64 }

// laneMasks[w] holds the masks of 64 lanes of w bits laid LSB-first over w
// words, one per word.
var laneMasks = func() (m [64][]laneMask) {
	for w := 1; w < 64; w++ {
		m[w] = make([]laneMask, w)
		for k := 0; k < frameRows; k++ {
			lo, top := k*w, k*w+w-1
			m[w][lo/64].low |= 1 << (lo % 64)
			m[w][top/64].top |= 1 << (top % 64)
		}
	}
	return m
}()

// canonicalLanes reports whether a full frame of width w (1 <= w < 64),
// its w packed words given, holds a zero lane and a lane with its top bit
// set. The zero test is the word-parallel has-zero test on the words as
// one 64w-bit number: subtracting the lanes' low bits borrows through a
// zero lane and through nothing else below the lowest one, so
// (x - low) &^ x & top is nonzero iff some lane is zero. The borrow
// crosses word boundaries as lanes do, through bits.Sub64. Out of line on
// purpose: inlined into acceptFrames the loop keeps its four running words
// on the stack and runs at a third of the speed (BenchmarkFORFrames).
//
//go:noinline
func canonicalLanes(words []uint64, w uint8) bool {
	words, masks := words[:w], laneMasks[w]
	masks = masks[:len(words)]
	var zero, set, borrow uint64
	for j, x := range words {
		var d uint64
		d, borrow = bits.Sub64(x, masks[j].low, borrow)
		zero |= d &^ x & masks[j].top
		set |= x & masks[j].top
	}
	return zero != 0 && set != 0
}

// canonicalLanesAtMost reports what canonicalLanes does, and whether every
// lane is at most k < 2^w-1: whether adding c = 2^w-1-k to every lane
// carries out of none. c in every lane is the lanes' low bits times c, the
// product's high word spilling into the next word as the lanes do. The
// words add as one 64w-bit number: the lowest lane to carry out does so
// into the next lane's low bit (or out of the frame), where the sum
// differs from x ^ c, and no lane carries while none overflows. One pass
// does both tests: a frame that needs the second reads its words once.
//
//go:noinline
func canonicalLanesAtMost(words []uint64, w uint8, k uint64) bool {
	words, masks := words[:w], laneMasks[w]
	masks = masks[:len(words)]
	c := uint64(1)<<w - 1 - k
	var zero, set, borrow, spill, carry, out uint64
	for j, x := range words {
		var d, s uint64
		d, borrow = bits.Sub64(x, masks[j].low, borrow)
		zero |= d &^ x & masks[j].top
		set |= x & masks[j].top
		hi, lo := bits.Mul64(masks[j].low, c)
		cj := lo | spill
		spill = hi
		s, carry = bits.Add64(x, cj, carry)
		out |= (s ^ x ^ cj) & masks[j].low
	}
	return zero != 0 && set != 0 && out|carry == 0
}

// encodeSegmentColumns builds the encoded form of one segment's rows: the
// whole of c.
func encodeSegmentColumns(c *columns) SegmentEnc {
	e := SegmentEnc{Rows: c.len()}
	if e.Rows == 0 {
		return e
	}
	for i := range colTable {
		colTable[i].encode(&e, c)
	}
	return e
}

func (e *SegmentEnc) validate(rows int) error {
	if e.Rows != rows {
		return fmt.Errorf("%w: encoded block covers %d of %d rows", ErrCorrupt, e.Rows, rows)
	}
	for i := range colTable {
		if err := colTable[i].validate(e, rows); err != nil {
			return fmt.Errorf("%s: %w", colTable[i].name, err)
		}
	}
	return nil
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
// segment encodings, in fixed column order (the raw columns', the
// duration column named "end"); nil for an empty store. A column's
// encoded size is what the snapshot writer writes for it.
func (s *Store) CompressionStats() []ColumnCompression {
	if s.Len() == 0 {
		return nil
	}
	encs := s.encodings()
	out := make([]ColumnCompression, len(colTable))
	var b bytes.Buffer
	for i := range colTable {
		col := &colTable[i]
		cc := &out[colIndex(col.mask)]
		cc.Name, cc.RawBytes = col.name, col.size()*int64(s.Len())
		for k := range encs {
			if encs[k].Rows > 0 {
				b.Reset()
				col.write(&b, &encs[k])
				cc.EncodedBytes += int64(b.Len())
			}
		}
	}
	return out
}
