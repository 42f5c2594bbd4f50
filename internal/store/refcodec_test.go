package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
)

// The value-at-a-time codec the block codec (unpack64/pack64, colenc.go)
// replaced, kept verbatim as the oracle of the differential and fuzz
// tests in blockcodec_test.go: a byte-refilling bit reader, a
// value-at-a-time word packer, per-row unpackAt, and the block decoder
// built on them. Nothing outside tests may use it.

// bitWriter packs values LSB-first into a byte stream, emitting whole
// little-endian words so the hot path costs no per-byte calls.
type bitWriter struct {
	buf   *bytes.Buffer
	acc   uint64
	nbits uint
}

func (w *bitWriter) write(v uint64, width uint8) {
	if width == 0 {
		return
	}
	v &= uint64(1)<<width - 1
	w.acc |= v << w.nbits
	if w.nbits+uint(width) >= 64 {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], w.acc)
		w.buf.Write(b[:])
		// Go defines x>>64 as 0, so a word-aligned boundary resets acc.
		w.acc = v >> (64 - w.nbits)
		w.nbits = w.nbits + uint(width) - 64
	} else {
		w.nbits += uint(width)
	}
}

func (w *bitWriter) flush() {
	for w.nbits > 0 {
		w.buf.WriteByte(byte(w.acc))
		w.acc >>= 8
		if w.nbits >= 8 {
			w.nbits -= 8
		} else {
			w.nbits = 0
		}
	}
}

// bitReader reads values LSB-first from a byte stream. Reading past the
// end yields zero bits; callers size the stream exactly, and the
// canonical-form checks reject any mismatch that zero padding could hide.
type bitReader struct {
	b     []byte
	pos   int
	acc   uint64
	nbits uint
}

func (r *bitReader) read(width uint8) uint64 {
	if width == 0 {
		return 0
	}
	if width > 32 {
		lo := r.read(32)
		return lo | r.read(width-32)<<32
	}
	for r.nbits < uint(width) && r.pos < len(r.b) {
		r.acc |= uint64(r.b[r.pos]) << r.nbits
		r.pos++
		r.nbits += 8
	}
	v := r.acc & (1<<width - 1)
	r.acc >>= width
	if r.nbits >= uint(width) {
		r.nbits -= uint(width)
	} else {
		r.nbits = 0
	}
	return v
}

// wordPacker writes sequential fixed-width values into a word array (the
// in-memory packed form).
type wordPacker struct {
	words []uint64
	bit   int
}

func (p *wordPacker) put(v uint64, width uint8) {
	w, b := p.bit>>6, uint(p.bit&63)
	p.words[w] |= v << b
	if b+uint(width) > 64 {
		p.words[w+1] |= v >> (64 - b)
	}
	p.bit += int(width)
}

// unpackAt extracts value i from a packed array. Callers guarantee
// 0 < width and i < N.
func unpackAt(words []uint64, width uint8, i int) uint64 {
	bit := i * int(width)
	w, b := bit>>6, uint(bit&63)
	v := words[w] >> b
	if b+uint(width) > 64 {
		v |= words[w+1] << (64 - b)
	}
	return v & (uint64(1)<<width - 1)
}

// refFrameShape describes one FOR column's disk frames, derived from the
// uniform-width packed deltas.
type refFrameShape struct {
	refOffs []uint64 // per-frame minimum delta
	widths  []uint8  // per-frame local width
	bits    int      // total payload bits
}

func refForFrameShape(packed []uint64, uw uint8, n int) refFrameShape {
	nf := (n + frameRows - 1) / frameRows
	sh := refFrameShape{refOffs: make([]uint64, nf), widths: make([]uint8, nf)}
	for f := 0; f < nf; f++ {
		lo, hi := f*frameRows, min((f+1)*frameRows, n)
		mn, mx := unpackAt(packed, uw, lo), unpackAt(packed, uw, lo)
		for i := lo + 1; i < hi; i++ {
			d := unpackAt(packed, uw, i)
			mn, mx = min(mn, d), max(mx, d)
		}
		sh.refOffs[f] = mn
		sh.widths[f] = bitsForU64(mx - mn)
		sh.bits += int(sh.widths[f]) * (hi - lo)
	}
	return sh
}

// refWriteFORFrames serializes the frame streams of one FOR column.
func refWriteFORFrames(b *bytes.Buffer, packed []uint64, uw uint8, n int) {
	sh := refForFrameShape(packed, uw, n)
	b.Write(sh.widths[:])
	bw := bitWriter{buf: b}
	for _, off := range sh.refOffs {
		bw.write(off, uw)
	}
	bw.flush()
	for f := range sh.widths {
		lo, hi := f*frameRows, min((f+1)*frameRows, n)
		fw := sh.widths[f]
		for i := lo; i < hi; i++ {
			bw.write(unpackAt(packed, uw, i)-sh.refOffs[f], fw)
		}
	}
	bw.flush()
}

// refReadFORFrames decodes the frame streams back into uniform-width packed
// deltas, enforcing the canonical form: every frame width is exact and
// locally anchored at zero, the global minimum delta is zero, and the
// global maximum needs exactly uw bits. Returns the packed words and the
// maximum delta (for the caller's overflow check against its reference).
func refReadFORFrames(sr *sliceReader, rows int, uw uint8) ([]uint64, uint64, error) {
	nf := (rows + frameRows - 1) / frameRows
	widths, err := sr.take(nf)
	if err != nil {
		return nil, 0, err
	}
	payloadBits := 0
	for f, fw := range widths {
		if fw > uw {
			return nil, 0, fmt.Errorf("%w: frame width %d exceeds column width %d", ErrCorrupt, fw, uw)
		}
		lo, hi := f*frameRows, min((f+1)*frameRows, rows)
		payloadBits += int(fw) * (hi - lo)
	}
	refBytes, err := sr.take(bitStreamBytes(nf, uw))
	if err != nil {
		return nil, 0, err
	}
	payload, err := sr.take((payloadBits + 7) / 8)
	if err != nil {
		return nil, 0, err
	}
	packed := make([]uint64, packedWords(rows, uw))
	wp := wordPacker{words: packed}
	refs := bitReader{b: refBytes}
	vals := bitReader{b: payload}
	maxUW := uint64(1)<<uw - 1
	globalMin, globalMax := ^uint64(0), uint64(0)
	for f := 0; f < nf; f++ {
		refOff := refs.read(uw)
		fw := widths[f]
		lo, hi := f*frameRows, min((f+1)*frameRows, rows)
		localMin, localMax := ^uint64(0), uint64(0)
		for i := lo; i < hi; i++ {
			d := vals.read(fw)
			localMin, localMax = min(localMin, d), max(localMax, d)
			v := refOff + d
			if v > maxUW {
				return nil, 0, fmt.Errorf("%w: FOR delta exceeds column width", ErrCorrupt)
			}
			wp.put(v, uw)
			globalMin, globalMax = min(globalMin, v), max(globalMax, v)
		}
		if localMin != 0 || bitsForU64(localMax) != fw {
			return nil, 0, fmt.Errorf("%w: non-canonical FOR frame", ErrCorrupt)
		}
	}
	if globalMin != 0 || bitsForU64(globalMax) != uw {
		return nil, 0, fmt.Errorf("%w: non-canonical FOR column", ErrCorrupt)
	}
	return packed, globalMax, nil
}

// refReadDict decodes and fully validates one dictionary (shared by the
// uint32 and float32 columns): sorted strictly ascending, canonical
// width, every code in range and used.
func refReadDict(sr *sliceReader, rows int) (dict []uint32, width uint8, packed []uint64, err error) {
	if width, err = sr.ReadByte(); err != nil {
		return nil, 0, nil, asTruncated(err)
	}
	nd, err := binary.ReadUvarint(sr)
	if err != nil {
		return nil, 0, nil, asTruncated(err)
	}
	if nd == 0 || nd > dictMaxEntries || width != bitsForU64(nd-1) {
		return nil, 0, nil, fmt.Errorf("%w: dictionary of %d entries at width %d", ErrCorrupt, nd, width)
	}
	db, err := sr.take(int(nd) * 4)
	if err != nil {
		return nil, 0, nil, err
	}
	dict = getLE[uint32](db, int(nd))
	for i := 1; i < len(dict); i++ {
		if dict[i] <= dict[i-1] {
			return nil, 0, nil, fmt.Errorf("%w: dictionary not strictly ascending", ErrCorrupt)
		}
	}
	pb, err := sr.take(packedWords(rows, width) * 8)
	if err != nil {
		return nil, 0, nil, err
	}
	packed = getLE[uint64](pb, packedWords(rows, width))
	var seen uint64
	if width == 0 {
		seen = 1
	} else {
		for i := 0; i < rows; i++ {
			code := unpackAt(packed, width, i)
			if code >= nd {
				return nil, 0, nil, fmt.Errorf("%w: dictionary code out of range", ErrCorrupt)
			}
			seen |= 1 << code
		}
	}
	if seen != uint64(1)<<nd-1 {
		return nil, 0, nil, fmt.Errorf("%w: unused dictionary entries", ErrCorrupt)
	}
	return dict, width, packed, nil
}

func refReadEncU32(sr *sliceReader, rows int, e *EncodedU32) error {
	code, err := sr.ReadByte()
	if err != nil {
		return asTruncated(err)
	}
	e.Code, e.N = ColumnCode(code), rows
	switch e.Code {
	case CodeRaw:
		b, err := sr.take(4 * rows)
		if err != nil {
			return err
		}
		e.Raw = getLE[uint32](b, rows)
	case CodeRLE:
		nruns, err := binary.ReadUvarint(sr)
		if err != nil {
			return asTruncated(err)
		}
		if nruns == 0 || nruns > uint64(rows) {
			return fmt.Errorf("%w: %d runs for %d rows", ErrCorrupt, nruns, rows)
		}
		hdr, err := sr.take(6)
		if err != nil {
			return err
		}
		ref := binary.LittleEndian.Uint32(hdr)
		wv, wl := hdr[4], hdr[5]
		if wv > 32 || wl > 31 {
			return fmt.Errorf("%w: run widths %d/%d", ErrCorrupt, wv, wl)
		}
		nr := int(nruns)
		valBytes, err := sr.take(bitStreamBytes(nr, wv))
		if err != nil {
			return err
		}
		lenBytes, err := sr.take(bitStreamBytes(nr, wl))
		if err != nil {
			return err
		}
		e.RunVals = make([]uint32, nr)
		e.RunEnds = make([]uint32, nr)
		br := bitReader{b: valBytes}
		maxD := uint64(0)
		minD := ^uint64(0)
		for i := 0; i < nr; i++ {
			d := br.read(wv)
			minD, maxD = min(minD, d), max(maxD, d)
			if d > uint64(math.MaxUint32)-uint64(ref) {
				return fmt.Errorf("%w: run value overflows uint32", ErrCorrupt)
			}
			v := ref + uint32(d)
			if i > 0 && v == e.RunVals[i-1] {
				return fmt.Errorf("%w: non-maximal runs", ErrCorrupt)
			}
			e.RunVals[i] = v
		}
		if minD != 0 || bitsForU64(maxD) != wv {
			return fmt.Errorf("%w: non-canonical run values", ErrCorrupt)
		}
		br = bitReader{b: lenBytes}
		total := uint64(0)
		maxL := uint64(0)
		for i := 0; i < nr; i++ {
			l := br.read(wl) + 1
			maxL = max(maxL, l)
			total += l
			if total > uint64(rows) {
				return fmt.Errorf("%w: runs cover more than %d rows", ErrCorrupt, rows)
			}
			e.RunEnds[i] = uint32(total)
		}
		if total != uint64(rows) {
			return fmt.Errorf("%w: runs cover %d of %d rows", ErrCorrupt, total, rows)
		}
		if bitsForU64(maxL-1) != wl {
			return fmt.Errorf("%w: non-canonical run lengths", ErrCorrupt)
		}
	case CodeDict:
		if e.Dict, e.Width, e.Packed, err = refReadDict(sr, rows); err != nil {
			return err
		}
	case CodeFOR:
		if e.Width, err = sr.ReadByte(); err != nil {
			return asTruncated(err)
		}
		if e.Width > 32 {
			return fmt.Errorf("%w: FOR width %d exceeds 32", ErrCorrupt, e.Width)
		}
		rb, err := sr.take(4)
		if err != nil {
			return err
		}
		e.Ref = uint64(binary.LittleEndian.Uint32(rb))
		if e.Width > 0 {
			packed, maxD, err := refReadFORFrames(sr, rows, e.Width)
			if err != nil {
				return err
			}
			if maxD > uint64(math.MaxUint32)-e.Ref {
				return fmt.Errorf("%w: FOR delta overflows uint32", ErrCorrupt)
			}
			e.Packed = packed
		}
	default:
		return fmt.Errorf("%w: unknown column code %d", ErrCorrupt, code)
	}
	return nil
}

func refReadEncI64(sr *sliceReader, rows int, e *EncodedI64) error {
	code, err := sr.ReadByte()
	if err != nil {
		return asTruncated(err)
	}
	e.Code, e.N = ColumnCode(code), rows
	switch e.Code {
	case CodeRaw:
		b, err := sr.take(8 * rows)
		if err != nil {
			return err
		}
		e.Raw = getLE[int64](b, rows)
	case CodeFOR:
		if e.Width, err = sr.ReadByte(); err != nil {
			return asTruncated(err)
		}
		if e.Width > maxFORWidthI64 {
			return fmt.Errorf("%w: FOR width %d exceeds %d", ErrCorrupt, e.Width, maxFORWidthI64)
		}
		rb, err := sr.take(8)
		if err != nil {
			return err
		}
		e.Ref = binary.LittleEndian.Uint64(rb)
		if e.Width > 0 {
			packed, maxD, err := refReadFORFrames(sr, rows, e.Width)
			if err != nil {
				return err
			}
			if int64(e.Ref) >= 0 && maxD > uint64(math.MaxInt64)-e.Ref {
				return fmt.Errorf("%w: FOR delta overflows int64", ErrCorrupt)
			}
			e.Packed = packed
		}
	default:
		return fmt.Errorf("%w: column code %d invalid for int64", ErrCorrupt, code)
	}
	return nil
}

func refReadEncF32(sr *sliceReader, rows int, e *EncodedF32) error {
	code, err := sr.ReadByte()
	if err != nil {
		return asTruncated(err)
	}
	e.Code, e.N = ColumnCode(code), rows
	switch e.Code {
	case CodeRaw:
		b, err := sr.take(4 * rows)
		if err != nil {
			return err
		}
		e.Raw = getLE[float32](b, rows)
	case CodeDict:
		if e.Dict, e.Width, e.Packed, err = refReadDict(sr, rows); err != nil {
			return err
		}
	case CodeFOR:
		if e.Width, err = sr.ReadByte(); err != nil {
			return asTruncated(err)
		}
		if e.Width > 32 {
			return fmt.Errorf("%w: FOR width %d exceeds 32", ErrCorrupt, e.Width)
		}
		rb, err := sr.take(4)
		if err != nil {
			return err
		}
		e.Ref = uint64(binary.LittleEndian.Uint32(rb))
		if e.Width > 0 {
			packed, maxD, err := refReadFORFrames(sr, rows, e.Width)
			if err != nil {
				return err
			}
			if maxD > uint64(math.MaxUint32)-e.Ref {
				return fmt.Errorf("%w: FOR delta overflows uint32", ErrCorrupt)
			}
			e.Packed = packed
		}
	default:
		return fmt.Errorf("%w: column code %d invalid for float32", ErrCorrupt, code)
	}
	return nil
}

// refDecodeEncBlock decodes and validates one encoded block payload into a
// self-contained SegmentEnc (all arrays copied out of the payload).
func refDecodeEncBlock(payload []byte, rows int) (SegmentEnc, error) {
	var e SegmentEnc
	sr := &sliceReader{buf: payload}
	claimed, err := binary.ReadUvarint(sr)
	if err != nil {
		return e, asTruncated(err)
	}
	if claimed > MaxSegmentRows || int(claimed) != rows {
		return e, fmt.Errorf("%w: block claims %d rows, segment has %d", ErrCorrupt, claimed, rows)
	}
	e.Rows = rows
	for _, col := range []*EncodedU32{&e.Batch, &e.TaskType, &e.Item, &e.Worker, &e.Answer} {
		if err := refReadEncU32(sr, rows, col); err != nil {
			return e, err
		}
	}
	if err := refReadEncI64(sr, rows, &e.Start); err != nil {
		return e, err
	}
	if err := refReadEncI64(sr, rows, &e.EndOff); err != nil {
		return e, err
	}
	if err := refReadEncF32(sr, rows, &e.Trust); err != nil {
		return e, err
	}
	if sr.remaining() != 0 {
		return e, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, sr.remaining())
	}
	return e, nil
}

// --- per-row accessors ------------------------------------------------

// runIndex returns the index of the CodeRLE run containing row i.
func runIndex(e *EncodedU32, i int) int {
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

// valueU32 decodes row i.
func valueU32(e *EncodedU32, i int) uint32 {
	switch e.Code {
	case CodeRaw:
		return e.Raw[i]
	case CodeRLE:
		return e.RunVals[runIndex(e, i)]
	case CodeDict:
		if e.Width == 0 {
			return e.Dict[0]
		}
		return e.Dict[unpackAt(e.Packed, e.Width, i)]
	default: // CodeFOR
		if e.Width == 0 {
			return uint32(e.Ref)
		}
		return uint32(e.Ref) + uint32(unpackAt(e.Packed, e.Width, i))
	}
}

// valueI64 decodes row i.
func valueI64(e *EncodedI64, i int) int64 {
	if e.Code == CodeRaw {
		return e.Raw[i]
	}
	if e.Width == 0 {
		return int64(e.Ref)
	}
	return int64(e.Ref) + int64(unpackAt(e.Packed, e.Width, i))
}

// valueF32 decodes row i.
func valueF32(e *EncodedF32, i int) float32 {
	switch e.Code {
	case CodeRaw:
		return e.Raw[i]
	case CodeDict:
		if e.Width == 0 {
			return math.Float32frombits(e.Dict[0])
		}
		return math.Float32frombits(e.Dict[unpackAt(e.Packed, e.Width, i)])
	default: // CodeFOR
		if e.Width == 0 {
			return math.Float32frombits(uint32(e.Ref))
		}
		return math.Float32frombits(uint32(e.Ref) + uint32(unpackAt(e.Packed, e.Width, i)))
	}
}

// packAll bit-packs n values produced by get into the in-memory packed
// form, a frame at a time.
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
		packFrame(words[lo/frameRows*int(width):], &vals, width)
	}
	return words
}
