package store

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"crowdscope/internal/par"
)

// Encoded column blocks (secEncBlock): the on-disk form of one segment's
// SegmentEnc, written when meta carries metaFlagEncoded. Layout:
//
//	uvarint rows
//	5 × uint32 column   (batch, taskType, item, worker, answer):
//	    byte code
//	    CodeRaw:  rows × uint32 LE
//	    CodeRLE:  uvarint nruns, uint32 valRef LE, byte wv, byte wl,
//	              run values bitstream (nruns × wv, offsets from valRef),
//	              run lengths bitstream (nruns × wl, length-1 each)
//	    CodeDict: byte width, uvarint dictLen, dictLen × uint32 LE,
//	              packedWords(rows,width) × uint64 LE
//	    CodeFOR:  byte uw, uint32 ref LE, then (uw > 0) the frame
//	              streams: one width byte per 64-row frame, frame
//	              reference offsets bitstream (uw bits each), frame
//	              payload bitstream (rows × per-frame width)
//	2 × int64 column    (start, end-offset): as CodeRaw (int64 LE) or
//	    CodeFOR with an int64 reference
//	1 × float32 column  (trust): CodeRaw (float32 LE), CodeDict or
//	    uniform CodeFOR over the IEEE-754 bit patterns
//
// FOR columns are frame-packed on disk only: the decoder re-packs the
// 64-row frames at the uniform in-memory width the scan kernels index in
// O(1). A bit stream packs its values LSB-first and ends on a byte
// boundary; 64 values of width w are w little-endian words, so every block
// of 64 values — every full FOR frame of the payload stream among them —
// starts byte-aligned in its stream and moves through the block codec
// (colenc.go) as whole words. Every length is derived from
// rows/width/counts and checked against the remaining payload *before* it
// is allocated, and the decoder enforces the canonical form the encoder
// produces (references are true minima, widths are exact, runs are
// maximal, every dictionary code is used), so forged run counts, bit
// widths or dictionary sizes error out without over-allocating. Block row
// counts are additionally capped at MaxSegmentRows (codec_v3.go), the rule
// every segment producer keeps.

// --- bit streams ----------------------------------------------------

func bitStreamBytes(count int, width uint8) int {
	return (count*int(width) + 7) / 8
}

// blockWriter appends a bit stream to buf one block at a time.
type blockWriter struct {
	buf   *bytes.Buffer
	words [frameRows]uint64
}

// put appends the stream's next block: the first n values of vals (each
// below 2^width, zero past n) packed into bitStreamBytes(n, width) bytes.
// Only a stream's last block may hold fewer than 64 values.
func (w *blockWriter) put(vals *[frameRows]uint64, n int, width uint8) {
	if width == 0 {
		return
	}
	pack64(w.words[:], vals, width)
	w.buf.Grow(8 * int(width))
	le := w.buf.AvailableBuffer()[:8*int(width)]
	for i, word := range w.words[:width] {
		binary.LittleEndian.PutUint64(le[8*i:], word)
	}
	w.buf.Write(le[:bitStreamBytes(n, width)])
}

// putAll appends a whole stream of equal-width values.
func (w *blockWriter) putAll(n int, width uint8, get func(i int) uint64) {
	var vals [frameRows]uint64
	for lo := 0; lo < n; lo += frameRows {
		m := min(frameRows, n-lo)
		for i := 0; i < m; i++ {
			vals[i] = get(lo + i)
		}
		clear(vals[m:])
		w.put(&vals, m, width)
	}
}

// blockReader reads a bit stream one block at a time. Callers size the
// stream exactly; padding bits are not inspected, and the canonical-form
// checks reject any value they could hide.
type blockReader struct {
	b     []byte
	words [frameRows]uint64
}

// next unpacks the stream's next block — n values (at most 64; fewer only
// in the stream's last block) — into dst.
func (r *blockReader) next(dst *[frameRows]uint64, n int, width uint8) {
	nb := bitStreamBytes(n, width)
	if nb == 8*int(width) {
		for i := range r.words[:width] {
			r.words[i] = binary.LittleEndian.Uint64(r.b[8*i:])
		}
	} else {
		var le [8 * frameRows]byte
		copy(le[:], r.b[:nb])
		for i := range r.words[:width] {
			r.words[i] = binary.LittleEndian.Uint64(le[8*i:])
		}
	}
	r.b = r.b[nb:]
	unpack64(dst, r.words[:], width)
}

// --- fixed-width array helpers --------------------------------------

func putU32sLE(b *bytes.Buffer, vs []uint32) {
	var scratch [4 * 1024]byte
	for len(vs) > 0 {
		n := min(len(vs), 1024)
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint32(scratch[i*4:], vs[i])
		}
		b.Write(scratch[:n*4])
		vs = vs[n:]
	}
}

func putU64sLE(b *bytes.Buffer, vs []uint64) {
	var scratch [8 * 1024]byte
	for len(vs) > 0 {
		n := min(len(vs), 1024)
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(scratch[i*8:], vs[i])
		}
		b.Write(scratch[:n*8])
		vs = vs[n:]
	}
}

func putI64sLE(b *bytes.Buffer, vs []int64) {
	var scratch [8 * 1024]byte
	for len(vs) > 0 {
		n := min(len(vs), 1024)
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(scratch[i*8:], uint64(vs[i]))
		}
		b.Write(scratch[:n*8])
		vs = vs[n:]
	}
}

func putF32sLE(b *bytes.Buffer, vs []float32) {
	var scratch [4 * 1024]byte
	for len(vs) > 0 {
		n := min(len(vs), 1024)
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint32(scratch[i*4:], math.Float32bits(vs[i]))
		}
		b.Write(scratch[:n*4])
		vs = vs[n:]
	}
}

// take returns the next n payload bytes without copying, or ErrCorrupt
// when fewer remain — the pre-allocation bound every decoded array goes
// through.
func (s *sliceReader) take(n int) ([]byte, error) {
	if n < 0 || s.remaining() < n {
		return nil, fmt.Errorf("%w: %d bytes needed, %d remain", ErrCorrupt, n, s.remaining())
	}
	b := s.buf[s.pos : s.pos+n]
	s.pos += n
	return b, nil
}

func getU32sLE(b []byte) []uint32 {
	out := make([]uint32, len(b)/4)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(b[i*4:])
	}
	return out
}

func getU64sLE(b []byte) []uint64 {
	out := make([]uint64, len(b)/8)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(b[i*8:])
	}
	return out
}

func getI64sLE(b []byte) []int64 {
	out := make([]int64, len(b)/8)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out
}

func getF32sLE(b []byte) []float32 {
	out := make([]float32, len(b)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return out
}

// --- FOR frame stream ------------------------------------------------

// frameShape describes one FOR column's disk frames, derived from the
// uniform-width packed deltas.
type frameShape struct {
	refOffs []uint64 // per-frame minimum delta
	widths  []uint8  // per-frame local width
	bits    int      // total payload bits
}

func forFrameShape(packed []uint64, uw uint8, n int) frameShape {
	nf := (n + frameRows - 1) / frameRows
	sh := frameShape{refOffs: make([]uint64, nf), widths: make([]uint8, nf)}
	var vals [frameRows]uint64
	for f := 0; f < nf; f++ {
		UnpackFrame(&vals, packed, uw, f)
		rows := min(frameRows, n-f*frameRows)
		mn, mx := vals[0], vals[0]
		for _, d := range vals[1:rows] {
			mn, mx = min(mn, d), max(mx, d)
		}
		sh.refOffs[f] = mn
		sh.widths[f] = bitsForU64(mx - mn)
		sh.bits += int(sh.widths[f]) * rows
	}
	return sh
}

// forDiskBytes returns the serialized size of the frame streams.
func (sh *frameShape) diskBytes(uw uint8) int {
	return len(sh.widths) + bitStreamBytes(len(sh.refOffs), uw) + (sh.bits+7)/8
}

// writeFORFrames serializes the frame streams of one FOR column.
func writeFORFrames(b *bytes.Buffer, packed []uint64, uw uint8, n int) {
	sh := forFrameShape(packed, uw, n)
	b.Write(sh.widths)
	bw := blockWriter{buf: b}
	bw.putAll(len(sh.refOffs), uw, func(f int) uint64 { return sh.refOffs[f] })
	var vals [frameRows]uint64
	for f, fw := range sh.widths {
		UnpackFrame(&vals, packed, uw, f)
		rows := min(frameRows, n-f*frameRows)
		for i := range vals[:rows] {
			vals[i] -= sh.refOffs[f]
		}
		clear(vals[rows:])
		bw.put(&vals, rows, fw)
	}
}

// readFORFrames decodes the frame streams back into uniform-width packed
// deltas, enforcing the canonical form: every frame width is exact and
// locally anchored at zero, the global minimum delta is zero, and the
// global maximum needs exactly uw bits. Returns the packed words and the
// maximum delta (for the caller's overflow check against its reference).
func readFORFrames(sr *sliceReader, rows int, uw uint8) ([]uint64, uint64, error) {
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
	refs, frames := blockReader{b: refBytes}, blockReader{b: payload}
	packed := make([]uint64, packedWords(rows, uw))
	maxUW := uint64(1)<<uw - 1
	globalMin, globalMax := ^uint64(0), uint64(0)
	var refOffs, vals [frameRows]uint64
	for f, fw := range widths {
		if f%frameRows == 0 {
			refs.next(&refOffs, min(frameRows, nf-f), uw)
		}
		refOff := refOffs[f%frameRows]
		n := min(frameRows, rows-f*frameRows)
		frames.next(&vals, n, fw)
		// One pass re-bases the frame on the column reference and finds its
		// extremes. refOff and every delta are below 2^63, so no sum wraps.
		lo, hi := ^uint64(0), uint64(0)
		for i, d := range vals[:n] {
			v := refOff + d
			vals[i] = v
			lo, hi = min(lo, v), max(hi, v)
		}
		if hi > maxUW {
			return nil, 0, fmt.Errorf("%w: FOR delta exceeds column width", ErrCorrupt)
		}
		if lo != refOff || bitsForU64(hi-refOff) != fw {
			return nil, 0, fmt.Errorf("%w: non-canonical FOR frame", ErrCorrupt)
		}
		clear(vals[n:])
		packFrame(packed, &vals, uw, f)
		globalMin, globalMax = min(globalMin, lo), max(globalMax, hi)
	}
	if globalMin != 0 || bitsForU64(globalMax) != uw {
		return nil, 0, fmt.Errorf("%w: non-canonical FOR column", ErrCorrupt)
	}
	return packed, globalMax, nil
}

// --- column serializers ----------------------------------------------

func rleShape(e *EncodedU32) (ref uint32, wv, wl uint8) {
	mn, mx := e.RunVals[0], e.RunVals[0]
	maxLen := uint32(0)
	prev := uint32(0)
	for i, v := range e.RunVals {
		mn, mx = min(mn, v), max(mx, v)
		l := e.RunEnds[i] - prev
		maxLen = max(maxLen, l)
		prev = e.RunEnds[i]
	}
	return mn, bitsForU64(uint64(mx - mn)), bitsForU64(uint64(maxLen - 1))
}

func writeEncU32(b *bytes.Buffer, e *EncodedU32) {
	b.WriteByte(byte(e.Code))
	switch e.Code {
	case CodeRaw:
		putU32sLE(b, e.Raw)
	case CodeRLE:
		ref, wv, wl := rleShape(e)
		putUvarint(b, uint64(len(e.RunVals)))
		var r [4]byte
		binary.LittleEndian.PutUint32(r[:], ref)
		b.Write(r[:])
		b.WriteByte(wv)
		b.WriteByte(wl)
		bw := blockWriter{buf: b}
		bw.putAll(len(e.RunVals), wv, func(i int) uint64 { return uint64(e.RunVals[i] - ref) })
		bw.putAll(len(e.RunEnds), wl, func(i int) uint64 {
			if i == 0 {
				return uint64(e.RunEnds[0] - 1)
			}
			return uint64(e.RunEnds[i] - e.RunEnds[i-1] - 1)
		})
	case CodeDict:
		b.WriteByte(e.Width)
		putUvarint(b, uint64(len(e.Dict)))
		putU32sLE(b, e.Dict)
		putU64sLE(b, e.Packed)
	case CodeFOR:
		b.WriteByte(e.Width)
		var r [4]byte
		binary.LittleEndian.PutUint32(r[:], e.Ref)
		b.Write(r[:])
		if e.Width > 0 {
			writeFORFrames(b, e.Packed, e.Width, e.N)
		}
	}
}

func writeEncI64(b *bytes.Buffer, e *EncodedI64) {
	b.WriteByte(byte(e.Code))
	if e.Code == CodeRaw {
		putI64sLE(b, e.Raw)
		return
	}
	b.WriteByte(e.Width)
	var r [8]byte
	binary.LittleEndian.PutUint64(r[:], uint64(e.Ref))
	b.Write(r[:])
	if e.Width > 0 {
		writeFORFrames(b, e.Packed, e.Width, e.N)
	}
}

func writeEncF32(b *bytes.Buffer, e *EncodedF32) {
	b.WriteByte(byte(e.Code))
	switch e.Code {
	case CodeRaw:
		putF32sLE(b, e.Raw)
	case CodeDict:
		b.WriteByte(e.Width)
		putUvarint(b, uint64(len(e.Dict)))
		putU32sLE(b, e.Dict)
		putU64sLE(b, e.Packed)
	case CodeFOR:
		b.WriteByte(e.Width)
		var r [4]byte
		binary.LittleEndian.PutUint32(r[:], e.Ref)
		b.Write(r[:])
		if e.Width > 0 {
			writeFORFrames(b, e.Packed, e.Width, e.N)
		}
	}
}

// serializeEncBlock writes one segment's encoded columns as a block
// payload. It returns the base-relative split offsets the footer index
// records: offs[0] is the end of the leading rows uvarint and disk
// column c spans [offs[c], offs[c+1]), so offs[8] is the payload length.
func serializeEncBlock(b *bytes.Buffer, e *SegmentEnc) [9]int {
	var offs [9]int
	base := b.Len()
	putUvarint(b, uint64(e.Rows))
	offs[0] = b.Len() - base
	for c, col := range e.u32s() {
		writeEncU32(b, col)
		offs[c+1] = b.Len() - base
	}
	writeEncI64(b, &e.Start)
	offs[6] = b.Len() - base
	writeEncI64(b, &e.EndOff)
	offs[7] = b.Len() - base
	writeEncF32(b, &e.Trust)
	offs[8] = b.Len() - base
	return offs
}

// --- serialized-size accounting --------------------------------------

func (e *EncodedU32) encodedBytes() int64 {
	switch e.Code {
	case CodeRLE:
		_, wv, wl := rleShape(e)
		nr := len(e.RunVals)
		return int64(1 + uvarintLen(uint64(nr)) + 4 + 2 + bitStreamBytes(nr, wv) + bitStreamBytes(nr, wl))
	case CodeDict:
		return int64(2 + uvarintLen(uint64(len(e.Dict))) + 4*len(e.Dict) + 8*len(e.Packed))
	case CodeFOR:
		if e.Width == 0 {
			return 6
		}
		sh := forFrameShape(e.Packed, e.Width, e.N)
		return int64(6 + sh.diskBytes(e.Width))
	default:
		return int64(1 + 4*len(e.Raw))
	}
}

func (e *EncodedI64) encodedBytes() int64 {
	if e.Code == CodeFOR {
		if e.Width == 0 {
			return 10
		}
		sh := forFrameShape(e.Packed, e.Width, e.N)
		return int64(10 + sh.diskBytes(e.Width))
	}
	return int64(1 + 8*len(e.Raw))
}

func (e *EncodedF32) encodedBytes() int64 {
	switch e.Code {
	case CodeDict:
		return int64(2 + uvarintLen(uint64(len(e.Dict))) + 4*len(e.Dict) + 8*len(e.Packed))
	case CodeFOR:
		if e.Width == 0 {
			return 6
		}
		sh := forFrameShape(e.Packed, e.Width, e.N)
		return int64(6 + sh.diskBytes(e.Width))
	default:
		return int64(1 + 4*len(e.Raw))
	}
}

// encodedPayloadBytes returns a fast upper bound on the serialized size
// of one encoded block; the writer uses it only to group blocks into
// bounded waves, so it avoids the per-value frame scan the exact
// accounting (encodedBytes) performs.
func (e *SegmentEnc) encodedPayloadBytes() int64 {
	frames := int64((e.Rows + frameRows - 1) / frameRows)
	boundU32 := func(c *EncodedU32) int64 {
		return int64(16+4*len(c.Raw)+8*len(c.RunVals)+4*len(c.Dict)+8*len(c.Packed)) + 9*frames
	}
	boundI64 := func(c *EncodedI64) int64 {
		return int64(16+8*len(c.Raw)+8*len(c.Packed)) + 9*frames
	}
	return boundU32(&e.Batch) + boundU32(&e.TaskType) + boundU32(&e.Item) +
		boundU32(&e.Worker) + boundU32(&e.Answer) +
		boundI64(&e.Start) + boundI64(&e.EndOff) +
		int64(16+4*len(e.Trust.Raw)+4*len(e.Trust.Dict)+8*len(e.Trust.Packed)) + 9*frames
}

// --- column deserializers --------------------------------------------

// readDict decodes and fully validates one dictionary (shared by the
// uint32 and float32 columns): sorted strictly ascending, canonical
// width, every code in range and used.
func readDict(sr *sliceReader, rows int) (dict []uint32, width uint8, packed []uint64, err error) {
	if width, err = sr.ReadByte(); err != nil {
		return nil, 0, nil, asTruncated(err)
	}
	nd, err := getUvarint(sr)
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
	dict = getU32sLE(db)
	for i := 1; i < len(dict); i++ {
		if dict[i] <= dict[i-1] {
			return nil, 0, nil, fmt.Errorf("%w: dictionary not strictly ascending", ErrCorrupt)
		}
	}
	pb, err := sr.take(packedWords(rows, width) * 8)
	if err != nil {
		return nil, 0, nil, err
	}
	packed = getU64sLE(pb)
	// Codes are at most 6 bits wide (nd <= 64), so the seen-mask shift is
	// in range whatever the bytes hold.
	seen, maxCode := uint64(0), uint64(0)
	if width == 0 {
		seen = 1
	} else {
		var codes [frameRows]uint64
		for lo := 0; lo < rows; lo += frameRows {
			UnpackFrame(&codes, packed, width, lo/frameRows)
			for _, code := range codes[:min(frameRows, rows-lo)] {
				maxCode = max(maxCode, code)
				seen |= 1 << code
			}
		}
	}
	if maxCode >= nd {
		return nil, 0, nil, fmt.Errorf("%w: dictionary code out of range", ErrCorrupt)
	}
	if seen != uint64(1)<<nd-1 {
		return nil, 0, nil, fmt.Errorf("%w: unused dictionary entries", ErrCorrupt)
	}
	return dict, width, packed, nil
}

func readEncU32(sr *sliceReader, rows int, e *EncodedU32) error {
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
		e.Raw = getU32sLE(b)
	case CodeRLE:
		nruns, err := getUvarint(sr)
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
		var vals [frameRows]uint64
		br := blockReader{b: valBytes}
		maxD := uint64(0)
		minD := ^uint64(0)
		for lo := 0; lo < nr; lo += frameRows {
			m := min(frameRows, nr-lo)
			br.next(&vals, m, wv)
			for k, d := range vals[:m] {
				i := lo + k
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
		}
		if minD != 0 || bitsForU64(maxD) != wv {
			return fmt.Errorf("%w: non-canonical run values", ErrCorrupt)
		}
		br = blockReader{b: lenBytes}
		total := uint64(0)
		maxL := uint64(0)
		for lo := 0; lo < nr; lo += frameRows {
			m := min(frameRows, nr-lo)
			br.next(&vals, m, wl)
			for k, d := range vals[:m] {
				l := d + 1
				maxL = max(maxL, l)
				total += l
				if total > uint64(rows) {
					return fmt.Errorf("%w: runs cover more than %d rows", ErrCorrupt, rows)
				}
				e.RunEnds[lo+k] = uint32(total)
			}
		}
		if total != uint64(rows) {
			return fmt.Errorf("%w: runs cover %d of %d rows", ErrCorrupt, total, rows)
		}
		if bitsForU64(maxL-1) != wl {
			return fmt.Errorf("%w: non-canonical run lengths", ErrCorrupt)
		}
	case CodeDict:
		if e.Dict, e.Width, e.Packed, err = readDict(sr, rows); err != nil {
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
		e.Ref = binary.LittleEndian.Uint32(rb)
		if e.Width > 0 {
			packed, maxD, err := readFORFrames(sr, rows, e.Width)
			if err != nil {
				return err
			}
			if maxD > uint64(math.MaxUint32)-uint64(e.Ref) {
				return fmt.Errorf("%w: FOR delta overflows uint32", ErrCorrupt)
			}
			e.Packed = packed
		}
	default:
		return fmt.Errorf("%w: unknown column code %d", ErrCorrupt, code)
	}
	return nil
}

func readEncI64(sr *sliceReader, rows int, e *EncodedI64) error {
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
		e.Raw = getI64sLE(b)
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
		e.Ref = int64(binary.LittleEndian.Uint64(rb))
		if e.Width > 0 {
			packed, maxD, err := readFORFrames(sr, rows, e.Width)
			if err != nil {
				return err
			}
			if e.Ref >= 0 && maxD > uint64(math.MaxInt64)-uint64(e.Ref) {
				return fmt.Errorf("%w: FOR delta overflows int64", ErrCorrupt)
			}
			e.Packed = packed
		}
	default:
		return fmt.Errorf("%w: column code %d invalid for int64", ErrCorrupt, code)
	}
	return nil
}

func readEncF32(sr *sliceReader, rows int, e *EncodedF32) error {
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
		e.Raw = getF32sLE(b)
	case CodeDict:
		if e.Dict, e.Width, e.Packed, err = readDict(sr, rows); err != nil {
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
		e.Ref = binary.LittleEndian.Uint32(rb)
		if e.Width > 0 {
			packed, maxD, err := readFORFrames(sr, rows, e.Width)
			if err != nil {
				return err
			}
			if maxD > uint64(math.MaxUint32)-uint64(e.Ref) {
				return fmt.Errorf("%w: FOR delta overflows uint32", ErrCorrupt)
			}
			e.Packed = packed
		}
	default:
		return fmt.Errorf("%w: column code %d invalid for float32", ErrCorrupt, code)
	}
	return nil
}

// decodeEncBlock decodes and validates one encoded block payload into a
// self-contained SegmentEnc (all arrays copied out of the payload).
func decodeEncBlock(payload []byte, rows int) (SegmentEnc, error) {
	var e SegmentEnc
	sr := &sliceReader{buf: payload}
	claimed, err := getUvarint(sr)
	if err != nil {
		return e, asTruncated(err)
	}
	if claimed > MaxSegmentRows || int(claimed) != rows {
		return e, fmt.Errorf("%w: block claims %d rows, segment has %d", ErrCorrupt, claimed, rows)
	}
	e.Rows = rows
	for _, col := range e.u32s() {
		if err := readEncU32(sr, rows, col); err != nil {
			return e, err
		}
	}
	if err := readEncI64(sr, rows, &e.Start); err != nil {
		return e, err
	}
	if err := readEncI64(sr, rows, &e.EndOff); err != nil {
		return e, err
	}
	if err := readEncF32(sr, rows, &e.Trust); err != nil {
		return e, err
	}
	if sr.remaining() != 0 {
		return e, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, sr.remaining())
	}
	return e, nil
}

// materializeInto decodes the block's columns into rows [lo, lo+Rows) of
// the arena (which must already be grown past lo+Rows).
func (e *SegmentEnc) materializeInto(dst *columns, lo int) {
	hi := lo + e.Rows
	raw := dst.u32s()
	for k, col := range e.u32s() {
		col.DecodeInto((*raw[k])[lo:hi])
	}
	e.Start.DecodeInto(dst.start[lo:hi])
	e.EndOff.DecodeInto(dst.end[lo:hi])
	for i := lo; i < hi; i++ {
		dst.end[i] += dst.start[i]
	}
	e.Trust.DecodeInto(dst.trust[lo:hi])
}

// readEncodedBlocks decodes the encoded column blocks of a v3 snapshot.
// In strict mode the store ends up encoded-resident (raw columns
// materialize lazily later); in repair mode blocks decode straight into
// raw columns, damaged blocks zero-fill (appended to damagedSpans for the
// batch-column rebuild), and claimed-but-unbacked rows are capped so a
// forged segment table cannot out-allocate the input.
func readEncodedBlocks(cr *countingReader, st *Store, n, nblocks, workers int, repair bool, rep *LoadReport, damagedSpans *[][2]int) error {
	nonEmpty := st.nonEmpty()
	if nblocks != len(nonEmpty) {
		return sectionErr("meta", fmt.Errorf("%w: %d encoded blocks for %d non-empty segments", ErrCorrupt, nblocks, len(nonEmpty)))
	}

	if !repair {
		st.encs = make([]SegmentEnc, len(st.segs))
		bufs := make([][]byte, max(min(maxBlockWave, len(nonEmpty)), 1))
		type wb struct {
			blockIdx, segIdx int
			payload          []byte
		}
		wave := make([]wb, 0, len(bufs))
		for b := 0; b < len(nonEmpty); b += len(wave) {
			wave = wave[:0]
			waveBytes := 0
			for b+len(wave) < len(nonEmpty) && len(wave) < len(bufs) &&
				(len(wave) == 0 || waveBytes < blockWaveBytes) {
				i := b + len(wave)
				payload, err := readSection(cr, secEncBlock, fmt.Sprintf("column block %d", i), &bufs[len(wave)])
				if err != nil {
					return err
				}
				wave = append(wave, wb{blockIdx: i, segIdx: nonEmpty[i], payload: payload})
				waveBytes += len(payload)
			}
			if err := par.EachShardCtx(context.Background(), len(wave), workers, func(_ context.Context, lo, hi int) error {
				for k := lo; k < hi; k++ {
					enc, err := decodeEncBlock(wave[k].payload, st.segs[wave[k].segIdx].Rows())
					if err != nil {
						return sectionErr(fmt.Sprintf("column block %d", wave[k].blockIdx), err)
					}
					st.encs[wave[k].segIdx] = enc
				}
				return nil
			}); err != nil {
				return err
			}
		}
		return nil
	}

	// Repair: sequential, materializing. unbacked tracks zero-filled rows
	// beyond what the damaged payload bytes plausibly back (legitimate
	// blocks carry several bytes per row; one per row is a generous
	// floor), so a forged segment table cannot repair-"recover" into an
	// arbitrarily large zeroed store.
	var buf []byte
	unbacked := 0
	for bi, segIdx := range nonEmpty {
		si := st.segs[segIdx]
		name := fmt.Sprintf("column block %d", bi)
		payload, err := readSection(cr, secEncBlock, name, &buf)
		checksumBad := err != nil && errors.Is(err, ErrChecksum) && payload != nil
		if err != nil && !checksumBad {
			// Truncated or unframeable: recover everything before this
			// block and zero-fill the rest, capped — the remaining rows are
			// claimed by the segment table, not backed by input.
			rep.Damaged = append(rep.Damaged, name)
			if n-si.RowLo > repairMaxFillRows {
				return sectionErr(name, fmt.Errorf("%w: %d of %d claimed rows missing, beyond repair", ErrCorrupt, n-si.RowLo, n))
			}
			st.grow(n)
			*damagedSpans = append(*damagedSpans, [2]int{si.RowLo, n})
			return nil
		}
		damaged := checksumBad
		var enc SegmentEnc
		if !damaged {
			if enc, err = decodeEncBlock(payload, si.Rows()); err != nil {
				damaged = true
			}
		}
		if damaged {
			unbacked += max(0, si.Rows()-len(payload))
			if unbacked > repairMaxFillRows {
				return sectionErr(name, fmt.Errorf("%w: %d claimed rows unbacked by input, beyond repair", ErrCorrupt, unbacked))
			}
			st.grow(si.RowHi)
			rep.Damaged = append(rep.Damaged, name)
			*damagedSpans = append(*damagedSpans, [2]int{si.RowLo, si.RowHi})
			continue
		}
		st.grow(si.RowHi)
		enc.materializeInto(&st.columns, si.RowLo)
	}
	st.grow(n)
	return nil
}
