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
//	8 × column, in colTable order (batch, taskType, item, worker, answer,
//	start, end-offset, trust), each:
//	    byte code — one the column's value type admits (traits.order)
//	    CodeRaw:  rows × value LE (4 bytes, 8 for the int64 columns)
//	    CodeRLE:  uvarint nruns, reference LE, byte wv, byte wl,
//	              run values bitstream (nruns × wv, offsets from the
//	              reference), run lengths bitstream (nruns × wl,
//	              length-1 each)
//	    CodeDict: byte width, uvarint dictLen, dictLen × value LE,
//	              packedWords(rows,width) × uint64 LE
//	    CodeFOR:  byte uw, reference LE, then (uw > 0) the frame
//	              streams: one width byte per 64-row frame, frame
//	              reference offsets bitstream (uw bits each), frame
//	              payload bitstream (rows × per-frame width)
//
// A reference is as wide as a value (traits.refBytes); float32 values
// stand as their IEEE-754 bit patterns throughout.
//
// A bit stream packs its values LSB-first and ends on a byte boundary; 64
// values of width w are w little-endian words, so every block of 64 values
// starts word-aligned in its stream and moves through the block codec
// (colenc.go) as whole words. The FOR payload stream is therefore the
// column's frame words themselves, which the writer emits and the reader
// keeps as they are, under a frame directory built from the widths and
// reference offsets. Every length is derived from
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

// putLE appends vs as fixed-width little-endian values.
func putLE[T value | uint64](b *bytes.Buffer, vs []T) {
	var scratch [8 * 1024]byte
	for len(vs) > 0 {
		n, size := min(len(vs), 1024), 4
		switch chunk := any(vs[:n]).(type) {
		case []uint32:
			for i, v := range chunk {
				binary.LittleEndian.PutUint32(scratch[i*4:], v)
			}
		case []float32:
			for i, v := range chunk {
				binary.LittleEndian.PutUint32(scratch[i*4:], math.Float32bits(v))
			}
		case []int64:
			size = 8
			for i, v := range chunk {
				binary.LittleEndian.PutUint64(scratch[i*8:], uint64(v))
			}
		case []uint64:
			size = 8
			for i, v := range chunk {
				binary.LittleEndian.PutUint64(scratch[i*8:], v)
			}
		}
		b.Write(scratch[:n*size])
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

// getLE decodes the n fixed-width little-endian values b holds.
func getLE[T value | uint64](b []byte, n int) []T {
	out := make([]T, n)
	switch out := any(out).(type) {
	case []uint32:
		for i := range out {
			out[i] = binary.LittleEndian.Uint32(b[i*4:])
		}
	case []float32:
		for i := range out {
			out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[i*4:]))
		}
	case []int64:
		for i := range out {
			out[i] = int64(binary.LittleEndian.Uint64(b[i*8:]))
		}
	case []uint64:
		for i := range out {
			out[i] = binary.LittleEndian.Uint64(b[i*8:])
		}
	}
	return out
}

// --- FOR frame stream ------------------------------------------------

// writeFORFrames serializes the frame streams of one FOR column: the frame
// widths, the frame references as offsets from Ref, and the frame words.
func writeFORFrames[T value](b *bytes.Buffer, e *Encoded[T]) {
	nf, nbits := len(e.frames)/2, 0
	for f := 0; f < nf; f++ {
		_, _, width := e.frame(f)
		b.WriteByte(width)
		nbits += int(width) * min(frameRows, e.N-f*frameRows)
	}
	bw := blockWriter{buf: b}
	var blk [frameRows]uint64
	for lo := 0; lo < nf; lo += frameRows {
		m := min(frameRows, nf-lo)
		for i := range blk[:m] {
			ref, _, _ := e.frame(lo + i)
			blk[i] = ref - e.Ref
		}
		clear(blk[m:])
		bw.put(&blk, m, e.Width)
	}
	putLE(b, e.Packed)
	b.Truncate(b.Len() - 8*len(e.Packed) + (nbits+7)/8)
}

// readFORFrames decodes the frame streams of the FOR column e heads (its
// N, Width and Ref set): every length is taken from the payload before
// anything is allocated, the payload words become Packed as they are, and
// checkFrames enforces the canonical form.
func readFORFrames[T value](sr *sliceReader, e *Encoded[T]) error {
	nf := (e.N + frameRows - 1) / frameRows
	widths, err := sr.take(nf)
	if err != nil {
		return err
	}
	nbits := 0
	for f, fw := range widths {
		if fw > e.Width {
			return fmt.Errorf("%w: frame width %d exceeds column width %d", ErrCorrupt, fw, e.Width)
		}
		nbits += int(fw) * min(frameRows, e.N-f*frameRows)
	}
	refBytes, err := sr.take(bitStreamBytes(nf, e.Width))
	if err != nil {
		return err
	}
	payload, err := sr.take((nbits + 7) / 8)
	if err != nil {
		return err
	}
	e.allocFrames((nbits + 63) / 64)
	refs := blockReader{b: refBytes}
	var refOffs [frameRows]uint64
	off := 0
	for f, fw := range widths {
		if f%frameRows == 0 {
			refs.next(&refOffs, min(frameRows, nf-f), e.Width)
		}
		e.setFrame(f, e.Ref+refOffs[f%frameRows], off, fw)
		off += int(fw)
	}
	full := len(payload) / 8
	for i := range e.Packed[:full] {
		e.Packed[i] = binary.LittleEndian.Uint64(payload[8*i:])
	}
	if full < len(e.Packed) {
		var le [8]byte
		copy(le[:], payload[8*full:])
		e.Packed[full] = binary.LittleEndian.Uint64(le[:])
	}
	return e.checkFrames()
}

// --- column serializers ----------------------------------------------

// rleShape returns what the run streams are packed against: the ordinal of
// the least run value and the widths of the value offsets from it and of
// the lengths-minus-one.
func rleShape[T value](runVals []T, runEnds []uint32, tr *traits) (ref uint64, wv, wl uint8) {
	mn, mx := ^uint64(0), uint64(0)
	var blk [frameRows]uint64
	for lo := 0; lo < len(runVals); lo += frameRows {
		m := loadBlock(&blk, runVals[lo:min(lo+frameRows, len(runVals))])
		for _, o := range blk[:m] {
			o ^= tr.sign
			mn, mx = min(mn, o), max(mx, o)
		}
	}
	maxLen, prev := uint32(0), uint32(0)
	for _, end := range runEnds {
		maxLen = max(maxLen, end-prev)
		prev = end
	}
	return mn ^ tr.sign, bitsForU64(mx - mn), bitsForU64(uint64(maxLen - 1))
}

// putRef appends a reference: the low refBytes bytes of its ordinal.
func putRef(b *bytes.Buffer, ref uint64, refBytes int) {
	var r [8]byte
	binary.LittleEndian.PutUint64(r[:], ref)
	b.Write(r[:refBytes])
}

// getRef reads a reference of len(b) bytes back into its ordinal.
func getRef(b []byte) uint64 {
	var r [8]byte
	copy(r[:], b)
	return binary.LittleEndian.Uint64(r[:])
}

// writeEnc serializes one column.
func writeEnc[T value](b *bytes.Buffer, e *Encoded[T]) {
	tr := traitsOf[T]()
	b.WriteByte(byte(e.Code))
	switch e.Code {
	case CodeRaw:
		putLE(b, e.Raw)
	case CodeRLE:
		ref, wv, wl := rleShape(e.RunVals, e.RunEnds, tr)
		putUvarint(b, uint64(len(e.RunVals)))
		putRef(b, ref, tr.refBytes)
		b.WriteByte(wv)
		b.WriteByte(wl)
		bw := blockWriter{buf: b}
		var blk [frameRows]uint64
		for lo := 0; lo < len(e.RunVals); lo += frameRows {
			m := loadBlock(&blk, e.RunVals[lo:min(lo+frameRows, len(e.RunVals))])
			for i := range blk[:m] {
				blk[i] -= ref
			}
			clear(blk[m:])
			bw.put(&blk, m, wv)
		}
		prev := uint32(0)
		for lo := 0; lo < len(e.RunEnds); lo += frameRows {
			m := min(frameRows, len(e.RunEnds)-lo)
			for i, end := range e.RunEnds[lo : lo+m] {
				blk[i] = uint64(end - prev - 1)
				prev = end
			}
			clear(blk[m:])
			bw.put(&blk, m, wl)
		}
	case CodeDict:
		b.WriteByte(e.Width)
		putUvarint(b, uint64(len(e.Dict)))
		putLE(b, e.Dict)
		putLE(b, e.Packed)
	case CodeFOR:
		b.WriteByte(e.Width)
		putRef(b, e.Ref, tr.refBytes)
		if e.Width > 0 {
			writeFORFrames(b, e)
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
	for c := range colTable {
		colTable[c].write(b, e)
		offs[c+1] = b.Len() - base
	}
	return offs
}

// rawRowBytes is the size of one row in the raw columns.
const rawRowBytes = 5*4 + 2*8 + 4

// encodedPayloadBytes bounds the serialized size of one encoded block
// from above; the writer uses it only to group blocks into bounded waves.
// No column is written larger than its raw form and a header: raw is the
// chooser's fallback.
func (e *SegmentEnc) encodedPayloadBytes() int64 {
	return int64(e.Rows)*rawRowBytes + 256
}

// --- column deserializers --------------------------------------------

// readDict decodes one dictionary column: the entry count is bounded
// before anything is taken or allocated, and checkDict enforces the
// canonical form.
func readDict[T value](sr *sliceReader, e *Encoded[T], entryBytes int) error {
	var err error
	if e.Width, err = sr.ReadByte(); err != nil {
		return asTruncated(err)
	}
	nd, err := getUvarint(sr)
	if err != nil {
		return asTruncated(err)
	}
	if nd == 0 || nd > dictMaxEntries {
		return fmt.Errorf("%w: dictionary of %d entries", ErrCorrupt, nd)
	}
	db, err := sr.take(int(nd) * entryBytes)
	if err != nil {
		return err
	}
	pb, err := sr.take(packedWords(e.N, e.Width) * 8)
	if err != nil {
		return err
	}
	e.Dict, e.Packed = getLE[uint32](db, int(nd)), getLE[uint64](pb, packedWords(e.N, e.Width))
	return e.checkDict()
}

// readEnc decodes one column of rows values, refusing every code its
// value type does not admit and every form the writer does not produce.
func readEnc[T value](sr *sliceReader, rows int, e *Encoded[T]) error {
	tr := traitsOf[T]()
	code, err := sr.ReadByte()
	if err != nil {
		return asTruncated(err)
	}
	e.Code, e.N = ColumnCode(code), rows
	if !tr.admits(e.Code) {
		return fmt.Errorf("%w: column code %d invalid for %s", ErrCorrupt, code, tr.name)
	}
	switch e.Code {
	case CodeRaw:
		b, err := sr.take(tr.refBytes * rows)
		if err != nil {
			return err
		}
		e.Raw = getLE[T](b, rows)
	case CodeRLE:
		nruns, err := getUvarint(sr)
		if err != nil {
			return asTruncated(err)
		}
		if nruns == 0 || nruns > uint64(rows) {
			return fmt.Errorf("%w: %d runs for %d rows", ErrCorrupt, nruns, rows)
		}
		hdr, err := sr.take(tr.refBytes + 2)
		if err != nil {
			return err
		}
		ref := getRef(hdr[:tr.refBytes])
		wv, wl := hdr[tr.refBytes], hdr[tr.refBytes+1]
		if wv > tr.maxWidth || wl > 31 {
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
		e.RunVals = make([]T, nr)
		e.RunEnds = make([]uint32, nr)
		var vals [frameRows]uint64
		br := blockReader{b: valBytes}
		maxD := uint64(0)
		minD := ^uint64(0)
		var prev uint64
		for lo := 0; lo < nr; lo += frameRows {
			m := min(frameRows, nr-lo)
			br.next(&vals, m, wv)
			for k, d := range vals[:m] {
				minD, maxD = min(minD, d), max(maxD, d)
				if tr.overflows(ref, d) {
					return fmt.Errorf("%w: run value overflows %s", ErrCorrupt, tr.name)
				}
				if lo+k > 0 && d == prev {
					return fmt.Errorf("%w: non-maximal runs", ErrCorrupt)
				}
				prev = d
			}
			storeBlock(e.RunVals[lo:lo+m], vals[:m], ref)
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
		return readDict(sr, e, tr.refBytes)
	case CodeFOR:
		if e.Width, err = sr.ReadByte(); err != nil {
			return asTruncated(err)
		}
		if e.Width > tr.maxWidth {
			return fmt.Errorf("%w: FOR width %d exceeds %d", ErrCorrupt, e.Width, tr.maxWidth)
		}
		rb, err := sr.take(tr.refBytes)
		if err != nil {
			return err
		}
		e.Ref = getRef(rb)
		if e.Width > 0 {
			return readFORFrames(sr, e)
		}
	}
	return nil
}

// decodeEncBlock decodes and validates one encoded block payload into e,
// self-contained (all arrays copied out of the payload); on an error e is
// left part-filled.
func decodeEncBlock(payload []byte, rows int, e *SegmentEnc) error {
	sr := &sliceReader{buf: payload}
	claimed, err := getUvarint(sr)
	if err != nil {
		return asTruncated(err)
	}
	if claimed > MaxSegmentRows || int(claimed) != rows {
		return fmt.Errorf("%w: block claims %d rows, segment has %d", ErrCorrupt, claimed, rows)
	}
	e.Rows = rows
	for c := range colTable {
		if err := colTable[c].read(sr, rows, e); err != nil {
			return err
		}
	}
	if sr.remaining() != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, sr.remaining())
	}
	return nil
}

// materializeInto decodes the block's columns into rows [lo, lo+Rows) of
// the arena (which must already be grown past lo+Rows).
func (e *SegmentEnc) materializeInto(dst *columns, lo int) {
	for c := range colTable {
		colTable[c].decode(e, dst, lo)
	}
}

// readColumnBlocks decodes the encoded column blocks of a v3 snapshot.
// In strict mode the store ends up encoded-resident (raw columns
// materialize lazily later); in repair mode blocks decode straight into
// raw columns, damaged blocks zero-fill (see fillDamaged), and
// claimed-but-unbacked rows are capped so a forged segment table cannot
// out-allocate the input.
func readColumnBlocks(cr *countingReader, st *Store, n, nblocks, workers int, repair bool, rep *LoadReport) error {
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
					seg := wave[k].segIdx
					if err := decodeEncBlock(wave[k].payload, st.segs[seg].Rows(), &st.encs[seg]); err != nil {
						return sectionErr(fmt.Sprintf("column block %d", wave[k].blockIdx), err)
					}
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
			fillDamaged(st, st.segs[segIdx:])
			return nil
		}
		var enc SegmentEnc
		damaged := checksumBad || decodeEncBlock(payload, si.Rows(), &enc) != nil
		if damaged {
			unbacked += max(0, si.Rows()-len(payload))
			if unbacked > repairMaxFillRows {
				return sectionErr(name, fmt.Errorf("%w: %d claimed rows unbacked by input, beyond repair", ErrCorrupt, unbacked))
			}
			st.grow(si.RowHi)
			rep.Damaged = append(rep.Damaged, name)
			fillDamaged(st, st.segs[segIdx:segIdx+1])
			continue
		}
		st.grow(si.RowHi)
		enc.materializeInto(&st.columns, si.RowLo)
	}
	st.grow(n)
	return nil
}

// fillDamaged gives the zero-filled rows of segs their segment's first
// batch ID: batch zero would lie outside a later segment's interval, and
// the store would not validate.
func fillDamaged(st *Store, segs []SegmentInfo) {
	for _, si := range segs {
		for i := si.RowLo; i < si.RowHi; i++ {
			st.batch[i] = si.BatchLo
		}
	}
}
