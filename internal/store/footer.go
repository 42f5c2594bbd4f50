package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// The footer offset index: compressed (encoded-block) v3 snapshots end
// with a secFooter section indexing everything written before it, plus a
// fixed 16-byte trailer locating that section from the end of the file.
// A random-access reader (see dataset.go) reads the trailer, then the
// footer, and from there can fetch any section — or any single column of
// any column block — with one exact byte-range read, without streaming
// the file. The streaming reader verifies and skips it; the footer is
// derived data, so a damaged one costs repair mode nothing.
//
// Footer payload layout (all uvarints unless noted):
//
//	nsecs, then per section (write order):
//	    kind byte, absolute offset of the 9-byte section header, payload len
//	nblocks, then per encoded column block (block order):
//	    absolute offset of the block payload (past its section header)
//	    length of the rows uvarint prefix
//	    8 × { column byte length, uint32 LE CRC32 (IEEE) of those bytes }
//
// Block columns appear in disk order (batch, taskType, item, worker,
// answer, start, end-offset, trust — see serializeEncBlock); a column's
// offset is the payload offset plus the rows prefix plus the lengths of
// the columns before it.
//
// Trailer layout (16 bytes, not a framed section):
//
//	uint64 LE absolute offset of the secFooter section header
//	uint32 LE footer payload length
//	uint32 LE trailer magic ("FOOT")
const footerMagic = 0x544F4F46 // "FOOT" little-endian on disk

// footerTrailerLen is the fixed size of the end-of-file trailer.
const footerTrailerLen = 16

// maxFooterSecs bounds the section directory; v3 writes at most four
// indexed sections (meta, provenance, segments, zones).
const maxFooterSecs = 64

// footerBlockMinBytes is the least bytes one encoded block directory
// entry can occupy (two 1-byte uvarints plus eight 1-byte lengths with
// 4-byte CRCs) — the remaining-input bound on the claimed block count.
const footerBlockMinBytes = 2 + 8*5

// footerSec locates one framed section.
type footerSec struct {
	kind byte
	off  int64 // absolute offset of the section header
	len  int64 // payload length
}

// footerBlock locates one encoded column block's payload and its
// per-column extents, in disk column order.
type footerBlock struct {
	payloadOff int64 // absolute offset of the block payload
	rowsLen    int64 // bytes of the leading rows uvarint
	colLen     [8]int64
	colCRC     [8]uint32
}

// colOff returns the absolute offset of disk column c within the block.
func (fb *footerBlock) colOff(c int) int64 {
	off := fb.payloadOff + fb.rowsLen
	for i := 0; i < c; i++ {
		off += fb.colLen[i]
	}
	return off
}

// end returns the absolute offset just past the block payload.
func (fb *footerBlock) end() int64 { return fb.colOff(8) }

// footerIndex is the decoded footer section.
type footerIndex struct {
	secs   []footerSec
	blocks []footerBlock
}

// sec returns the directory entry for a section kind, if present.
func (fi *footerIndex) sec(kind byte) (footerSec, bool) {
	for _, s := range fi.secs {
		if s.kind == kind {
			return s, true
		}
	}
	return footerSec{}, false
}

// encodeFooter serializes the footer index as a section payload.
func encodeFooter(b *bytes.Buffer, fi *footerIndex) {
	putUvarint(b, uint64(len(fi.secs)))
	for _, s := range fi.secs {
		b.WriteByte(s.kind)
		putUvarint(b, uint64(s.off))
		putUvarint(b, uint64(s.len))
	}
	putUvarint(b, uint64(len(fi.blocks)))
	for i := range fi.blocks {
		fb := &fi.blocks[i]
		putUvarint(b, uint64(fb.payloadOff))
		putUvarint(b, uint64(fb.rowsLen))
		var crc [4]byte
		for c := 0; c < 8; c++ {
			putUvarint(b, uint64(fb.colLen[c]))
			binary.LittleEndian.PutUint32(crc[:], fb.colCRC[c])
			b.Write(crc[:])
		}
	}
}

// decodeFooter parses a footer section payload, bounding every claimed
// count against the bytes actually present.
func decodeFooter(payload []byte) (*footerIndex, error) {
	sr := &sliceReader{buf: payload}
	nsecs, err := getUvarint(sr)
	if err != nil {
		return nil, asTruncated(err)
	}
	if nsecs > maxFooterSecs || int(nsecs)*3 > sr.remaining() {
		return nil, fmt.Errorf("%w: footer claims %d sections", ErrCorrupt, nsecs)
	}
	fi := &footerIndex{secs: make([]footerSec, nsecs)}
	for i := range fi.secs {
		kind, err := sr.ReadByte()
		if err != nil {
			return nil, asTruncated(err)
		}
		off, err := getUvarint(sr)
		if err != nil {
			return nil, asTruncated(err)
		}
		length, err := getUvarint(sr)
		if err != nil {
			return nil, asTruncated(err)
		}
		if off > math.MaxInt64/2 || length > math.MaxUint32 {
			return nil, fmt.Errorf("%w: footer section %d extent overflow", ErrCorrupt, i)
		}
		fi.secs[i] = footerSec{kind: kind, off: int64(off), len: int64(length)}
	}
	nblocks, err := getUvarint(sr)
	if err != nil {
		return nil, asTruncated(err)
	}
	if int64(nblocks)*footerBlockMinBytes > int64(sr.remaining()) {
		return nil, fmt.Errorf("%w: footer claims %d blocks in %d bytes", ErrCorrupt, nblocks, sr.remaining())
	}
	fi.blocks = make([]footerBlock, nblocks)
	for i := range fi.blocks {
		fb := &fi.blocks[i]
		off, err := getUvarint(sr)
		if err != nil {
			return nil, asTruncated(err)
		}
		rowsLen, err := getUvarint(sr)
		if err != nil {
			return nil, asTruncated(err)
		}
		if off > math.MaxInt64/2 || rowsLen > 10 {
			return nil, fmt.Errorf("%w: footer block %d extent overflow", ErrCorrupt, i)
		}
		fb.payloadOff, fb.rowsLen = int64(off), int64(rowsLen)
		for c := 0; c < 8; c++ {
			cl, err := getUvarint(sr)
			if err != nil {
				return nil, asTruncated(err)
			}
			if cl > math.MaxUint32 {
				return nil, fmt.Errorf("%w: footer block %d column length overflow", ErrCorrupt, i)
			}
			fb.colLen[c] = int64(cl)
			crc, err := sr.take(4)
			if err != nil {
				return nil, err
			}
			fb.colCRC[c] = binary.LittleEndian.Uint32(crc)
		}
	}
	if sr.remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, sr.remaining())
	}
	return fi, nil
}

// consumeFooter reads and verifies the footer section and trailer from
// the stream position where the footer must start. Strict loads require
// a consistent footer; in repair mode any damage is recorded and
// tolerated — the footer indexes data the caller already decoded.
func consumeFooter(cr *countingReader, nblocks int, repair bool, rep *LoadReport, scratch *[]byte) error {
	footOff := cr.n
	var tr [footerTrailerLen]byte
	damage := func(err error) error {
		if !repair {
			return err
		}
		rep.Damaged = append(rep.Damaged, "footer index")
		return nil
	}
	payload, err := readSection(cr, secFooter, "footer index", scratch)
	if err != nil {
		if errors.Is(err, ErrTruncated) || payload == nil {
			// Framing lost: nothing more to consume on this stream.
			return damage(err)
		}
		// Checksum damage: the payload was fully read, so the trailer can
		// still be consumed to keep the byte count honest.
		io.ReadFull(cr, tr[:])
		return damage(err)
	}
	fi, err := decodeFooter(payload)
	if err != nil {
		io.ReadFull(cr, tr[:])
		return damage(sectionErr("footer index", err))
	}
	if _, err := io.ReadFull(cr, tr[:]); err != nil {
		return damage(sectionErr("footer trailer", asTruncated(err)))
	}
	off := binary.LittleEndian.Uint64(tr[0:8])
	plen := binary.LittleEndian.Uint32(tr[8:12])
	magic := binary.LittleEndian.Uint32(tr[12:16])
	if magic != footerMagic || off != uint64(footOff) || int(plen) != len(payload) || len(fi.blocks) != nblocks {
		return damage(sectionErr("footer trailer", fmt.Errorf("%w: trailer does not match footer", ErrCorrupt)))
	}
	return nil
}
