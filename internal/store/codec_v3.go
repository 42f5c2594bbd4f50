package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"runtime"
	"slices"

	"crowdscope/internal/par"
)

// Section kinds of the v3 snapshot format, in their on-disk order. Kinds
// 0x04 and 0x05 stay unassigned: files of retired layouts carry them (the
// batch range table, the varint blocks).
const (
	secMeta       byte = 0x01
	secProvenance byte = 0x02
	secSegments   byte = 0x03
	secZones      byte = 0x06
	secEncBlock   byte = 0x07
	secFooter     byte = 0x08
)

// Meta flags. metaFlagProvenance marks a provenance section between meta
// and the segment table; metaFlagZoneMaps marks a zone-map section between
// the segment table and the column blocks (absent only for a store without
// rows). metaFlagEncoded marks encoded column blocks (secEncBlock, one per
// non-empty segment — see codec_enc.go), metaFlagFooter the footer offset
// index plus trailer that end the file (footer.go), and metaFlagBatchColumn
// a file whose batch column is its only batch index: a batch's rows are
// found in it (Store.BatchRange), and no section lists them. Every
// snapshot carries all three; a version-3 file without them is a retired
// layout (varint blocks, or a batch range section), rejected as an
// unsupported version.
const (
	metaFlagProvenance  = 1 << 0
	metaFlagZoneMaps    = 1 << 1
	metaFlagEncoded     = 1 << 2
	metaFlagFooter      = 1 << 3
	metaFlagBatchColumn = 1 << 4

	metaFlagsRequired = metaFlagEncoded | metaFlagFooter | metaFlagBatchColumn
)

// MaxSegmentRows is the segment cap: no segment of a store that is to be
// snapshotted may hold more rows. One encoded block persists one segment,
// and a fully constant segment legally encodes to a few dozen bytes, so a
// block's rows are not backed by input bytes; the cap bounds what any
// block can make the loader (or a later materialization) allocate. It is
// enforced where segments are produced — synth sizes its segment cuts
// under it and LiveStore.Compact clamps its merge target — and
// WriteSnapshot refuses an oversize segment rather than fall back to a
// second layout.
const MaxSegmentRows = 1 << 22

// maxToolLen bounds the provenance tool string.
const maxToolLen = 1 << 10

// maxBlockWave bounds how many column blocks are buffered per decode or
// encode wave; together with blockWaveBytes it caps codec scratch memory.
const maxBlockWave = 32

// blockWaveBytes additionally bounds one encoded-block wave by payload
// bytes: encoded blocks are per-segment (they cannot split a packed
// array), so at full scale a count-only cap would buffer too much.
const blockWaveBytes = 64 << 20

// repairMaxFillRows caps how many missing tail rows repair mode will
// zero-fill (~170MB of columns): a real truncation within this bound
// still recovers, while a forged meta row count cannot make repair
// allocate memory unbacked by input bytes.
const repairMaxFillRows = 1 << 22

// writeSection frames one section: kind, payload length, CRC32 (IEEE) of
// the payload, then the payload itself.
func writeSection(cw *countingWriter, kind byte, payload []byte) {
	var hdr [9]byte
	hdr[0] = kind
	binary.LittleEndian.PutUint32(hdr[1:5], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[5:9], crc32.ChecksumIEEE(payload))
	cw.Write(hdr[:])
	cw.Write(payload)
}

// sealedLayout returns what a snapshot persists: the store's Segments()
// with one zone map and one column encoding per segment, computed here
// once for stores that do not carry them. It fails when a segment
// exceeds MaxSegmentRows.
func (s *Store) sealedLayout() (catalogue, error) {
	for i, si := range s.Segments() {
		if si.Rows() > MaxSegmentRows {
			return catalogue{}, fmt.Errorf("store: segment %d holds %d rows, above the %d-row segment cap (MaxSegmentRows)", i, si.Rows(), MaxSegmentRows)
		}
	}
	return s.filled(sealZone | sealEnc), nil
}

// WriteSnapshot serializes the store in the v3 sectioned format: its
// Segments() as encoded column blocks behind a footer index; an empty
// store is the zero-block case. The output bytes are identical for every
// WriteOptions.Workers value. A segment above MaxSegmentRows is an error.
func (s *Store) WriteSnapshot(w io.Writer, opts WriteOptions) (int64, error) {
	cat, err := s.sealedLayout()
	if err != nil {
		return 0, err
	}
	segs, encs, zones := cat.segs, cat.encs, cat.zones
	encIdx := cat.nonEmpty()
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	bw := bufio.NewWriterSize(w, 1<<20)
	cw := &countingWriter{w: bw}

	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], snapshotMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], snapshotVersion)
	cw.Write(hdr[:])

	// The footer offset index lets random-access readers fetch sections
	// and single columns without streaming; writeIndexed records each
	// section's extent as it goes out.
	foot := &footerIndex{}
	writeIndexed := func(kind byte, p []byte) {
		foot.secs = append(foot.secs, footerSec{kind: kind, off: cw.n, len: int64(len(p))})
		writeSection(cw, kind, p)
	}

	var payload bytes.Buffer
	putUvarint(&payload, uint64(s.Len()))
	putUvarint(&payload, uint64(s.NumBatches()))
	putUvarint(&payload, uint64(len(segs)))
	putUvarint(&payload, uint64(len(encIdx)))
	flags := uint64(metaFlagsRequired)
	if opts.Provenance != nil {
		flags |= metaFlagProvenance
	}
	if len(zones) > 0 {
		flags |= metaFlagZoneMaps
	}
	putUvarint(&payload, flags)
	writeIndexed(secMeta, payload.Bytes())

	if p := opts.Provenance; p != nil {
		payload.Reset()
		putUvarint(&payload, p.ConfigHash)
		putUvarint(&payload, p.Seed)
		tool := p.Tool
		if len(tool) > maxToolLen {
			tool = tool[:maxToolLen]
		}
		putUvarint(&payload, uint64(len(tool)))
		payload.WriteString(tool)
		writeIndexed(secProvenance, payload.Bytes())
	}

	payload.Reset()
	for _, si := range segs {
		putUvarint(&payload, uint64(si.RowLo))
		putUvarint(&payload, uint64(si.RowHi))
		putUvarint(&payload, uint64(si.BatchLo))
		putUvarint(&payload, uint64(si.BatchHi))
	}
	writeIndexed(secSegments, payload.Bytes())

	if len(zones) > 0 {
		payload.Reset()
		encodeZones(&payload, zones)
		writeIndexed(secZones, payload.Bytes())
	}

	// Column blocks: encoded wave by wave into reused per-slot buffers
	// (the scratch bound) in parallel, then written sequentially in block
	// order — byte-identical output for any worker count, since block
	// boundaries and wave grouping are fixed by the data.
	bufs := make([]bytes.Buffer, min(maxBlockWave, len(encIdx)))
	splits := make([][9]int, len(bufs))
	for b := 0; b < len(encIdx); {
		k, waveBytes := 0, int64(0)
		for b+k < len(encIdx) && k < len(bufs) {
			sz := encs[encIdx[b+k]].encodedPayloadBytes()
			if k > 0 && waveBytes+sz > blockWaveBytes {
				break
			}
			waveBytes += sz
			k++
		}
		par.EachShard(k, workers, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				bufs[i].Reset()
				splits[i] = serializeEncBlock(&bufs[i], &encs[encIdx[b+i]])
			}
		})
		for i := 0; i < k; i++ {
			p := bufs[i].Bytes()
			fb := footerBlock{payloadOff: cw.n + 9, rowsLen: int64(splits[i][0])}
			for c := 0; c < 8; c++ {
				lo, hi := splits[i][c], splits[i][c+1]
				fb.colLen[c] = int64(hi - lo)
				fb.colCRC[c] = crc32.ChecksumIEEE(p[lo:hi])
			}
			foot.blocks = append(foot.blocks, fb)
			writeSection(cw, secEncBlock, p)
		}
		b += k
	}
	payload.Reset()
	encodeFooter(&payload, foot)
	footOff := cw.n
	writeSection(cw, secFooter, payload.Bytes())
	var tr [footerTrailerLen]byte
	binary.LittleEndian.PutUint64(tr[0:8], uint64(footOff))
	binary.LittleEndian.PutUint32(tr[8:12], uint32(payload.Len()))
	binary.LittleEndian.PutUint32(tr[12:16], footerMagic)
	cw.Write(tr[:])
	if err := bw.Flush(); err != nil && cw.err == nil {
		return cw.n, err
	}
	return cw.n, cw.err
}

// zeroChunk backs input-bounded buffer growth in readN.
var zeroChunk [allocChunk]byte

// readN reads exactly n bytes, reusing *scratch across calls. The buffer
// grows only as input actually arrives, so a forged length header cannot
// force a large allocation.
func readN(cr *countingReader, n int, scratch *[]byte) ([]byte, error) {
	buf := (*scratch)[:0]
	for len(buf) < n {
		k := min(n-len(buf), allocChunk)
		off := len(buf)
		buf = append(buf, zeroChunk[:k]...)
		*scratch = buf[:0]
		if _, err := io.ReadFull(cr, buf[off:]); err != nil {
			return nil, asTruncated(err)
		}
	}
	*scratch = buf[:0]
	return buf, nil
}

// readSection reads one framed section, verifying kind and checksum. On a
// checksum mismatch the (fully read) payload is returned alongside the
// error, so repair mode can keep its framing position.
func readSection(cr *countingReader, wantKind byte, name string, scratch *[]byte) ([]byte, error) {
	var hdr [9]byte
	if _, err := io.ReadFull(cr, hdr[:]); err != nil {
		return nil, sectionErr(name, asTruncated(err))
	}
	if hdr[0] != wantKind {
		return nil, sectionErr(name, fmt.Errorf("%w: unexpected section kind 0x%02x", ErrCorrupt, hdr[0]))
	}
	length := binary.LittleEndian.Uint32(hdr[1:5])
	want := binary.LittleEndian.Uint32(hdr[5:9])
	payload, err := readN(cr, int(length), scratch)
	if err != nil {
		return nil, sectionErr(name, err)
	}
	if crc32.ChecksumIEEE(payload) != want {
		return payload, sectionErr(name, ErrChecksum)
	}
	return payload, nil
}

// grown extends s to length `to`, zeroing any region newly exposed from
// spare capacity.
func grown[T any](s []T, to int) []T {
	if to <= len(s) {
		return s
	}
	if to > cap(s) {
		c := 2 * cap(s)
		if c < to {
			c = to
		}
		ns := make([]T, to, c)
		copy(ns, s)
		return ns
	}
	var zero T
	s2 := s[:to]
	for i := len(s); i < to; i++ {
		s2[i] = zero
	}
	return s2
}

// readV3 decodes a v3 snapshot body (after the magic/version header) into
// a fresh store.
func readV3(cr *countingReader, opts LoadOptions, rep *LoadReport) (*Store, error) {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	repair := opts.Mode == LoadRepair

	var scratch []byte
	payload, err := readSection(cr, secMeta, "meta", &scratch)
	if err != nil {
		return nil, err
	}
	m, err := decodeMeta(payload)
	if err != nil {
		return nil, err
	}

	if m.flags&metaFlagProvenance != 0 {
		payload, err = readSection(cr, secProvenance, "provenance", &scratch)
		if err == nil {
			rep.Provenance, err = decodeProvenance(payload)
		}
		if err != nil {
			// A damaged provenance section does not affect the data; in
			// repair mode record it and move on. Truncation still aborts:
			// the stream position is lost.
			if !repair || errors.Is(err, ErrTruncated) || payload == nil {
				return nil, err
			}
			rep.Provenance = nil
			rep.Damaged = append(rep.Damaged, "provenance")
		}
	}

	st, err := decodeLayout(m, func(kind byte, name string) ([]byte, error) {
		payload, err := readSection(cr, kind, name, &scratch)
		if kind != secZones {
			return payload, err
		}
		switch {
		case err != nil:
			// A damaged zone-map section loses no data — zones are derived
			// — so repair mode drops it and recomputes lazily. Truncation
			// still aborts: the stream position is lost.
			if !repair || errors.Is(err, ErrTruncated) || payload == nil {
				return nil, err
			}
			rep.Damaged = append(rep.Damaged, "zone maps")
			return nil, nil
		case repair:
			// Repair mode may zero-fill column blocks below, which would
			// falsify persisted zones; never trust them — recompute from
			// whatever data actually loads.
			return nil, nil
		}
		return payload, nil
	})
	if err != nil {
		return nil, err
	}
	segs, n, nblocks := st.segs, m.rows, m.blocks

	// Encoded column blocks, one per non-empty segment, then the footer.
	if len(segs) == 0 && n > 0 {
		return nil, sectionErr("meta", fmt.Errorf("%w: %d rows without a segment table", ErrCorrupt, n))
	}
	if err := readColumnBlocks(cr, st, n, nblocks, workers, repair, rep); err != nil {
		return nil, err
	}
	if err := consumeFooter(cr, nblocks, repair, rep, &scratch); err != nil {
		return nil, err
	}
	st.rows = n
	if len(st.zones) == len(segs) {
		st.deriveDirectories(colMaskAll | colMaskDuration)
	}
	return st, nil
}

// snapMeta is the decoded meta section: what the rest of a snapshot is
// sized and laid out by.
type snapMeta struct {
	rows, batches, segs, blocks int
	flags                       uint64
}

// decodeMeta parses a meta section payload — every snapshot reader's first
// step. The counts are bounded by MaxInt32, so they convert to int and no
// arithmetic on them wraps, whatever the file claims; a version-3 file
// whose flags do not name the encoded, footer-indexed layout is the
// retired varint-block one: an unsupported version.
func decodeMeta(payload []byte) (snapMeta, error) {
	sr := &sliceReader{buf: payload}
	var counts [5]uint64 // rows, batches, segments, blocks, flags
	for i := range counts {
		var err error
		if counts[i], err = getUvarint(sr); err != nil {
			return snapMeta{}, sectionErr("meta", asTruncated(err))
		}
	}
	if slices.Max(counts[:4]) > math.MaxInt32 {
		return snapMeta{}, sectionErr("meta", fmt.Errorf("%w: counts overflow", ErrCorrupt))
	}
	if sr.remaining() != 0 {
		return snapMeta{}, sectionErr("meta", fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, sr.remaining()))
	}
	m := snapMeta{int(counts[0]), int(counts[1]), int(counts[2]), int(counts[3]), counts[4]}
	if m.flags&metaFlagsRequired != metaFlagsRequired {
		return snapMeta{}, sectionErr("meta", fmt.Errorf("%w: not the encoded, footer-indexed, batch-column layout (flags %#x)", ErrBadVersion, m.flags))
	}
	return m, nil
}

// decodeLayout decodes the structural sections that follow meta — the
// segment table and, when flagged, zone maps — against its counts into a
// store of no rows yet, wrapping a decode error in the section's name.
// section fetches one verified payload: the streaming reader's next
// section, a shard's exact read. A nil zone-map payload without an error
// leaves zones out (repair mode drops what it cannot or will not trust).
func decodeLayout(m snapMeta, section func(kind byte, name string) ([]byte, error)) (*Store, error) {
	st := &Store{numBatches: m.batches, fill: &fillState{}, gen: nextGeneration()}
	payload, err := section(secSegments, "segment table")
	if err != nil {
		return nil, err
	}
	if st.segs, err = decodeSegments(payload, m.segs, m.rows, m.batches); err != nil {
		return nil, sectionErr("segment table", err)
	}
	if m.flags&metaFlagZoneMaps == 0 {
		return st, nil
	}
	if payload, err = section(secZones, "zone maps"); err != nil || payload == nil {
		return st, err
	}
	if st.zones, err = decodeZones(payload, st.segs); err != nil {
		return nil, sectionErr("zone maps", err)
	}
	return st, nil
}

func decodeProvenance(payload []byte) (*Provenance, error) {
	sr := &sliceReader{buf: payload}
	var p Provenance
	var err error
	if p.ConfigHash, err = getUvarint(sr); err != nil {
		return nil, sectionErr("provenance", asTruncated(err))
	}
	if p.Seed, err = getUvarint(sr); err != nil {
		return nil, sectionErr("provenance", asTruncated(err))
	}
	tl, err := getUvarint(sr)
	if err != nil {
		return nil, sectionErr("provenance", asTruncated(err))
	}
	if tl > maxToolLen || int(tl) != sr.remaining() {
		return nil, sectionErr("provenance", fmt.Errorf("%w: bad tool string length %d", ErrCorrupt, tl))
	}
	p.Tool = string(sr.buf[sr.pos:])
	return &p, nil
}

// decodeSegments decodes the segment table, bounding the claimed count
// against the payload bytes actually present (each entry needs at least
// four) — the remaining-input bound that replaced the old batch-count
// heuristic — and enforcing the same layout invariants Validate checks.
func decodeSegments(payload []byte, ns, n, nb int) ([]SegmentInfo, error) {
	if ns == 0 {
		if len(payload) != 0 {
			return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(payload))
		}
		return nil, nil
	}
	if ns*4 > len(payload) {
		return nil, fmt.Errorf("%w: %d segments cannot fit in %d bytes", ErrCorrupt, ns, len(payload))
	}
	sr := &sliceReader{buf: payload}
	segs := make([]SegmentInfo, ns)
	rowOff, batchOff := 0, uint32(0)
	for i := range segs {
		var v [4]uint64
		for j := range v {
			var err error
			if v[j], err = getUvarint(sr); err != nil {
				return nil, asTruncated(err)
			}
			if v[j] > math.MaxInt32 {
				return nil, fmt.Errorf("%w: segment %d field overflow", ErrCorrupt, i)
			}
		}
		si := SegmentInfo{
			RowLo: int(v[0]), RowHi: int(v[1]),
			BatchLo: uint32(v[2]), BatchHi: uint32(v[3]),
		}
		if si.RowLo != rowOff || si.RowHi < si.RowLo || si.RowHi > n {
			return nil, fmt.Errorf("%w: segment %d rows [%d,%d) not contiguous at %d", ErrCorrupt, i, si.RowLo, si.RowHi, rowOff)
		}
		if si.BatchLo < batchOff || si.BatchHi < si.BatchLo || int(si.BatchHi) > nb {
			return nil, fmt.Errorf("%w: segment %d batch interval [%d,%d) invalid", ErrCorrupt, i, si.BatchLo, si.BatchHi)
		}
		rowOff, batchOff = si.RowHi, si.BatchHi
		segs[i] = si
	}
	if rowOff != n {
		return nil, fmt.Errorf("%w: segments cover %d of %d rows", ErrCorrupt, rowOff, n)
	}
	if sr.remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, sr.remaining())
	}
	return segs, nil
}

// encodeZone writes one zone map: the integer column bounds as uvarints,
// the time bounds zig-zag coded, trust as fixed-width floats, then the
// length-prefixed distinct sets. Shared by the snapshot zone section and
// the manifest's per-shard zones.
func encodeZone(b *bytes.Buffer, z *ZoneMap) {
	putUvarint(b, uint64(z.Rows))
	for _, v := range []uint32{z.TaskTypeMin, z.TaskTypeMax, z.ItemMin, z.ItemMax,
		z.WorkerMin, z.WorkerMax, z.AnswerMin, z.AnswerMax} {
		putUvarint(b, uint64(v))
	}
	for _, v := range []int64{z.StartMin, z.StartMax, z.EndMin, z.EndMax} {
		putUvarint(b, zigzag(v))
	}
	putFloats(b, []float32{z.TrustMin, z.TrustMax})
	for _, set := range [][]uint32{z.TaskTypes, z.Answers} {
		putUvarint(b, uint64(len(set)))
		putUvarints(b, set)
	}
}

// encodeZones writes one zone map per segment.
func encodeZones(b *bytes.Buffer, zones []ZoneMap) {
	for i := range zones {
		encodeZone(b, &zones[i])
	}
}

// decodeZones decodes one zone map per segment, enforcing the invariants
// pruning relies on: row counts match the segment table, bounds are
// ordered, and the distinct sets are small, strictly ascending, and inside
// the column bounds.
func decodeZones(payload []byte, segs []SegmentInfo) ([]ZoneMap, error) {
	if len(segs) == 0 {
		return nil, fmt.Errorf("%w: zone maps without a segment table", ErrCorrupt)
	}
	sr := &sliceReader{buf: payload}
	zones := make([]ZoneMap, len(segs))
	for i := range zones {
		z, err := decodeZone(sr, segs[i].Rows(), i)
		if err != nil {
			return nil, err
		}
		zones[i] = z
	}
	if sr.remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, sr.remaining())
	}
	return zones, nil
}

// decodeZone decodes one zone map, enforcing the invariants pruning
// relies on: the row count matches wantRows, bounds are ordered, and the
// distinct sets are small, strictly ascending, and inside the column
// bounds. The index i only labels errors.
func decodeZone(sr *sliceReader, wantRows, i int) (ZoneMap, error) {
	var z ZoneMap
	rows, err := getUvarint(sr)
	if err != nil {
		return z, asTruncated(err)
	}
	if int(rows) != wantRows {
		return z, fmt.Errorf("%w: zone map %d covers %d rows, expected %d", ErrCorrupt, i, rows, wantRows)
	}
	z.Rows = int(rows)
	u32s := [...]*uint32{&z.TaskTypeMin, &z.TaskTypeMax, &z.ItemMin, &z.ItemMax,
		&z.WorkerMin, &z.WorkerMax, &z.AnswerMin, &z.AnswerMax}
	for _, p := range u32s {
		v, err := getUvarint(sr)
		if err != nil {
			return z, asTruncated(err)
		}
		if v > math.MaxUint32 {
			return z, fmt.Errorf("%w: zone map %d field exceeds uint32", ErrCorrupt, i)
		}
		*p = uint32(v)
	}
	i64s := [...]*int64{&z.StartMin, &z.StartMax, &z.EndMin, &z.EndMax}
	for _, p := range i64s {
		v, err := getUvarint(sr)
		if err != nil {
			return z, asTruncated(err)
		}
		*p = unzigzag(v)
	}
	var tr [2]float32
	if err := getFloatsInto(sr, tr[:]); err != nil {
		return z, err
	}
	z.TrustMin, z.TrustMax = tr[0], tr[1]
	if z.Rows > 0 && (z.TaskTypeMin > z.TaskTypeMax || z.ItemMin > z.ItemMax ||
		z.WorkerMin > z.WorkerMax || z.AnswerMin > z.AnswerMax ||
		z.StartMin > z.StartMax || z.EndMin > z.EndMax || z.TrustMin > z.TrustMax) {
		return z, fmt.Errorf("%w: zone map %d bounds inverted", ErrCorrupt, i)
	}
	for si, bounds := range [][2]uint32{{z.TaskTypeMin, z.TaskTypeMax}, {z.AnswerMin, z.AnswerMax}} {
		cnt, err := getUvarint(sr)
		if err != nil {
			return z, asTruncated(err)
		}
		if cnt == 0 {
			continue
		}
		if cnt > zoneEnumCap {
			return z, fmt.Errorf("%w: zone map %d distinct set of %d exceeds cap %d", ErrCorrupt, i, cnt, zoneEnumCap)
		}
		set, err := getUvarints(sr, int(cnt))
		if err != nil {
			return z, err
		}
		for j, v := range set {
			if (j > 0 && v <= set[j-1]) || v < bounds[0] || v > bounds[1] {
				return z, fmt.Errorf("%w: zone map %d distinct set not ascending within bounds", ErrCorrupt, i)
			}
		}
		if si == 0 {
			z.TaskTypes = set
		} else {
			z.Answers = set
		}
	}
	return z, nil
}
