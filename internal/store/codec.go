package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Snapshot format, version 3: a fixed header (magic, version) followed by
// a sequence of framed sections. Every section carries a one-byte kind, a
// little-endian uint32 payload length, and a CRC32 (IEEE) of the payload,
// so a truncated or bit-flipped file is caught at the damaged section —
// with its name — instead of decoding into garbage.
//
// Section order: meta, optional provenance, segment table, optional zone
// maps, one encoded column block per non-empty segment (the
// segment's RLE/dictionary/FOR-packed columns verbatim — see colenc.go and
// codec_enc.go), then the footer offset index and its trailer (footer.go).
// Blocks are self-contained, which is what lets them be encoded and
// decoded in parallel with bounded scratch memory, and what lets a dataset
// shard read single columns by byte range.
//
// This is the only layout the package writes or reads: the layout is a
// function of the store's segments, never of the host or an option.
// Snapshots of other versions — and version-3 files from before encoded
// blocks and the footer existed — are rejected with ErrBadVersion.
const (
	snapshotMagic   = 0x43524F57 // "CROW"
	snapshotVersion = 3
)

// Sentinel errors for snapshot decoding. Codec errors wrap one of these
// plus the name of the section that failed, so callers can distinguish a
// truncated file from a corrupt column with errors.Is.
var (
	ErrBadMagic   = errors.New("bad magic")
	ErrBadVersion = errors.New("unsupported version")
	ErrTruncated  = errors.New("truncated")
	ErrChecksum   = errors.New("checksum mismatch")
	ErrCorrupt    = errors.New("corrupt data")
)

// sectionErr wraps a sentinel (or an already-wrapped error) with the
// snapshot section it occurred in.
func sectionErr(section string, err error) error {
	return fmt.Errorf("snapshot: %s: %w", section, err)
}

// asTruncated maps the raw EOF errors io readers return to the ErrTruncated
// sentinel, keeping the underlying error text.
func asTruncated(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	return err
}

// Provenance records where a snapshot came from: the hash of the generator
// configuration that produced the rows, its seed, and the writing tool.
// It is stored in its own checksummed section so a reloaded store can be
// matched against the config a pipeline is about to analyze it under.
type Provenance struct {
	ConfigHash uint64
	Seed       uint64
	Tool       string
}

// WriteOptions tune WriteSnapshot.
type WriteOptions struct {
	// Provenance, when non-nil, is embedded in the snapshot.
	Provenance *Provenance
	// Workers bounds the goroutine fan-out of block encoding; zero or
	// negative means GOMAXPROCS. The output bytes are identical for every
	// value — block boundaries are fixed by the data, not the workers.
	Workers int
}

// LoadMode selects how ReadSnapshot treats a damaged snapshot.
type LoadMode int

const (
	// LoadStrict fails on the first damaged section and leaves the store
	// untouched: a strict load never yields a half-populated store.
	LoadStrict LoadMode = iota
	// LoadRepair recovers what it can: a damaged or missing column block
	// is zero-filled (its rows take their segment's first batch ID, so the
	// store still validates) and recorded in the LoadReport. The
	// structural sections (meta, segment table) are required in both
	// modes, and a truncated tail is zero-filled only up to
	// repairMaxFillRows — missing rows are claimed, not input-backed, so
	// the fill is capped rather than trusting a possibly forged count.
	LoadRepair
)

// LoadOptions tune ReadSnapshot.
type LoadOptions struct {
	Mode LoadMode
	// Workers bounds the goroutine fan-out of block decoding; zero or
	// negative means GOMAXPROCS. The loaded store is identical for every
	// value.
	Workers int
}

// LoadReport describes what ReadSnapshot found.
type LoadReport struct {
	// Version is the format version the header declares; set even when
	// the load fails on an unsupported one.
	Version uint32
	// Bytes is the number of input bytes consumed.
	Bytes int64
	// Rows is the number of instance rows loaded.
	Rows int
	// Provenance is the embedded provenance section, nil when absent.
	Provenance *Provenance
	// Damaged lists the sections repair mode zero-filled; empty after a
	// clean load, and always empty in strict mode (strict fails instead).
	Damaged []string
}

// WriteTo serializes the store in the current snapshot format with default
// options. It implements io.WriterTo.
func (s *Store) WriteTo(w io.Writer) (int64, error) {
	return s.WriteSnapshot(w, WriteOptions{})
}

// ReadFrom deserializes a snapshot into the (empty) store, strictly. It
// implements io.ReaderFrom.
func (s *Store) ReadFrom(r io.Reader) (int64, error) {
	rep, err := s.ReadSnapshot(r, LoadOptions{})
	return rep.Bytes, err
}

// ReadSnapshot deserializes a snapshot into the (empty) store. On error
// the store is left untouched.
func (s *Store) ReadSnapshot(r io.Reader, opts LoadOptions) (*LoadReport, error) {
	cr := &countingReader{r: bufio.NewReaderSize(r, 1<<20)}
	rep := &LoadReport{}
	loaded, err := readSnapshot(cr, opts, rep)
	rep.Bytes = cr.n
	if err != nil {
		return rep, err
	}
	rep.Rows = loaded.Len()
	*s = *loaded
	return rep, nil
}

// readSnapshot decodes the header, checks the version, and returns the
// fully decoded store; the caller installs it only on success.
func readSnapshot(cr *countingReader, opts LoadOptions, rep *LoadReport) (*Store, error) {
	var magic, version uint32
	for _, p := range []*uint32{&magic, &version} {
		if err := binary.Read(cr, binary.LittleEndian, p); err != nil {
			return nil, sectionErr("header", asTruncated(err))
		}
	}
	if magic != snapshotMagic {
		return nil, sectionErr("header", ErrBadMagic)
	}
	rep.Version = version
	if version != snapshotVersion {
		return nil, sectionErr("header", fmt.Errorf("%w %d", ErrBadVersion, version))
	}
	return readV3(cr, opts, rep)
}

type countingWriter struct {
	w   io.Writer
	n   int64
	err error
}

func (c *countingWriter) Write(p []byte) (int, error) {
	if c.err != nil {
		return 0, c.err
	}
	n, err := c.w.Write(p)
	c.n += int64(n)
	c.err = err
	return n, err
}

type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func (c *countingReader) ReadByte() (byte, error) {
	var b [1]byte
	_, err := io.ReadFull(c, b[:])
	return b[0], err
}

// sliceReader decodes from an in-memory section payload; it implements
// io.Reader and io.ByteReader over the remaining bytes.
type sliceReader struct {
	buf []byte
	pos int
}

func (s *sliceReader) Read(p []byte) (int, error) {
	if s.pos >= len(s.buf) {
		return 0, io.EOF
	}
	n := copy(p, s.buf[s.pos:])
	s.pos += n
	return n, nil
}

func (s *sliceReader) ReadByte() (byte, error) {
	if s.pos >= len(s.buf) {
		return 0, io.EOF
	}
	b := s.buf[s.pos]
	s.pos++
	return b, nil
}

func (s *sliceReader) remaining() int { return len(s.buf) - s.pos }

// putUvarint appends one varint to the section buffer. Taking the
// concrete *bytes.Buffer (not io.Writer) keeps the encode loop
// allocation-free: nothing escapes through an interface call.
func putUvarint(b *bytes.Buffer, v uint64) {
	for v >= 0x80 {
		b.WriteByte(byte(v) | 0x80)
		v >>= 7
	}
	b.WriteByte(byte(v))
}

// getUvarint decodes one uvarint straight off the payload slice. A short
// or overlong varint is handed to the stream decoder, so those errors are
// the ones binary.ReadUvarint has always returned here.
func getUvarint(s *sliceReader) (uint64, error) {
	if s.pos < len(s.buf) && s.buf[s.pos] < 0x80 {
		s.pos++
		return uint64(s.buf[s.pos-1]), nil
	}
	v, n := binary.Uvarint(s.buf[s.pos:])
	if n <= 0 {
		return binary.ReadUvarint(s)
	}
	s.pos += n
	return v, nil
}

func putUvarints(b *bytes.Buffer, vs []uint32) {
	for _, v := range vs {
		putUvarint(b, uint64(v))
	}
}

// getUvarints decodes n uvarints. The slice grows as input is consumed —
// each element costs at least one input byte — so a forged count cannot
// allocate more than a small multiple of the bytes actually present.
func getUvarints(s *sliceReader, n int) ([]uint32, error) {
	out := make([]uint32, 0, min(n, allocChunk))
	for i := 0; i < n; i++ {
		v, err := getUvarint(s)
		if err != nil {
			return nil, asTruncated(err)
		}
		if v > math.MaxUint32 {
			return nil, fmt.Errorf("%w: varint exceeds uint32", ErrCorrupt)
		}
		out = append(out, uint32(v))
	}
	return out, nil
}

// allocChunk caps how far any decode allocates ahead of the input it has
// actually consumed, bounding memory on forged counts.
const allocChunk = 1 << 16

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

func putFloats(b *bytes.Buffer, vs []float32) {
	var scratch [4]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint32(scratch[:], math.Float32bits(v))
		b.Write(scratch[:])
	}
}

// getFloatsInto decodes len(dst) fixed-width floats into dst.
func getFloatsInto(r io.Reader, dst []float32) error {
	buf := make([]byte, 4*1024)
	for off := 0; off < len(dst); {
		chunk := len(dst) - off
		if chunk > 1024 {
			chunk = 1024
		}
		if _, err := io.ReadFull(r, buf[:chunk*4]); err != nil {
			return asTruncated(err)
		}
		for i := 0; i < chunk; i++ {
			dst[off+i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[i*4:]))
		}
		off += chunk
	}
	return nil
}
