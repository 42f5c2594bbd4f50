package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strings"
)

// A manifest describes a sharded dataset: an ordered list of shard
// snapshot files partitioned by batch range, each carrying enough
// metadata — row count, batch interval, merged zone map, file size —
// that a query can decide whether to open the shard at all without
// touching its bytes. The layout follows the partition-plus-metadata
// design of multi-petabyte scientific stores: the manifest is tiny, the
// shards are plain v3 encoded snapshots (independently loadable), and
// all pruning state lives at the manifest level.
//
// On-disk layout, reusing the v3 section framing (kind, u32 LE payload
// length, u32 LE CRC32, payload):
//
//	8-byte header: u32 LE manifestMagic, u32 LE manifestVersion
//	secManifestMeta: uvarints { numBatches, shard count, total rows, flags }
//	secManifestShards, per shard:
//	    uvarint name length, name bytes (relative file name, no separators)
//	    uvarints { rows, batchLo, batchHi, segments, fileSize }
//	    the shard's merged zone map (encodeZone)
const (
	manifestMagic   = 0x4D575243 // "CRWM" little-endian on disk
	manifestVersion = 1

	secManifestMeta   byte = 0x11
	secManifestShards byte = 0x12

	// maxShardName bounds a shard file name; maxManifestShards bounds the
	// claimed shard count before the per-shard remaining-input checks.
	maxShardName      = 256
	maxManifestShards = 1 << 16
)

// ShardInfo is one manifest entry: a shard snapshot file plus the
// metadata manifest-level pruning runs on.
type ShardInfo struct {
	// Name is the shard file name, relative to the manifest's directory.
	Name string
	// Rows is the shard's row count.
	Rows int
	// BatchLo and BatchHi bound the shard's batch IDs: [BatchLo, BatchHi).
	// Shards ascend by batch interval without overlap.
	BatchLo, BatchHi uint32
	// Segments is the shard snapshot's segment count.
	Segments int
	// FileSize is the shard file's size in bytes.
	FileSize int64
	// Zone summarizes every row of the shard (the merge of its segments'
	// zone maps); a query whose predicates cannot intersect it skips the
	// shard without opening the file.
	Zone ZoneMap
}

// Manifest lists the shards of a dataset in batch order.
type Manifest struct {
	// NumBatches is the global batch-range table size shared by every
	// shard.
	NumBatches int
	Shards     []ShardInfo
}

// TotalRows returns the dataset's row count across all shards.
func (m *Manifest) TotalRows() int {
	total := 0
	for i := range m.Shards {
		total += m.Shards[i].Rows
	}
	return total
}

// TotalBytes returns the summed size of all shard files.
func (m *Manifest) TotalBytes() int64 {
	var total int64
	for i := range m.Shards {
		total += m.Shards[i].FileSize
	}
	return total
}

// validShardName reports whether a shard name is usable as a relative
// file name: non-empty, bounded, and free of path separators (shard
// files always live next to their manifest).
func validShardName(name string) bool {
	if name == "" || len(name) > maxShardName || name == "." || name == ".." {
		return false
	}
	return !strings.ContainsAny(name, "/\\\x00")
}

// validate checks the structural invariants shared by the writer and
// reader: valid names, non-negative counts, ascending non-overlapping
// batch intervals inside the batch table, and zone row counts matching
// the shards they summarize.
func (m *Manifest) validate() error {
	if m.NumBatches < 0 || m.NumBatches > math.MaxInt32 {
		return fmt.Errorf("%w: manifest batch count %d", ErrCorrupt, m.NumBatches)
	}
	batchOff := uint32(0)
	for i := range m.Shards {
		si := &m.Shards[i]
		if !validShardName(si.Name) {
			return fmt.Errorf("%w: shard %d name %q invalid", ErrCorrupt, i, si.Name)
		}
		if si.Rows < 0 || si.Segments < 0 || si.FileSize < 0 {
			return fmt.Errorf("%w: shard %q counts negative", ErrCorrupt, si.Name)
		}
		if si.Rows > 0 && si.Segments == 0 {
			return fmt.Errorf("%w: shard %q has %d rows but no segments", ErrCorrupt, si.Name, si.Rows)
		}
		if si.BatchLo < batchOff || si.BatchHi < si.BatchLo || int(si.BatchHi) > m.NumBatches {
			return fmt.Errorf("%w: shard %q batch interval [%d,%d) invalid at offset %d", ErrCorrupt, si.Name, si.BatchLo, si.BatchHi, batchOff)
		}
		if si.Zone.Rows != si.Rows {
			return fmt.Errorf("%w: shard %q zone covers %d rows, shard has %d", ErrCorrupt, si.Name, si.Zone.Rows, si.Rows)
		}
		batchOff = si.BatchHi
	}
	return nil
}

// writeManifest serializes the manifest, returning the bytes written.
func writeManifest(w io.Writer, m *Manifest) (int64, error) {
	if err := m.validate(); err != nil {
		return 0, err
	}
	bw := bufio.NewWriter(w)
	cw := &countingWriter{w: bw}

	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], manifestMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], manifestVersion)
	cw.Write(hdr[:])

	var payload bytes.Buffer
	putUvarint(&payload, uint64(m.NumBatches))
	putUvarint(&payload, uint64(len(m.Shards)))
	putUvarint(&payload, uint64(m.TotalRows()))
	putUvarint(&payload, 0) // flags, reserved
	writeSection(cw, secManifestMeta, payload.Bytes())

	payload.Reset()
	for i := range m.Shards {
		si := &m.Shards[i]
		putUvarint(&payload, uint64(len(si.Name)))
		payload.WriteString(si.Name)
		putUvarint(&payload, uint64(si.Rows))
		putUvarint(&payload, uint64(si.BatchLo))
		putUvarint(&payload, uint64(si.BatchHi))
		putUvarint(&payload, uint64(si.Segments))
		putUvarint(&payload, uint64(si.FileSize))
		encodeZone(&payload, &si.Zone)
	}
	writeSection(cw, secManifestShards, payload.Bytes())

	if err := bw.Flush(); err != nil && cw.err == nil {
		return cw.n, err
	}
	return cw.n, cw.err
}

// ReadManifest parses and validates a manifest, returning it with the
// bytes consumed. Every claimed count is bounded by input actually
// present before it allocates.
func ReadManifest(r io.Reader) (*Manifest, int64, error) {
	cr := &countingReader{r: bufio.NewReader(r)}
	var scratch []byte
	hdr, err := readN(cr, 8, &scratch)
	if err != nil {
		return nil, cr.n, asTruncated(err)
	}
	if magic := binary.LittleEndian.Uint32(hdr[0:4]); magic != manifestMagic {
		return nil, cr.n, fmt.Errorf("%w: %#x is not a manifest", ErrBadMagic, magic)
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != manifestVersion {
		return nil, cr.n, fmt.Errorf("%w: manifest version %d", ErrBadVersion, v)
	}

	payload, err := readSection(cr, secManifestMeta, "manifest meta", &scratch)
	if err != nil {
		return nil, cr.n, err
	}
	sr := &sliceReader{buf: payload}
	var counts [4]uint64 // numBatches, shards, total rows, flags
	for i := range counts {
		if counts[i], err = getUvarint(sr); err != nil {
			return nil, cr.n, sectionErr("manifest meta", asTruncated(err))
		}
	}
	nb, nshards, totalRows := counts[0], counts[1], counts[2]
	if nb > math.MaxInt32 || nshards > maxManifestShards || totalRows > math.MaxInt32 {
		return nil, cr.n, sectionErr("manifest meta", fmt.Errorf("%w: counts overflow", ErrCorrupt))
	}
	if sr.remaining() != 0 {
		return nil, cr.n, sectionErr("manifest meta", fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, sr.remaining()))
	}

	payload, err = readSection(cr, secManifestShards, "manifest shards", &scratch)
	if err != nil {
		return nil, cr.n, err
	}
	sr = &sliceReader{buf: payload}
	// Each shard entry needs at least a name byte, five count uvarints,
	// and a minimal zone map (~30 bytes); two bytes per claimed shard is a
	// cheap, safe pre-allocation bound.
	if int(nshards)*2 > len(payload) {
		return nil, cr.n, sectionErr("manifest shards", fmt.Errorf("%w: %d shards cannot fit in %d bytes", ErrCorrupt, nshards, len(payload)))
	}
	man := &Manifest{NumBatches: int(nb), Shards: make([]ShardInfo, nshards)}
	for i := range man.Shards {
		si := &man.Shards[i]
		nameLen, err := getUvarint(sr)
		if err != nil {
			return nil, cr.n, sectionErr("manifest shards", asTruncated(err))
		}
		if nameLen > maxShardName {
			return nil, cr.n, sectionErr("manifest shards", fmt.Errorf("%w: shard %d name of %d bytes", ErrCorrupt, i, nameLen))
		}
		name, err := sr.take(int(nameLen))
		if err != nil {
			return nil, cr.n, sectionErr("manifest shards", err)
		}
		si.Name = string(name)
		var vals [5]uint64 // rows, batchLo, batchHi, segments, fileSize
		for j := range vals {
			if vals[j], err = getUvarint(sr); err != nil {
				return nil, cr.n, sectionErr("manifest shards", asTruncated(err))
			}
		}
		if vals[0] > math.MaxInt32 || vals[1] > math.MaxUint32 || vals[2] > math.MaxUint32 ||
			vals[3] > math.MaxInt32 || vals[4] > math.MaxInt64/2 {
			return nil, cr.n, sectionErr("manifest shards", fmt.Errorf("%w: shard %d counts overflow", ErrCorrupt, i))
		}
		si.Rows = int(vals[0])
		si.BatchLo, si.BatchHi = uint32(vals[1]), uint32(vals[2])
		si.Segments = int(vals[3])
		si.FileSize = int64(vals[4])
		zone, err := decodeZone(sr, si.Rows, i)
		if err != nil {
			return nil, cr.n, sectionErr("manifest shards", err)
		}
		si.Zone = zone
	}
	if sr.remaining() != 0 {
		return nil, cr.n, sectionErr("manifest shards", fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, sr.remaining()))
	}
	if err := man.validate(); err != nil {
		return nil, cr.n, err
	}
	if man.TotalRows() != int(totalRows) {
		return nil, cr.n, fmt.Errorf("%w: manifest claims %d rows, shards hold %d", ErrCorrupt, totalRows, man.TotalRows())
	}
	return man, cr.n, nil
}
