package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// This file is the out-of-core side of the store: a Dataset is a
// manifest plus its shard snapshot files, accessed through io.ReaderAt
// instead of streaming loads. Opening a shard validates only its footer
// and metadata sections; column bytes are read lazily, per shard and per
// column, with exact byte ranges taken from the footer offset index. A
// query touching two of the eight columns reads only those columns'
// bytes, and shards pruned at the manifest level are never opened.

// OpenShard opens one shard file by its manifest name, returning a
// random-access reader and the file size. Readers that also implement
// io.Closer are closed by Dataset.Close.
type OpenShard func(name string) (io.ReaderAt, int64, error)

// Dataset is an open sharded dataset: the manifest plus lazily opened
// shards.
type Dataset struct {
	man   *Manifest
	open  OpenShard
	retry retryPolicy

	shards []*Shard

	mu      sync.Mutex
	closers []io.Closer
}

// openShard opens a shard reader with the dataset's retry policy applied.
func (d *Dataset) openShard(name string) (io.ReaderAt, int64, error) {
	ra, size, err := d.open(name)
	if err != nil {
		return nil, 0, err
	}
	return withRetry(ra, d.retry), size, nil
}

// OpenDataset opens a dataset over a validated manifest. Shard files are
// not touched here; each opens on first use.
func OpenDataset(man *Manifest, open OpenShard) (*Dataset, error) {
	if err := man.validate(); err != nil {
		return nil, err
	}
	d := &Dataset{man: man, open: open, shards: make([]*Shard, len(man.Shards))}
	for i := range d.shards {
		d.shards[i] = &Shard{d: d, info: &man.Shards[i]}
	}
	return d, nil
}

// OpenDatasetPath reads the manifest at path and opens its dataset, with
// shard files resolved relative to the manifest's directory.
func OpenDatasetPath(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	man, _, err := ReadManifest(f)
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	dir := filepath.Dir(path)
	d, err := OpenDataset(man, func(name string) (io.ReaderAt, int64, error) {
		sf, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			return nil, 0, err
		}
		st, err := sf.Stat()
		if err != nil {
			sf.Close()
			return nil, 0, err
		}
		return sf, st.Size(), nil
	})
	if err != nil {
		return nil, err
	}
	d.retry = defaultRetryPolicy
	return d, nil
}

// Manifest returns the dataset's manifest.
func (d *Dataset) Manifest() *Manifest { return d.man }

// NumShards returns the shard count.
func (d *Dataset) NumShards() int { return len(d.shards) }

// Close closes every shard reader opened so far.
func (d *Dataset) Close() error {
	d.mu.Lock()
	closers := d.closers
	d.closers = nil
	d.mu.Unlock()
	var first error
	for _, c := range closers {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (d *Dataset) track(ra io.ReaderAt) {
	if c, ok := ra.(io.Closer); ok {
		d.mu.Lock()
		d.closers = append(d.closers, c)
		d.mu.Unlock()
	}
}

// Shard opens shard i if needed and returns it. The open validates the
// footer, metadata, segment table and zone maps — all via
// exact reads — and cross-checks them against the manifest entry; no
// column bytes are read.
func (d *Dataset) Shard(i int) (*Shard, error) {
	sh := d.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.st == nil {
		if err := sh.openLocked(); err != nil {
			return nil, fmt.Errorf("shard %s: %w", sh.info.Name, err)
		}
	}
	return sh, nil
}

// Shard is one lazily opened dataset shard: a partial Store whose
// columns load on demand through the shard's footer index.
type Shard struct {
	d    *Dataset
	info *ShardInfo

	mu       sync.Mutex
	ra       io.ReaderAt
	size     int64
	foot     *footerIndex
	blockSeg []int // footer block index -> segment index
	st       *Store
	loaded   colMask
	scratch  *[]byte // from readBufs while sh.mu is held, else nil
}

// readBufs recycles shard read buffers across sections, columns, shards
// and datasets. Every decoder copies what it keeps out of the bytes it is
// handed, so nothing decoded aliases a buffer once it is back in the pool.
var readBufs = sync.Pool{New: func() any { return new([]byte) }}

// buf returns the shard's read buffer sized to n bytes: the first read of
// an open or an EnsureColumns draws it from readBufs, every later read
// reuses it, and releaseBuf returns it. Only a buffer shorter than n is
// replaced, by a fresh one.
func (sh *Shard) buf(n int) []byte {
	if sh.scratch == nil {
		sh.scratch = readBufs.Get().(*[]byte)
	}
	if cap(*sh.scratch) < n {
		*sh.scratch = make([]byte, n)
	}
	return (*sh.scratch)[:n]
}

// releaseBuf hands the shard's read buffer back to readBufs.
func (sh *Shard) releaseBuf() {
	if sh.scratch != nil {
		readBufs.Put(sh.scratch)
		sh.scratch = nil
	}
}

// readSecAt reads and verifies one framed section at an absolute offset.
func (sh *Shard) readSecAt(fs footerSec, name string) ([]byte, error) {
	if fs.off < 8 || fs.len < 0 || fs.off+9+fs.len > sh.size {
		return nil, sectionErr(name, fmt.Errorf("%w: extent [%d,+%d) outside file", ErrCorrupt, fs.off, fs.len))
	}
	buf := sh.buf(int(9 + fs.len))
	if _, err := sh.ra.ReadAt(buf, fs.off); err != nil {
		return nil, sectionErr(name, asTruncated(err))
	}
	if buf[0] != fs.kind {
		return nil, sectionErr(name, fmt.Errorf("%w: found section kind %#x, footer says %#x", ErrCorrupt, buf[0], fs.kind))
	}
	if got := binary.LittleEndian.Uint32(buf[1:5]); int64(got) != fs.len {
		return nil, sectionErr(name, fmt.Errorf("%w: section length %d, footer says %d", ErrCorrupt, got, fs.len))
	}
	payload := buf[9:]
	if crc := crc32.ChecksumIEEE(payload); crc != binary.LittleEndian.Uint32(buf[5:9]) {
		return nil, sectionErr(name, ErrChecksum)
	}
	return payload, nil
}

// openLocked opens the shard file and validates footer + metadata.
func (sh *Shard) openLocked() error {
	defer sh.releaseBuf()
	ra, size, err := sh.d.openShard(sh.info.Name)
	if err != nil {
		return err
	}
	sh.d.track(ra)
	sh.ra, sh.size = ra, size

	if size < 8+9+footerTrailerLen {
		return fmt.Errorf("%w: %d-byte file cannot hold a footer", ErrTruncated, size)
	}
	var tr [footerTrailerLen]byte
	if _, err := ra.ReadAt(tr[:], size-footerTrailerLen); err != nil {
		return asTruncated(err)
	}
	if magic := binary.LittleEndian.Uint32(tr[12:16]); magic != footerMagic {
		return fmt.Errorf("%w: no footer trailer", ErrFormatNoFooter)
	}
	footOff := int64(binary.LittleEndian.Uint64(tr[0:8]))
	footLen := int64(binary.LittleEndian.Uint32(tr[8:12]))
	if footOff < 8 || footOff+9+footLen+footerTrailerLen != size {
		return sectionErr("footer trailer", fmt.Errorf("%w: footer extent [%d,+%d) does not end the %d-byte file", ErrCorrupt, footOff, footLen, size))
	}
	payload, err := sh.readSecAt(footerSec{kind: secFooter, off: footOff, len: footLen}, "footer index")
	if err != nil {
		return err
	}
	foot, err := decodeFooter(payload)
	if err != nil {
		return sectionErr("footer index", err)
	}

	var hdr [8]byte
	if _, err := ra.ReadAt(hdr[:], 0); err != nil {
		return asTruncated(err)
	}
	if magic := binary.LittleEndian.Uint32(hdr[0:4]); magic != snapshotMagic {
		return fmt.Errorf("%w: %#x", ErrBadMagic, magic)
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != snapshotVersion {
		return fmt.Errorf("%w: shard snapshot version %d", ErrBadVersion, v)
	}

	metaSec, ok := foot.sec(secMeta)
	if !ok {
		return sectionErr("footer index", fmt.Errorf("%w: no meta section indexed", ErrCorrupt))
	}
	if payload, err = sh.readSecAt(metaSec, "meta"); err != nil {
		return err
	}
	m, err := decodeMeta(payload)
	if err != nil {
		return err
	}
	n, nb := m.rows, m.batches
	if len(foot.blocks) != m.blocks {
		return sectionErr("footer index", fmt.Errorf("%w: %d blocks indexed, meta claims %d", ErrCorrupt, len(foot.blocks), m.blocks))
	}

	// Cross-check the shard against its manifest entry before trusting
	// either: row count, batch table size, segment count, batch interval.
	if n != sh.info.Rows {
		return fmt.Errorf("%w: shard holds %d rows, manifest claims %d", ErrCorrupt, n, sh.info.Rows)
	}
	if nb != sh.d.man.NumBatches {
		return fmt.Errorf("%w: shard has %d batches, manifest has %d", ErrCorrupt, nb, sh.d.man.NumBatches)
	}
	if m.segs != sh.info.Segments {
		return fmt.Errorf("%w: shard holds %d segments, manifest claims %d", ErrCorrupt, m.segs, sh.info.Segments)
	}

	st, err := decodeLayout(m, func(kind byte, name string) ([]byte, error) {
		fs, ok := foot.sec(kind)
		if !ok {
			return nil, sectionErr("footer index", fmt.Errorf("%w: no %s indexed", ErrCorrupt, name))
		}
		return sh.readSecAt(fs, name)
	})
	if err != nil {
		return err
	}
	segs := st.segs
	if len(segs) > 0 {
		if lo, hi := segs[0].BatchLo, segs[len(segs)-1].BatchHi; lo != sh.info.BatchLo || hi != sh.info.BatchHi {
			return fmt.Errorf("%w: shard covers batches [%d,%d), manifest claims [%d,%d)", ErrCorrupt, lo, hi, sh.info.BatchLo, sh.info.BatchHi)
		}
	}
	if m.flags&metaFlagZoneMaps == 0 {
		return sectionErr("footer index", fmt.Errorf("%w: no zone maps indexed", ErrCorrupt))
	}

	// Block directory sanity: one block per non-empty segment, extents
	// inside the file before the footer.
	st.encs = make([]SegmentEnc, len(segs))
	blockSeg := st.nonEmpty()
	if len(blockSeg) != len(foot.blocks) {
		return sectionErr("footer index", fmt.Errorf("%w: %d blocks for %d non-empty segments", ErrCorrupt, len(foot.blocks), len(blockSeg)))
	}
	for i := range foot.blocks {
		fb := &foot.blocks[i]
		if fb.payloadOff < 8 || fb.end() > footOff {
			return sectionErr("footer index", fmt.Errorf("%w: block %d extent [%d,%d) outside file body", ErrCorrupt, i, fb.payloadOff, fb.end()))
		}
	}

	st.rows, st.partial = n, true
	for i := range st.encs {
		st.encs[i].Rows = segs[i].Rows()
	}
	sh.foot, sh.blockSeg, sh.st = foot, blockSeg, st
	return nil
}

// ErrFormatNoFooter reports a shard file that does not end with the
// footer trailer every snapshot carries: a file of the retired layout, or
// one cut short.
var ErrFormatNoFooter = errors.New("snapshot has no footer index")

// EnsureColumns reads and decodes the selected columns' bytes — and
// nothing else — for every segment of the shard: ColSetDuration reads the
// duration column alone, ColSetEnd it and Start. Loaded columns stay
// resident; repeated calls are no-ops. Every read of one call lands in one
// pooled buffer (see readBufs), and the decoders copy out of it, so peak
// memory is one column of one segment plus the decoded encodings, and a
// read does not pay to zero the bytes it overwrites.
func (sh *Shard) EnsureColumns(cols ColumnSet) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	defer sh.releaseBuf()
	if sh.st == nil {
		if err := sh.openLocked(); err != nil {
			return fmt.Errorf("shard %s: %w", sh.info.Name, err)
		}
	}
	missing := cols &^ sh.loaded
	if missing == 0 {
		return nil
	}
	for bi, segIdx := range sh.blockSeg {
		fb := &sh.foot.blocks[bi]
		rows := sh.st.segs[segIdx].Rows()
		e := &sh.st.encs[segIdx]
		for c := range colTable {
			if missing&colTable[c].mask == 0 {
				continue
			}
			if err := sh.readColumn(fb, c, rows, e); err != nil {
				return fmt.Errorf("shard %s: segment %d: column %s: %w", sh.info.Name, segIdx, colTable[c].name, err)
			}
		}
	}
	sh.loaded |= cols
	// Publish to the partial store so its materialization guard accepts
	// the loaded columns, with the granule directories they narrow.
	sh.st.deriveDirectories(sh.loaded)
	fs := sh.st.fillRef()
	fs.mu.Lock()
	sh.st.loadedCols |= cols
	fs.mu.Unlock()
	return nil
}

// readColumn reads, checksums and decodes disk column c of one block.
func (sh *Shard) readColumn(fb *footerBlock, c, rows int, e *SegmentEnc) error {
	off, length := fb.colOff(c), fb.colLen[c]
	buf := sh.buf(int(length))
	if _, err := sh.ra.ReadAt(buf, off); err != nil {
		return asTruncated(err)
	}
	if crc := crc32.ChecksumIEEE(buf); crc != fb.colCRC[c] {
		return ErrChecksum
	}
	sr := &sliceReader{buf: buf}
	if err := colTable[c].read(sr, rows, e); err != nil {
		return err
	}
	if sr.remaining() != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, sr.remaining())
	}
	return nil
}

// Store returns the shard's partial store. Only columns loaded through
// EnsureColumns may be scanned or materialized; the store panics on any
// other column access.
func (sh *Shard) Store() *Store { return sh.st }

// --- full-dataset loading --------------------------------------------

// ShardLoadReport describes one shard of a dataset load.
type ShardLoadReport struct {
	Name    string
	Rows    int
	Damaged []string // per-shard damage, empty when the shard loaded clean
}

// DatasetReport summarizes a Dataset.LoadStore.
type DatasetReport struct {
	Bytes      int64
	Rows       int
	Provenance *Provenance // first shard's provenance, when present
	Shards     []ShardLoadReport
}

// LoadStore streams every shard through ReadSnapshot and assembles one
// resident store — the bridge from a sharded dataset to everything that
// wants a plain Store. In strict mode the first failing shard aborts the
// load with an error naming it; in repair mode damage stays isolated to
// the shard it hit — other shards recover fully, and a shard beyond
// repair is skipped with its rows absent and its batches left empty.
func (d *Dataset) LoadStore(opts LoadOptions) (*Store, *DatasetReport, error) {
	rep := &DatasetReport{}
	repair := opts.Mode == LoadRepair
	var parts []part
	for i := range d.man.Shards {
		si := &d.man.Shards[i]
		ra, size, err := d.openShard(si.Name)
		if err != nil {
			if !repair {
				return nil, nil, fmt.Errorf("shard %s: %w", si.Name, err)
			}
			rep.Shards = append(rep.Shards, ShardLoadReport{Name: si.Name, Damaged: []string{fmt.Sprintf("unrecoverable: %v", err)}})
			continue
		}
		var st Store
		lrep, err := st.ReadSnapshot(io.NewSectionReader(ra, 0, size), opts)
		if c, ok := ra.(io.Closer); ok {
			c.Close()
		}
		rep.Bytes += lrep.Bytes
		if err == nil && st.Len() != si.Rows {
			err = fmt.Errorf("%w: shard holds %d rows, manifest claims %d", ErrCorrupt, st.Len(), si.Rows)
		}
		if err == nil && st.NumBatches() != d.man.NumBatches {
			err = fmt.Errorf("%w: shard has %d batches, manifest has %d", ErrCorrupt, st.NumBatches(), d.man.NumBatches)
		}
		if err != nil {
			if !repair {
				return nil, nil, fmt.Errorf("shard %s: %w", si.Name, err)
			}
			rep.Shards = append(rep.Shards, ShardLoadReport{Name: si.Name, Damaged: append(lrep.Damaged, fmt.Sprintf("unrecoverable: %v", err))})
			continue
		}
		if rep.Provenance == nil {
			rep.Provenance = lrep.Provenance
		}
		rep.Shards = append(rep.Shards, ShardLoadReport{Name: si.Name, Rows: st.Len(), Damaged: lrep.Damaged})
		parts = append(parts, st.part())
	}
	merged := concat(d.man.NumBatches, parts)
	rep.Rows = merged.Len()
	return merged, rep, nil
}

// --- dataset writing -------------------------------------------------

// WriteDataset writes the store as a sharded dataset: nshards (at most
// one per segment) encoded shard snapshots named "<stem>.shardNN.crow",
// created through the create callback, plus the manifest on w. Segments
// partition into contiguous groups balanced by row count, so shards
// split by batch range exactly like the store's segments do. The
// returned manifest is the one written.
func (s *Store) WriteDataset(w io.Writer, nshards int, stem string, create func(name string) (io.WriteCloser, error), opts WriteOptions) (*Manifest, error) {
	cat, err := s.sealedLayout()
	if err != nil {
		return nil, err
	}
	segs, zones := cat.segs, cat.zones
	if len(segs) == 0 {
		return nil, errors.New("store: cannot shard an empty store")
	}
	cuts := segmentCuts(segs, max(1, min(nshards, len(segs))))
	man := &Manifest{NumBatches: s.NumBatches()}
	for k := 0; k+1 < len(cuts); k++ {
		gLo, gHi := cuts[k], cuts[k+1]
		name := fmt.Sprintf("%s.shard%02d.crow", stem, k)
		// The shard as a store of its own (see slice): rows rebased to zero,
		// batch intervals kept global, zones and encodings shared. Raw
		// columns are not carried — the snapshot writer never touches them.
		view := slice(&columns{}, s.numBatches, &cat, gLo, gHi, segs[gHi-1].RowHi)
		out, err := create(name)
		if err != nil {
			return nil, fmt.Errorf("shard %s: %w", name, err)
		}
		nbytes, werr := view.WriteSnapshot(out, opts)
		cerr := out.Close()
		if werr == nil {
			werr = cerr
		}
		if werr != nil {
			return nil, fmt.Errorf("shard %s: %w", name, werr)
		}
		man.Shards = append(man.Shards, ShardInfo{
			Name:     name,
			Rows:     view.rows,
			BatchLo:  segs[gLo].BatchLo,
			BatchHi:  segs[gHi-1].BatchHi,
			Segments: gHi - gLo,
			FileSize: nbytes,
			Zone:     MergeZoneMaps(zones[gLo:gHi]),
		})
	}
	if _, err := writeManifest(w, man); err != nil {
		return nil, err
	}
	return man, nil
}

// segmentCuts partitions segments into nsh contiguous groups of roughly
// equal row counts; returns nsh+1 ascending indexes with cuts[0]=0 and
// cuts[nsh]=len(segs).
func segmentCuts(segs []SegmentInfo, nsh int) []int {
	total := 0
	for _, si := range segs {
		total += si.Rows()
	}
	cuts := make([]int, 1, nsh+1)
	acc := 0
	for i, si := range segs {
		if len(cuts) == nsh {
			break
		}
		acc += si.Rows()
		if acc*nsh >= total*len(cuts) && i+1 < len(segs) {
			cuts = append(cuts, i+1)
		}
	}
	return append(cuts, len(segs))
}

// --- file-kind sniffing ----------------------------------------------

// FileKind identifies what a .crow file holds, from its magic bytes.
type FileKind int

const (
	KindUnknown FileKind = iota
	KindSnapshot
	KindManifest
)

// detectKind classifies the first four bytes of a file.
func detectKind(magic [4]byte) FileKind {
	switch binary.LittleEndian.Uint32(magic[:]) {
	case snapshotMagic:
		return KindSnapshot
	case manifestMagic:
		return KindManifest
	}
	return KindUnknown
}

// DetectPath classifies the file at path by its magic bytes.
func DetectPath(path string) (FileKind, error) {
	f, err := os.Open(path)
	if err != nil {
		return KindUnknown, err
	}
	defer f.Close()
	var magic [4]byte
	if _, err := io.ReadFull(f, magic[:]); err != nil {
		return KindUnknown, nil // too short to be either: unknown, not an I/O failure
	}
	return detectKind(magic), nil
}

// LoadPath loads the instance log at path — a snapshot file or a
// sharded-dataset manifest, told apart by magic bytes — into one store.
// Both kinds answer with a LoadReport; a dataset folds its per-shard
// damage into the report's Damaged list, prefixed by shard name. shards
// is the dataset's shard count, 0 for a single-file snapshot.
func LoadPath(path string, opts LoadOptions) (st *Store, rep *LoadReport, shards int, err error) {
	kind, err := DetectPath(path)
	if err != nil {
		return nil, nil, 0, err
	}
	switch kind {
	case KindSnapshot:
		f, err := os.Open(path)
		if err != nil {
			return nil, nil, 0, err
		}
		defer f.Close()
		st = new(Store)
		if rep, err = st.ReadSnapshot(f, opts); err != nil {
			return nil, nil, 0, err
		}
		return st, rep, 0, nil
	case KindManifest:
		d, err := OpenDatasetPath(path)
		if err != nil {
			return nil, nil, 0, err
		}
		defer d.Close()
		st, drep, err := d.LoadStore(opts)
		if err != nil {
			return nil, nil, 0, err
		}
		rep = &LoadReport{Version: 3, Bytes: drep.Bytes, Rows: drep.Rows, Provenance: drep.Provenance}
		for _, sh := range drep.Shards {
			for _, dmg := range sh.Damaged {
				rep.Damaged = append(rep.Damaged, fmt.Sprintf("shard %s: %s", sh.Name, dmg))
			}
		}
		return st, rep, d.NumShards(), nil
	}
	return nil, nil, 0, fmt.Errorf("%s: not a crowdscope snapshot or manifest: %w", path, ErrBadMagic)
}
