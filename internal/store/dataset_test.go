package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"crowdscope/internal/model"
)

// memFS is an in-memory shard filesystem for dataset tests: WriteDataset
// creates files into it, OpenDataset reads them back, and the counting
// reader makes I/O selectivity assertions deterministic.
type memFS struct {
	mu    sync.Mutex
	files map[string]*bytes.Buffer

	bytesRead atomic.Int64
	opened    sync.Map // name -> struct{}
}

func newMemFS() *memFS { return &memFS{files: make(map[string]*bytes.Buffer)} }

type memWriter struct{ *bytes.Buffer }

func (memWriter) Close() error { return nil }

func (fs *memFS) create(name string) (io.WriteCloser, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	buf := &bytes.Buffer{}
	fs.files[name] = buf
	return memWriter{buf}, nil
}

// countingReaderAt counts every byte handed out, attributing it to the
// owning memFS.
type countingReaderAt struct {
	r  *bytes.Reader
	fs *memFS
}

func (c *countingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	n, err := c.r.ReadAt(p, off)
	c.fs.bytesRead.Add(int64(n))
	return n, err
}

func (fs *memFS) open(name string) (io.ReaderAt, int64, error) {
	fs.mu.Lock()
	buf, ok := fs.files[name]
	fs.mu.Unlock()
	if !ok {
		return nil, 0, fmt.Errorf("%s: %w", name, os.ErrNotExist)
	}
	fs.opened.Store(name, struct{}{})
	return &countingReaderAt{r: bytes.NewReader(buf.Bytes()), fs: fs}, int64(buf.Len()), nil
}

func (fs *memFS) openedCount() int {
	n := 0
	fs.opened.Range(func(_, _ any) bool { n++; return true })
	return n
}

func (fs *memFS) totalShardBytes() int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var n int64
	for name, b := range fs.files {
		if strings.Contains(name, ".shard") {
			n += int64(b.Len())
		}
	}
	return n
}

// corrupt flips one byte of a stored file at the given offset from the
// end (negative) or start (non-negative).
func (fs *memFS) corrupt(t testing.TB, name string, off int) {
	t.Helper()
	fs.mu.Lock()
	defer fs.mu.Unlock()
	buf, ok := fs.files[name]
	if !ok {
		t.Fatalf("corrupt %s: no such file", name)
	}
	data := buf.Bytes()
	if off < 0 {
		off += len(data)
	}
	data[off] ^= 0xFF
}

// writeFixtureDataset shards the store into fs and returns the manifest.
func writeFixtureDataset(t testing.TB, s *Store, fs *memFS, nshards int) *Manifest {
	t.Helper()
	var manBuf bytes.Buffer
	man, err := s.WriteDataset(&manBuf, nshards, "fix", fs.create,
		WriteOptions{Provenance: fixtureProvenance(), Workers: 1})
	if err != nil {
		t.Fatalf("WriteDataset: %v", err)
	}
	fs.mu.Lock()
	fs.files["fix.crow"] = &manBuf
	fs.mu.Unlock()
	return man
}

// fixtureRow derives one deterministic instance, mirroring fixtureStore's
// value recipe at arbitrary scale.
func fixtureRow(batch, i uint32, start int64) model.Instance {
	return model.Instance{
		Batch:    batch,
		TaskType: batch % 5,
		Item:     i,
		Worker:   (batch*13 + i*7) % 50,
		Start:    start,
		End:      start + 40 + int64(i%7)*11,
		Trust:    float32((batch*7+i*3)%16) / 16,
		Answer:   batch*1000 + i,
	}
}

// bigFixtureStore builds a deterministic assembled store with nseg
// non-trivial segments (plus their batches), large enough that encoded
// column blocks dominate file size.
func bigFixtureStore(t testing.TB, nseg, rowsPerBatch int) *Store {
	t.Helper()
	const batchesPerSeg = 3
	segs := make([]*Segment, nseg)
	for g := 0; g < nseg; g++ {
		bld := NewBuilder(uint32(g*batchesPerSeg), uint32((g+1)*batchesPerSeg))
		for k := 0; k < batchesPerSeg; k++ {
			batch := uint32(g*batchesPerSeg + k)
			bld.BeginBatch(batch)
			for i := 0; i < rowsPerBatch; i++ {
				start := int64(1_400_000_000) + int64(batch)*86_400 + int64(i)*13
				bld.Append(fixtureRow(batch, uint32(i), start))
			}
		}
		segs[g] = bld.Seal()
	}
	s, err := Assemble(nseg*batchesPerSeg, segs)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	return s
}

func TestDatasetRoundTrip(t *testing.T) {
	for _, nshards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", nshards), func(t *testing.T) {
			want := bigFixtureStore(t, 4, 500)
			fs := newMemFS()
			man := writeFixtureDataset(t, want, fs, nshards)
			if len(man.Shards) != min(nshards, 4) {
				t.Fatalf("got %d shards, want %d", len(man.Shards), min(nshards, 4))
			}
			if man.TotalRows() != want.Len() {
				t.Fatalf("manifest rows %d, store %d", man.TotalRows(), want.Len())
			}

			d, err := OpenDataset(man, fs.open)
			if err != nil {
				t.Fatalf("OpenDataset: %v", err)
			}
			got, rep, err := d.LoadStore(LoadOptions{})
			if err != nil {
				t.Fatalf("LoadStore: %v", err)
			}
			if rep.Rows != want.Len() || rep.Provenance == nil || rep.Provenance.Seed != fixtureProvenance().Seed {
				t.Fatalf("report rows=%d provenance=%+v", rep.Rows, rep.Provenance)
			}
			compareStores(t, want, got, true)
			if err := got.Validate(); err != nil {
				t.Fatalf("merged store invalid: %v", err)
			}
		})
	}
}

// TestDatasetRoundTripEmptySegment covers the fixtureStore shape: an
// empty sealed segment and empty batches survive sharding.
func TestDatasetRoundTripEmptySegment(t *testing.T) {
	want := fixtureStore(t)
	fs := newMemFS()
	man := writeFixtureDataset(t, want, fs, 2)
	d, err := OpenDataset(man, fs.open)
	if err != nil {
		t.Fatalf("OpenDataset: %v", err)
	}
	got, _, err := d.LoadStore(LoadOptions{})
	if err != nil {
		t.Fatalf("LoadStore: %v", err)
	}
	compareStores(t, want, got, true)
}

// TestDatasetLazyShardColumns drives the selective path: EnsureColumns
// loads exactly the requested columns, the partial store serves them,
// and unrequested columns stay unread and panic on access.
func TestDatasetLazyShardColumns(t *testing.T) {
	want := bigFixtureStore(t, 4, 500)
	fs := newMemFS()
	man := writeFixtureDataset(t, want, fs, 4)
	d, err := OpenDataset(man, fs.open)
	if err != nil {
		t.Fatalf("OpenDataset: %v", err)
	}

	sh, err := d.Shard(0)
	if err != nil {
		t.Fatalf("Shard(0): %v", err)
	}
	if err := sh.EnsureColumns(ColSetWorker); err != nil {
		t.Fatalf("EnsureColumns(worker): %v", err)
	}
	st := sh.Store()
	workers := st.Workers()
	if len(workers) != man.Shards[0].Rows {
		t.Fatalf("worker column has %d rows, shard holds %d", len(workers), man.Shards[0].Rows)
	}
	for r := 0; r < st.Len(); r++ {
		if workers[r] != want.Workers()[r] {
			t.Fatalf("worker row %d: %d, want %d", r, workers[r], want.Workers()[r])
		}
	}

	// An unloaded column must refuse to materialize rather than return
	// zeros.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Trusts() on a partial shard did not panic")
			}
		}()
		st.Trusts()
	}()

	// The duration-only selector loads the end-offset column and neither
	// time column: both still refuse to materialize, and neither counts as
	// resident.
	mustPanic := func(what string, read func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s on a shard holding only the end offsets did not panic", what)
			}
		}()
		read()
	}
	before := fs.bytesRead.Load()
	if err := sh.EnsureColumns(ColSetDuration); err != nil {
		t.Fatalf("EnsureColumns(duration): %v", err)
	}
	durationBytes := fs.bytesRead.Load() - before
	for i, si := range st.Segments() {
		if e := &st.SegmentEncodings()[i].EndOff; e.N != si.Rows() {
			t.Fatalf("segment %d: end offsets cover %d of %d rows", i, e.N, si.Rows())
		}
	}
	mustPanic("Ends()", func() { st.Ends() })
	mustPanic("Starts()", func() { st.Starts() })
	if r := st.Residency(); r&(ColSetStart|ColSetEnd) != 0 {
		t.Fatalf("residency %#x reports a time column after a duration-only load", r)
	}

	// End implies Start: after EnsureColumns(End) both are readable, and
	// the end offsets already loaded are not read again.
	before = fs.bytesRead.Load()
	if err := sh.EnsureColumns(ColSetEnd); err != nil {
		t.Fatalf("EnsureColumns(end): %v", err)
	}
	startBytes := fs.bytesRead.Load() - before
	d2, err := OpenDataset(man, fs.open)
	if err != nil {
		t.Fatalf("OpenDataset: %v", err)
	}
	sh2, err := d2.Shard(0)
	if err != nil {
		t.Fatalf("Shard(0): %v", err)
	}
	before = fs.bytesRead.Load()
	if err := sh2.EnsureColumns(ColSetStart); err != nil {
		t.Fatalf("EnsureColumns(start): %v", err)
	}
	if alone := fs.bytesRead.Load() - before; durationBytes == 0 || startBytes != alone {
		t.Fatalf("read %d bytes for the end offsets, then %d for End; start alone is %d", durationBytes, startBytes, alone)
	}
	for _, r := range []int{0, 3, st.Len() - 1} {
		if st.Ends()[r] != want.Ends()[r] || st.Starts()[r] != want.Starts()[r] {
			t.Fatalf("row %d: [%d, %d], want [%d, %d]", r, st.Starts()[r], st.Ends()[r], want.Starts()[r], want.Ends()[r])
		}
	}
	if r := st.Residency(); r&(ColSetStart|ColSetEnd) != ColSetStart|ColSetEnd {
		t.Fatalf("residency %#x after reading both time columns", r)
	}
}

// TestDatasetSelectiveReadBytes pins the selective-read contract at the
// store level: reading one narrow column of every shard costs a small
// fraction of the dataset's bytes.
func TestDatasetSelectiveReadBytes(t *testing.T) {
	want := bigFixtureStore(t, 8, 2000)
	fs := newMemFS()
	man := writeFixtureDataset(t, want, fs, 8)
	d, err := OpenDataset(man, fs.open)
	if err != nil {
		t.Fatalf("OpenDataset: %v", err)
	}
	for i := 0; i < d.NumShards(); i++ {
		sh, err := d.Shard(i)
		if err != nil {
			t.Fatalf("Shard(%d): %v", i, err)
		}
		if err := sh.EnsureColumns(ColSetBatch); err != nil {
			t.Fatalf("EnsureColumns: %v", err)
		}
	}
	total := fs.totalShardBytes()
	read := fs.bytesRead.Load()
	if read >= total/4 {
		t.Fatalf("batch-only read cost %d of %d shard bytes (>= 25%%)", read, total)
	}
	if read == 0 {
		t.Fatal("no bytes read")
	}
}

// TestDatasetShardsNotOpened: shards are not touched until asked for.
func TestDatasetShardsNotOpened(t *testing.T) {
	want := bigFixtureStore(t, 4, 200)
	fs := newMemFS()
	man := writeFixtureDataset(t, want, fs, 4)
	d, err := OpenDataset(man, fs.open)
	if err != nil {
		t.Fatalf("OpenDataset: %v", err)
	}
	if n := fs.openedCount(); n != 0 {
		t.Fatalf("OpenDataset opened %d shard files", n)
	}
	if _, err := d.Shard(2); err != nil {
		t.Fatalf("Shard(2): %v", err)
	}
	if n := fs.openedCount(); n != 1 {
		t.Fatalf("one Shard call opened %d files", n)
	}
}

// TestDatasetDamageIsolation corrupts one shard of four: strict loading
// fails naming that shard alone, repair recovers every other shard
// fully, and the report pins the damage to the one shard.
func TestDatasetDamageIsolation(t *testing.T) {
	want := bigFixtureStore(t, 4, 800)
	fs := newMemFS()
	man := writeFixtureDataset(t, want, fs, 4)
	if len(man.Shards) != 4 {
		t.Fatalf("got %d shards", len(man.Shards))
	}
	victim := man.Shards[2].Name
	// Flip a byte mid-file: lands in an encoded column block.
	fs.corrupt(t, victim, int(man.Shards[2].FileSize/2))

	d, err := OpenDataset(man, fs.open)
	if err != nil {
		t.Fatalf("OpenDataset: %v", err)
	}
	_, _, err = d.LoadStore(LoadOptions{})
	if err == nil {
		t.Fatal("strict load of a damaged dataset succeeded")
	}
	if !strings.Contains(err.Error(), victim) {
		t.Fatalf("strict error does not name the damaged shard %s: %v", victim, err)
	}
	for _, si := range man.Shards {
		if si.Name != victim && strings.Contains(err.Error(), si.Name) {
			t.Fatalf("strict error names a healthy shard %s: %v", si.Name, err)
		}
	}

	got, rep, err := d.LoadStore(LoadOptions{Mode: LoadRepair})
	if err != nil {
		t.Fatalf("repair load: %v", err)
	}
	if got.Len() != want.Len() {
		t.Fatalf("repair kept %d of %d rows", got.Len(), want.Len())
	}
	damaged := 0
	for _, sr := range rep.Shards {
		if sr.Name == victim {
			if len(sr.Damaged) == 0 {
				t.Fatalf("victim shard %s reports no damage", victim)
			}
			damaged++
		} else if len(sr.Damaged) != 0 {
			t.Fatalf("healthy shard %s reports damage %v", sr.Name, sr.Damaged)
		}
	}
	if damaged != 1 {
		t.Fatalf("%d shards report damage, want 1", damaged)
	}
	// Rows outside the victim's span must match the source exactly.
	lo := man.Shards[0].Rows + man.Shards[1].Rows
	hi := lo + man.Shards[2].Rows
	for r := 0; r < want.Len(); r++ {
		if r >= lo && r < hi {
			continue
		}
		if want.Row(r) != got.Row(r) {
			t.Fatalf("healthy row %d differs after repair", r)
		}
	}
}

// TestDatasetUnrecoverableShardSkipped: a shard that cannot even be
// opened is skipped in repair mode, its rows absent, the rest intact.
func TestDatasetUnrecoverableShardSkipped(t *testing.T) {
	want := bigFixtureStore(t, 4, 300)
	fs := newMemFS()
	man := writeFixtureDataset(t, want, fs, 4)
	victim := man.Shards[1].Name
	fs.mu.Lock()
	delete(fs.files, victim)
	fs.mu.Unlock()

	d, err := OpenDataset(man, fs.open)
	if err != nil {
		t.Fatalf("OpenDataset: %v", err)
	}
	if _, _, err := d.LoadStore(LoadOptions{}); err == nil || !strings.Contains(err.Error(), victim) {
		t.Fatalf("strict load: %v", err)
	}
	got, rep, err := d.LoadStore(LoadOptions{Mode: LoadRepair})
	if err != nil {
		t.Fatalf("repair load: %v", err)
	}
	if wantRows := want.Len() - man.Shards[1].Rows; got.Len() != wantRows {
		t.Fatalf("repair kept %d rows, want %d", got.Len(), wantRows)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("merged store invalid after skip: %v", err)
	}
	found := false
	for _, sr := range rep.Shards {
		if sr.Name == victim {
			found = true
			if len(sr.Damaged) == 0 {
				t.Fatal("skipped shard reports no damage")
			}
		}
	}
	if !found {
		t.Fatal("skipped shard missing from report")
	}
}

// TestShardOpenRejectsCorruptFooter: footer damage surfaces as a named
// error from Shard, not a bad read later.
func TestShardOpenRejectsCorruptFooter(t *testing.T) {
	want := bigFixtureStore(t, 2, 100)
	fs := newMemFS()
	man := writeFixtureDataset(t, want, fs, 2)
	fs.corrupt(t, man.Shards[0].Name, -4) // trailer magic
	d, err := OpenDataset(man, fs.open)
	if err != nil {
		t.Fatalf("OpenDataset: %v", err)
	}
	if _, err := d.Shard(0); err == nil || !strings.Contains(err.Error(), man.Shards[0].Name) {
		t.Fatalf("Shard(0) on corrupt trailer: %v", err)
	}
	// The sibling shard still opens.
	if _, err := d.Shard(1); err != nil {
		t.Fatalf("Shard(1): %v", err)
	}
}

// TestDatasetManifestRowMismatch: a manifest lying about shard rows is
// caught at open, in both access paths.
func TestDatasetManifestRowMismatch(t *testing.T) {
	want := bigFixtureStore(t, 2, 100)
	fs := newMemFS()
	man := writeFixtureDataset(t, want, fs, 2)
	man.Shards[0].Rows--
	man.Shards[0].Zone.Rows--
	d, err := OpenDataset(man, fs.open)
	if err != nil {
		t.Fatalf("OpenDataset: %v", err)
	}
	if _, err := d.Shard(0); err == nil {
		t.Fatal("Shard(0) accepted a row-count mismatch")
	}
	if _, _, err := d.LoadStore(LoadOptions{}); err == nil {
		t.Fatal("LoadStore accepted a row-count mismatch")
	}
}

func TestDetectKind(t *testing.T) {
	want := bigFixtureStore(t, 2, 50)
	fs := newMemFS()
	writeFixtureDataset(t, want, fs, 2)
	kindOf := func(name string) FileKind {
		fs.mu.Lock()
		defer fs.mu.Unlock()
		var magic [4]byte
		copy(magic[:], fs.files[name].Bytes())
		return detectKind(magic)
	}
	if k := kindOf("fix.crow"); k != KindManifest {
		t.Fatalf("manifest detected as %v", k)
	}
	if k := kindOf("fix.shard00.crow"); k != KindSnapshot {
		t.Fatalf("shard detected as %v", k)
	}
	if k := detectKind([4]byte{'n', 'o', 'p', 'e'}); k != KindUnknown {
		t.Fatalf("junk detected as %v", k)
	}
}

// TestSnapshotMetaDecodedOnce: the streaming reader and a shard open reach
// the same decodeMeta, so what the meta section can get wrong fails with
// one error class on both paths: a real shard file whose encoded flag was
// cleared (section CRC recomputed) is an unsupported version, and a count
// above MaxInt32 — in a file that is nothing but a header, that meta
// section and a footer indexing it — is corrupt, before either path sizes
// anything by it.
func TestSnapshotMetaDecodedOnce(t *testing.T) {
	fs := newMemFS()
	man := writeFixtureDataset(t, bigFixtureStore(t, 2, 100), fs, 2)
	name := man.Shards[0].Name

	both := func(what string, file []byte, want error) {
		t.Helper()
		fs.mu.Lock()
		fs.files[name] = bytes.NewBuffer(file)
		fs.mu.Unlock()
		d, err := OpenDataset(man, fs.open)
		if err != nil {
			t.Fatalf("OpenDataset: %v", err)
		}
		defer d.Close()
		sh := d.shards[0]
		if err := sh.EnsureColumns(ColSetWorker); !errors.Is(err, want) {
			t.Errorf("%s: shard open: %v, want %v", what, err, want)
		}
		var st Store
		if _, err := st.ReadSnapshot(bytes.NewReader(file), LoadOptions{}); !errors.Is(err, want) {
			t.Errorf("%s: streaming read: %v, want %v", what, err, want)
		}
	}

	// Meta is the first section, at byte 8: kind, length, CRC, payload; the
	// flags are its last uvarint, one byte.
	file := append([]byte(nil), fs.files[name].Bytes()...)
	n := int(binary.LittleEndian.Uint32(file[9:13]))
	payload := file[17 : 17+n]
	if file[8] != secMeta || payload[n-1]&metaFlagEncoded == 0 {
		t.Fatalf("fixture shard does not start with an encoded-layout meta section")
	}
	payload[n-1] &^= metaFlagEncoded
	binary.LittleEndian.PutUint32(file[13:17], crc32.ChecksumIEEE(payload))
	both("encoded flag cleared", file, ErrBadVersion)

	for field := 0; field < 4; field++ {
		var meta, foot, forged bytes.Buffer
		for i := 0; i < 4; i++ {
			v := uint64(1)
			if i == field {
				v = math.MaxInt32 + 1
			}
			putUvarint(&meta, v)
		}
		putUvarint(&meta, metaFlagsRequired)
		cw := &countingWriter{w: &forged}
		var hdr [8]byte
		binary.LittleEndian.PutUint32(hdr[0:4], snapshotMagic)
		binary.LittleEndian.PutUint32(hdr[4:8], snapshotVersion)
		cw.Write(hdr[:])
		encodeFooter(&foot, &footerIndex{secs: []footerSec{{kind: secMeta, off: cw.n, len: int64(meta.Len())}}})
		writeSection(cw, secMeta, meta.Bytes())
		var tr [footerTrailerLen]byte
		binary.LittleEndian.PutUint64(tr[0:8], uint64(cw.n))
		binary.LittleEndian.PutUint32(tr[8:12], uint32(foot.Len()))
		binary.LittleEndian.PutUint32(tr[12:16], footerMagic)
		writeSection(cw, secFooter, foot.Bytes())
		cw.Write(tr[:])
		both(fmt.Sprintf("count %d above MaxInt32", field), forged.Bytes(), ErrCorrupt)
	}
}

// TestShardBatchWindow: a shard's store, its batch column loaded, answers
// NumBatches and BatchRange for every batch of the dataset as the whole
// store does, rebased to the shard's rows: its own batches' ranges, and
// (0, 0) for every other.
func TestShardBatchWindow(t *testing.T) {
	want := bigFixtureStore(t, 4, 50)
	fs := newMemFS()
	man := writeFixtureDataset(t, want, fs, 4)
	d, err := OpenDataset(man, fs.open)
	if err != nil {
		t.Fatal(err)
	}
	rowOff := 0
	for i, si := range man.Shards {
		sh, err := d.Shard(i)
		if err != nil {
			t.Fatal(err)
		}
		if err := sh.EnsureColumns(ColSetBatch); err != nil {
			t.Fatal(err)
		}
		st := sh.Store()
		if st.NumBatches() != man.NumBatches {
			t.Fatalf("shard %d: %d batches, want %d", i, st.NumBatches(), man.NumBatches)
		}
		for b := uint32(0); b < uint32(man.NumBatches)+2; b++ {
			wlo, whi := want.BatchRange(b)
			if b < si.BatchLo || b >= si.BatchHi {
				wlo, whi = 0, 0
			} else if whi > wlo {
				wlo, whi = wlo-rowOff, whi-rowOff
			}
			if lo, hi := st.BatchRange(b); lo != wlo || hi != whi {
				t.Fatalf("shard %d batch %d: [%d,%d), want [%d,%d)", i, b, lo, hi, wlo, whi)
			}
		}
		rowOff += si.Rows
	}
}
