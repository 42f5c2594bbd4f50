package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"
	"syscall"

	"crowdscope/internal/model"
	"crowdscope/internal/par"
	"crowdscope/internal/vfs"
	"crowdscope/internal/wal"
)

// LiveStore is the durable ingest front of the store: appended instance
// rows are WAL-logged (and synced, under the default policy) before they
// are acknowledged, written once into a flat append-only column arena,
// sealed into segments at a row threshold, and periodically checkpointed
// — a v3 snapshot of the sealed prefix plus the WAL position the
// snapshot covers, written atomically via temp-file rename. OpenLive
// recovers a crashed directory by loading the checkpoint and replaying
// the WAL suffix through the same apply path the live process used,
// which makes the recovered state bit-identical to an uncrashed process
// that ingested the same records.
//
// The arena is the only in-memory home of a live row. Rows are only ever
// appended, past every view's visible length, and never move: a seal
// computes a granule directory, zone map and column encodings over the
// open row span and appends one catalogue entry; compaction replaces
// adjacent entries by one recomputed over the union span; a view is a
// capture of slice headers (see liveview.go); a checkpoint writes the
// sealed prefix as the Store it already is; recovery adopts the loaded
// checkpoint's columns as the arena.
//
// Determinism is the load-bearing property. Recovery replays the record
// stream, so everything the in-memory state depends on must be a pure
// function of that stream (plus the configured thresholds): records are
// validated BEFORE they are logged, so apply can never fail; seal
// decisions happen only at record boundaries; and a batch never splits
// across segments because a seal additionally waits for the batch ID to
// advance. Reopen a directory with the thresholds it was written under.
//
// The directory layout is
//
//	dir/wal/wal-*.log    the record log (see internal/wal)
//	dir/ckpt-%08d.crow   checkpoint snapshots (ordinary v3 snapshots)
//	dir/CHECKPOINT       points at the live snapshot + its WAL position
type LiveStore struct {
	dir string
	cfg LiveConfig
	fs  vfs.FS

	mu  sync.Mutex
	log *wal.Log

	// The arena: every acknowledged row, in append order. Elements below
	// a captured length are never rewritten, so a reader holding span
	// headers needs no lock; growth may move the arrays, and older headers
	// keep the old ones alive.
	columns

	// The catalogue: one complete entry per sealed segment, covering arena
	// rows [0, rowEnd()). A seal appends; compaction installs fresh lists
	// (captures hold headers into the old ones). Rows past rowEnd() are
	// the open tail.
	catalogue
	// gen is stamped on views; fresh per catalogue change, stable while
	// only the tail grows, which is what lets the planner's cached plans
	// survive open-tail refreshes (see query.Planner).
	gen uint64

	openStart wal.LSN // LSN of the first record in the open tail
	curBatch  uint32  // highest batch ID appended
	ckptSeq   uint64
	ckptRows  int // sealed rows covered by the live checkpoint
	closed    bool
	failed    bool

	// degraded marks the read-only state disk exhaustion puts the store
	// in: appends and checkpoints are refused with ErrDegraded while
	// queries keep serving, and RecoverWrites re-arms the writers once
	// space returns. Unlike failed, nothing acknowledged is in doubt —
	// the WAL never advances its acked offset past a failed write.
	degraded       bool
	degradedReason string

	// view is the read side's state (see liveview.go). Lock order:
	// view.mu, then mu; mu is never held while taking view.mu.
	view viewState
}

// LiveConfig tunes a LiveStore. The thresholds are part of the recovery
// contract: reopen a directory with the values it was written under.
type LiveConfig struct {
	// SealRows is the open-tail row count at which the next batch
	// boundary seals it into an immutable segment. Zero means 1 << 16.
	SealRows int
	// CheckpointRows checkpoints automatically once that many sealed rows
	// are not yet covered by a checkpoint. Zero means 4 * SealRows;
	// negative disables auto-checkpointing (Checkpoint still works).
	CheckpointRows int
	// Sync is the WAL fsync policy; the zero value is SyncAlways, under
	// which an acknowledged append survives any crash.
	Sync wal.SyncPolicy
	// SegmentBytes is the WAL rotation threshold; zero means the WAL
	// default.
	SegmentBytes int64
	// FS is the filesystem everything lives on; nil means the real one.
	// The fault-injection tests swap in internal/faultfs here.
	FS vfs.FS
}

func (c *LiveConfig) fill() {
	if c.SealRows <= 0 {
		c.SealRows = 1 << 16
	}
	if c.CheckpointRows == 0 {
		c.CheckpointRows = 4 * c.SealRows
	}
	if c.FS == nil {
		c.FS = vfs.OS{}
	}
}

// ErrLiveFailed poisons a LiveStore after a write, sync or checkpoint
// failure: the on-disk tail is undefined, so further appends are refused.
// Reopen the directory to recover the durable prefix.
var ErrLiveFailed = errors.New("store: live store failed; reopen to recover")

// ErrDegraded marks the read-only degraded state a LiveStore enters when
// the disk fills up (ENOSPC on a WAL append or checkpoint): appends and
// checkpoints are refused, reads and queries keep working, and
// RecoverWrites restores write service once space returns — no reopen
// needed, because a full disk never leaves acknowledged data in doubt.
var ErrDegraded = errors.New("store: live store degraded (read-only): disk full")

// isDiskFull reports whether err is disk exhaustion — the one write
// failure that is expected to clear on its own and so degrades the store
// instead of poisoning it.
func isDiskFull(err error) bool { return errors.Is(err, syscall.ENOSPC) }

// Record payload layout (the WAL stores opaque payloads; this is the
// live store's record codec). A record is one acknowledged Append call:
//
//	byte   kind (1 = instance rows)
//	uvarint row count
//	per row: uvarint batch delta (from previous row; batches ascend),
//	         uvarint taskType, item, worker, answer,
//	         uvarint zigzag(start delta), uvarint zigzag(end - start),
//	         4-byte LE float32 trust bits
//
// Every field is input-bounded on decode; a record that fails validation
// is never written, so replay of a CRC-clean log cannot fail.
const (
	recKindRows = 1
	// MaxAppendRows bounds one Append call (and so one WAL record).
	MaxAppendRows = 1 << 20
)

// maxRecordRowBytes bounds one row's encoding: five uint32 uvarints, two
// 64-bit ones and the trust bits.
const maxRecordRowBytes = 5*binary.MaxVarintLen32 + 2*binary.MaxVarintLen64 + 4

// encodeRecord serializes rows, which must already be validated, into one
// buffer sized for the longest encoding they could take.
func encodeRecord(rows []model.Instance) []byte {
	b := make([]byte, 0, 1+binary.MaxVarintLen64+len(rows)*maxRecordRowBytes)
	b = append(b, recKindRows)
	b = binary.AppendUvarint(b, uint64(len(rows)))
	prevBatch := uint32(0)
	prevStart := int64(0)
	for _, in := range rows {
		b = binary.AppendUvarint(b, uint64(in.Batch-prevBatch))
		prevBatch = in.Batch
		b = binary.AppendUvarint(b, uint64(in.TaskType))
		b = binary.AppendUvarint(b, uint64(in.Item))
		b = binary.AppendUvarint(b, uint64(in.Worker))
		b = binary.AppendUvarint(b, uint64(in.Answer))
		b = binary.AppendUvarint(b, zigzag(in.Start-prevStart))
		prevStart = in.Start
		b = binary.AppendUvarint(b, zigzag(in.End-in.Start))
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(in.Trust))
	}
	return b
}

// decodeRecord inverts encodeRecord, validating every bound. The rows of
// a valid record have non-decreasing batch IDs by construction.
func decodeRecord(p []byte) ([]model.Instance, error) {
	sr := &sliceReader{buf: p}
	kind, err := sr.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("record kind: %w", ErrTruncated)
	}
	if kind != recKindRows {
		return nil, fmt.Errorf("record kind %d: %w", kind, ErrCorrupt)
	}
	n, err := getUvarint(sr)
	if err != nil {
		return nil, fmt.Errorf("record row count: %w", asTruncated(err))
	}
	if n == 0 || n > MaxAppendRows {
		return nil, fmt.Errorf("record row count %d: %w", n, ErrCorrupt)
	}
	// Bound the allocation by the input: every row costs ≥ 11 bytes.
	if int(n) > sr.remaining()/11+1 {
		return nil, fmt.Errorf("record row count %d exceeds payload: %w", n, ErrCorrupt)
	}
	rows := make([]model.Instance, n)
	prevBatch := uint64(0)
	prevStart := int64(0)
	var f [4]byte
	for i := range rows {
		d, err := getUvarint(sr)
		if err != nil {
			return nil, fmt.Errorf("row %d batch: %w", i, asTruncated(err))
		}
		batch := prevBatch + d
		if batch > math.MaxUint32 {
			return nil, fmt.Errorf("row %d batch %d: %w", i, batch, ErrCorrupt)
		}
		prevBatch = batch
		rows[i].Batch = uint32(batch)
		for _, dst := range []*uint32{&rows[i].TaskType, &rows[i].Item, &rows[i].Worker, &rows[i].Answer} {
			v, err := getUvarint(sr)
			if err != nil || v > math.MaxUint32 {
				return nil, fmt.Errorf("row %d column: %w", i, ErrCorrupt)
			}
			*dst = uint32(v)
		}
		sd, err := getUvarint(sr)
		if err != nil {
			return nil, fmt.Errorf("row %d start: %w", i, asTruncated(err))
		}
		rows[i].Start = prevStart + unzigzag(sd)
		prevStart = rows[i].Start
		ed, err := getUvarint(sr)
		if err != nil {
			return nil, fmt.Errorf("row %d end: %w", i, asTruncated(err))
		}
		rows[i].End = rows[i].Start + unzigzag(ed)
		if _, err := io.ReadFull(sr, f[:]); err != nil {
			return nil, fmt.Errorf("row %d trust: %w", i, ErrTruncated)
		}
		rows[i].Trust = math.Float32frombits(binary.LittleEndian.Uint32(f[:]))
	}
	if sr.remaining() != 0 {
		return nil, fmt.Errorf("%d trailing record bytes: %w", sr.remaining(), ErrCorrupt)
	}
	return rows, nil
}

// Checkpoint meta file: a single fixed-size frame naming the live
// snapshot and the WAL position it covers. Written via temp-file rename,
// so it is either the old version or the new one, never a mix; the CRC
// catches bit rot, which (unlike a torn tail) is not recoverable here —
// the meta is the root of trust for what the WAL may have discarded.
const (
	ckptMagic = 0x504B4343 // "CCKP"
	ckptLen   = 4 + 4 + 8 + 8 + 8 + 8 + 4
)

type ckptMeta struct {
	seq  uint64  // snapshot sequence: the live snapshot is ckptName(seq)
	lsn  wal.LSN // replay resumes here; everything before is in the snapshot
	rows uint64  // rows in the snapshot, cross-checked after load
}

func ckptName(seq uint64) string { return fmt.Sprintf("ckpt-%08d.crow", seq) }

func encodeCkptMeta(m ckptMeta) []byte {
	b := make([]byte, ckptLen)
	binary.LittleEndian.PutUint32(b[0:4], ckptMagic)
	binary.LittleEndian.PutUint32(b[4:8], 1) // meta format version
	binary.LittleEndian.PutUint64(b[8:16], m.seq)
	binary.LittleEndian.PutUint64(b[16:24], m.lsn.Seg)
	binary.LittleEndian.PutUint64(b[24:32], uint64(m.lsn.Off))
	binary.LittleEndian.PutUint64(b[32:40], m.rows)
	binary.LittleEndian.PutUint32(b[40:44], crc32.ChecksumIEEE(b[:40]))
	return b
}

func decodeCkptMeta(b []byte) (ckptMeta, error) {
	var m ckptMeta
	if len(b) != ckptLen {
		return m, fmt.Errorf("checkpoint meta is %d bytes, want %d: %w", len(b), ckptLen, ErrTruncated)
	}
	if binary.LittleEndian.Uint32(b[0:4]) != ckptMagic {
		return m, fmt.Errorf("checkpoint meta: %w", ErrBadMagic)
	}
	if crc32.ChecksumIEEE(b[:40]) != binary.LittleEndian.Uint32(b[40:44]) {
		return m, fmt.Errorf("checkpoint meta: %w", ErrChecksum)
	}
	if v := binary.LittleEndian.Uint32(b[4:8]); v != 1 {
		return m, fmt.Errorf("checkpoint meta version %d: %w", v, ErrBadVersion)
	}
	m.seq = binary.LittleEndian.Uint64(b[8:16])
	m.lsn = wal.LSN{Seg: binary.LittleEndian.Uint64(b[16:24]), Off: int64(binary.LittleEndian.Uint64(b[24:32]))}
	m.rows = binary.LittleEndian.Uint64(b[32:40])
	return m, nil
}

// OpenLive opens (creating if needed) the live store in dir and recovers
// it: the checkpoint snapshot is loaded strictly, the WAL is opened —
// which truncates any torn tail — and the surviving record suffix is
// replayed through the ordinary apply path. The recovered rows are
// exactly a prefix of the record stream past appends submitted, and
// include every acknowledged append (under the default sync policy).
func OpenLive(dir string, cfg LiveConfig) (*LiveStore, error) {
	cfg.fill()
	fs := cfg.FS
	if err := fs.MkdirAll(dir); err != nil {
		return nil, err
	}
	ls := &LiveStore{dir: dir, cfg: cfg, fs: fs, gen: nextGeneration()}

	// Root of trust: the CHECKPOINT meta, absent on a fresh directory.
	var ckptLSN wal.LSN
	meta, ok, err := ls.readCkptMeta()
	if err != nil {
		return nil, err
	}
	if ok {
		if err := ls.loadCheckpoint(meta); err != nil {
			return nil, err
		}
		ckptLSN = meta.lsn
		ls.ckptSeq = meta.seq
	}
	ls.ckptRows = ls.rowEnd()

	log, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{
		SegmentBytes: cfg.SegmentBytes, Sync: cfg.Sync, FS: fs,
	})
	if err != nil {
		return nil, err
	}
	ls.log = log
	err = log.Replay(ckptLSN, func(lsn wal.LSN, payload []byte) error {
		rows, err := decodeRecord(payload)
		if err != nil {
			return fmt.Errorf("wal record at %v: %w", lsn, err)
		}
		if len(ls.start) > 0 && rows[0].Batch < ls.curBatch {
			return fmt.Errorf("wal record at %v: batch %d regresses below %d: %w",
				lsn, rows[0].Batch, ls.curBatch, ErrCorrupt)
		}
		ls.applyLocked(lsn, rows)
		return nil
	})
	if err != nil {
		log.Close()
		return nil, err
	}
	// If damage tore the WAL back behind the checkpoint position, appending
	// there would hide new records behind the replay start; skip forward.
	if err := log.AdvancePast(ckptLSN); err != nil {
		log.Close()
		return nil, err
	}
	if err := ls.removeStaleFiles(); err != nil {
		log.Close()
		return nil, err
	}
	return ls, nil
}

// readCkptMeta reads and validates dir/CHECKPOINT; ok is false when the
// file does not exist (a fresh or never-checkpointed directory).
func (ls *LiveStore) readCkptMeta() (ckptMeta, bool, error) {
	f, err := ls.fs.OpenRead(filepath.Join(ls.dir, "CHECKPOINT"))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return ckptMeta{}, false, nil
		}
		return ckptMeta{}, false, err
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		return ckptMeta{}, false, err
	}
	if size > ckptLen {
		size = ckptLen + 1 // oversize fails decode with a length error
	}
	buf := make([]byte, size)
	if _, err := f.ReadAt(buf, 0); err != nil && err != io.EOF {
		return ckptMeta{}, false, err
	}
	m, err := decodeCkptMeta(buf)
	if err != nil {
		return ckptMeta{}, false, err
	}
	return m, true, nil
}

// loadCheckpoint strict-loads the snapshot meta points at and adopts it
// as the sealed prefix: its materialized columns become the arena, its
// layout, zone maps and encodings the catalogue. None of those is
// recomputed — a seal computed them from the same bytes, so the round
// trip through a snapshot is bit-identical; the granule directories,
// which no snapshot holds, are folded from the adopted columns.
func (ls *LiveStore) loadCheckpoint(meta ckptMeta) error {
	path := filepath.Join(ls.dir, ckptName(meta.seq))
	f, err := ls.fs.OpenRead(path)
	if err != nil {
		return fmt.Errorf("checkpoint snapshot %s: %w", ckptName(meta.seq), err)
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		return err
	}
	st := New(0)
	if _, err := st.ReadSnapshot(io.NewSectionReader(f, 0, size), LoadOptions{Mode: LoadStrict}); err != nil {
		return fmt.Errorf("checkpoint snapshot %s: %w", ckptName(meta.seq), err)
	}
	if st.Len() != int(meta.rows) {
		return fmt.Errorf("checkpoint snapshot %s holds %d rows, meta says %d: %w",
			ckptName(meta.seq), st.Len(), meta.rows, ErrCorrupt)
	}
	n := len(st.segs)
	if st.Len() == 0 {
		return nil
	}
	if n == 0 || len(st.zones) != n || len(st.encs) != n || int(st.segs[n-1].BatchHi) != st.NumBatches() {
		return fmt.Errorf("checkpoint snapshot %s lacks a segment layout: %w", ckptName(meta.seq), ErrCorrupt)
	}
	st.ensure(colMaskAll)
	ls.columns, ls.catalogue = st.columns, st.catalogue
	ls.grans = make([][]Granule, n)
	par.EachShard(n, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ls.grans[i] = ls.seal(ls.segs[i], sealGran).gran
		}
	})
	ls.curBatch = st.segs[n-1].BatchHi - 1
	return nil
}

// removeStaleFiles deletes temp files and snapshots other than the live
// one — leftovers of a crash mid-checkpoint.
func (ls *LiveStore) removeStaleFiles() error {
	names, err := ls.fs.ReadDir(ls.dir)
	if err != nil {
		return err
	}
	live := ckptName(ls.ckptSeq)
	for _, name := range names {
		var seq uint64
		stale := false
		if _, err := fmt.Sscanf(name, "ckpt-%08d.crow", &seq); err == nil && name == ckptName(seq) {
			stale = name != live
		}
		if filepath.Ext(name) == ".tmp" {
			stale = true
		}
		if stale {
			if err := ls.fs.Remove(filepath.Join(ls.dir, name)); err != nil {
				return err
			}
		}
	}
	return nil
}

// Append validates rows, logs them as one WAL record, and — only after
// the log accepts (and, under SyncAlways, syncs) the record — applies
// them to the arena and acknowledges. Rows must arrive in batch
// order — batch IDs non-decreasing within the call and no lower than the
// store's highest batch — and none may end before it starts; refused rows
// leave the store as it was. A nil error means the rows are durable under
// the configured sync policy; after a write failure the store is poisoned
// and must be reopened (or, on a full disk, degraded: see ErrDegraded).
func (ls *LiveStore) Append(rows []model.Instance) error {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	switch {
	case ls.closed:
		return fmt.Errorf("store: live store closed")
	case ls.failed:
		return ErrLiveFailed
	case ls.degraded:
		return fmt.Errorf("%w (%s)", ErrDegraded, ls.degradedReason)
	}
	if len(rows) == 0 {
		return nil
	}
	if len(rows) > MaxAppendRows {
		return fmt.Errorf("store: %d rows exceed the %d-row append cap", len(rows), MaxAppendRows)
	}
	for i := range rows {
		// A batch ID is an index below the store's batch count, which a
		// snapshot bounds by MaxInt32.
		if rows[i].Batch >= math.MaxInt32 {
			return fmt.Errorf("store: append row %d batch %d is not below %d", i, rows[i].Batch, math.MaxInt32)
		}
		if i > 0 && rows[i].Batch < rows[i-1].Batch {
			return fmt.Errorf("store: append rows out of batch order (%d after %d)", rows[i].Batch, rows[i-1].Batch)
		}
		// What Store.Validate demands of a row: once logged it could not be
		// taken back, and every view and checkpoint would fail validation.
		if rows[i].End < rows[i].Start {
			return fmt.Errorf("store: append row %d ends before it starts (%d < %d)", i, rows[i].End, rows[i].Start)
		}
	}
	if len(ls.start) > 0 && rows[0].Batch < ls.curBatch {
		return fmt.Errorf("store: append batch %d regresses below %d", rows[0].Batch, ls.curBatch)
	}
	// With no open tail, the highest batch is inside a sealed segment;
	// continuing it would split the batch across segments.
	if len(ls.start) > 0 && len(ls.start) == ls.rowEnd() && rows[0].Batch == ls.curBatch {
		return fmt.Errorf("store: append batch %d is already sealed", rows[0].Batch)
	}
	lsn, err := ls.log.Append(encodeRecord(rows))
	if err != nil {
		if isDiskFull(err) {
			// A full disk is survivable: the record was not acked, the WAL
			// self-poisoned at the last acked frame boundary, and
			// RecoverWrites can truncate the torn tail and resume once
			// space returns. Degrade to read-only instead of poisoning.
			ls.enterDegradedLocked(err)
			return fmt.Errorf("%w: wal append: %v", ErrDegraded, err)
		}
		ls.failed = true
		return fmt.Errorf("store: wal append: %w", err)
	}
	ls.applyLocked(lsn, rows)
	if ls.cfg.CheckpointRows > 0 && ls.rowEnd()-ls.ckptRows >= ls.cfg.CheckpointRows {
		if err := ls.checkpointLocked(); err != nil {
			if isDiskFull(err) {
				// The rows themselves are already WAL-durable and applied —
				// this append succeeded; it is only the checkpoint that
				// could not fit. Acknowledge the rows and degrade, leaving
				// the WAL suffix a little longer until space returns.
				ls.enterDegradedLocked(err)
				return nil
			}
			ls.failed = true
			return fmt.Errorf("store: checkpoint: %w", err)
		}
	}
	return nil
}

// enterDegradedLocked flips the store into the read-only degraded state.
func (ls *LiveStore) enterDegradedLocked(cause error) {
	ls.degraded = true
	ls.degradedReason = cause.Error()
}

// applyLocked folds one validated record into the in-memory state. It is
// the single apply path — live appends and recovery replay both go
// through it — and it cannot fail: everything it depends on was
// validated before the record reached the WAL.
func (ls *LiveStore) applyLocked(lsn wal.LSN, rows []model.Instance) {
	// Seal only at a record boundary, and only once the batch ID advances:
	// a batch never splits across segments, so the decision is a pure
	// function of the record stream and the configured threshold.
	if len(ls.start)-ls.rowEnd() >= ls.cfg.SealRows && rows[0].Batch > ls.curBatch {
		ls.sealLocked()
	}
	if len(ls.start) == ls.rowEnd() {
		ls.openStart = lsn
	}
	for _, in := range rows {
		ls.push(in)
	}
	ls.curBatch = rows[len(rows)-1].Batch
}

// sealLocked turns the open tail into a sealed segment: its rows' seal
// products as one more catalogue entry. No row moves.
func (ls *LiveStore) sealLocked() {
	lo, hi := ls.rowEnd(), len(ls.start)
	ls.add(ls.seal(SegmentInfo{RowLo: lo, RowHi: hi, BatchLo: ls.batch[lo], BatchHi: ls.curBatch + 1}, sealAll))
	ls.gen = nextGeneration()
}

// Checkpoint writes a checkpoint now: a v3 snapshot of the sealed
// segments, the CHECKPOINT meta naming it, and a WAL truncation
// releasing the log prefix the snapshot covers. Each step is atomic
// (temp-file rename) and ordered so that a crash at any point leaves a
// recoverable directory: at worst an orphaned snapshot or an
// un-truncated WAL, never a checkpoint that names missing data.
func (ls *LiveStore) Checkpoint() error {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	switch {
	case ls.closed:
		return fmt.Errorf("store: live store closed")
	case ls.failed:
		return ErrLiveFailed
	case ls.degraded:
		return fmt.Errorf("%w (%s)", ErrDegraded, ls.degradedReason)
	}
	if err := ls.checkpointLocked(); err != nil {
		if isDiskFull(err) {
			ls.enterDegradedLocked(err)
			return fmt.Errorf("%w: checkpoint: %v", ErrDegraded, err)
		}
		ls.failed = true
		return fmt.Errorf("store: checkpoint: %w", err)
	}
	return nil
}

func (ls *LiveStore) checkpointLocked() error {
	// The sealed prefix is already a Store: the arena's first rowEnd()
	// rows behind the catalogue, its batches ending where the open tail's
	// begin. The snapshot writer reads only the layout and the encodings.
	nb := 0
	if n := len(ls.segs); n > 0 {
		nb = int(ls.segs[n-1].BatchHi)
	}
	st := slice(&ls.columns, nb, &ls.catalogue, 0, len(ls.segs), ls.rowEnd())
	lsn := ls.log.End()
	if len(ls.start) > ls.rowEnd() {
		lsn = ls.openStart
	}
	seq := ls.ckptSeq + 1

	// Step 1: the snapshot, durable under its final name.
	path := filepath.Join(ls.dir, ckptName(seq))
	if err := ls.writeFileAtomic(path, func(w vfs.File) error {
		_, err := st.WriteSnapshot(w, WriteOptions{})
		return err
	}); err != nil {
		return err
	}
	// Step 2: the meta, flipping recovery over to the new snapshot.
	meta := encodeCkptMeta(ckptMeta{seq: seq, lsn: lsn, rows: uint64(st.Len())})
	if err := ls.writeFileAtomic(filepath.Join(ls.dir, "CHECKPOINT"), func(w vfs.File) error {
		_, err := w.Write(meta)
		return err
	}); err != nil {
		return err
	}
	// Step 3: release what the snapshot covers. Failures past this point
	// leave garbage, not damage; recovery ignores both leftovers.
	if err := ls.log.TruncateBefore(lsn); err != nil {
		return err
	}
	if ls.ckptSeq != 0 {
		if err := ls.fs.Remove(filepath.Join(ls.dir, ckptName(ls.ckptSeq))); err != nil && !errors.Is(err, os.ErrNotExist) {
			return err
		}
	}
	ls.ckptSeq = seq
	ls.ckptRows = ls.rowEnd()
	return nil
}

// writeFileAtomic writes path via a synced temp file and rename, then
// syncs the directory: the file is either absent (or its old version) or
// complete, never partial. Error paths remove the temp file —
// open-time recovery would clean it up anyway, but a long-running
// server that survives a checkpoint failure (the store is poisoned, not
// restarted) must not leak one temp per retry until the next reopen.
// The removal is best-effort: on a dying filesystem the Remove may fail
// too, and the original error is the one worth reporting.
func (ls *LiveStore) writeFileAtomic(path string, fill func(vfs.File) error) error {
	tmp := path + ".tmp"
	w, err := ls.fs.Create(tmp)
	if err != nil {
		return err
	}
	if err := fill(w); err != nil {
		w.Close()
		ls.fs.Remove(tmp)
		return err
	}
	if err := w.Sync(); err != nil {
		w.Close()
		ls.fs.Remove(tmp)
		return err
	}
	if err := w.Close(); err != nil {
		ls.fs.Remove(tmp)
		return err
	}
	if err := ls.fs.Rename(tmp, path); err != nil {
		ls.fs.Remove(tmp)
		return err
	}
	return ls.fs.SyncDir(ls.dir)
}

// Rows returns the number of acknowledged (or recovered) rows.
func (ls *LiveStore) Rows() int {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	return len(ls.start)
}

// NextBatch returns the lowest batch ID a future Append is always
// allowed to open: one past the highest batch ingested so far, or zero
// on an empty store. Ingest drivers use it to resume after recovery
// without tracking batch IDs themselves.
func (ls *LiveStore) NextBatch() uint32 {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	return ls.nextBatchLocked()
}

// nextBatchLocked is NextBatch under ls.mu: also the batch count of a
// view of everything ingested.
func (ls *LiveStore) nextBatchLocked() uint32 {
	if len(ls.start) == 0 {
		return 0
	}
	return ls.curBatch + 1
}

// SealedSegments returns how many immutable segments have been sealed.
func (ls *LiveStore) SealedSegments() int {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	return len(ls.segs)
}

// Degraded reports whether the store is in the read-only degraded state
// (see ErrDegraded), and why.
func (ls *LiveStore) Degraded() (bool, string) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	return ls.degraded, ls.degradedReason
}

// RecoverWrites attempts to leave the degraded state: it probes the disk
// with a small synced write (so a still-full disk fails here, not on a
// caller's append), repairs the WAL writer — truncating any torn tail a
// failed append left past the last acknowledged frame — and re-arms
// writes. On success the store serves appends again with nothing lost;
// on failure the store stays degraded and the probe can simply be
// retried later. A no-op on a healthy store.
func (ls *LiveStore) RecoverWrites() error {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	switch {
	case ls.closed:
		return fmt.Errorf("store: live store closed")
	case ls.failed:
		return ErrLiveFailed
	case !ls.degraded:
		return nil
	}
	if err := ls.probeDiskLocked(); err != nil {
		return fmt.Errorf("%w (probe: %v)", ErrDegraded, err)
	}
	if err := ls.log.Repair(); err != nil {
		return fmt.Errorf("%w (wal repair: %v)", ErrDegraded, err)
	}
	ls.degraded = false
	ls.degradedReason = ""
	return nil
}

// probeDiskLocked verifies the directory can take a small durable write:
// create, fill, sync, close, remove. The .tmp suffix means a crash
// mid-probe leaves a file open-time recovery already cleans up.
func (ls *LiveStore) probeDiskLocked() error {
	path := filepath.Join(ls.dir, "probe.tmp")
	w, err := ls.fs.Create(path)
	if err != nil {
		return err
	}
	var block [4096]byte
	if _, err := w.Write(block[:]); err != nil {
		w.Close()
		ls.fs.Remove(path)
		return err
	}
	if err := w.Sync(); err != nil {
		w.Close()
		ls.fs.Remove(path)
		return err
	}
	if err := w.Close(); err != nil {
		ls.fs.Remove(path)
		return err
	}
	return ls.fs.Remove(path)
}

// Close syncs and closes the WAL. The open tail's rows stay durable in
// the log and are replayed by the next OpenLive; Close does not
// checkpoint (call Checkpoint first to bound reopen replay).
func (ls *LiveStore) Close() error {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if ls.closed {
		return nil
	}
	ls.closed = true
	return ls.log.Close()
}
