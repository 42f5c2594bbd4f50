package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"testing"

	"crowdscope/internal/faultfs"
	"crowdscope/internal/model"
	"crowdscope/internal/vfs"
	"crowdscope/internal/wal"
)

// genStream produces a deterministic append stream: records of varied
// sizes whose batch IDs advance non-decreasingly, the shape live ingest
// promises. Row values exercise every column's coding (deltas, zigzag,
// float bits).
func genStream(seed int64, nRecs int) [][]model.Instance {
	rng := rand.New(rand.NewSource(seed))
	batch := uint32(0)
	start := int64(1_700_000_000_000)
	recs := make([][]model.Instance, nRecs)
	for r := range recs {
		rows := make([]model.Instance, 1+rng.Intn(40))
		for i := range rows {
			if rng.Intn(3) == 0 {
				batch += uint32(rng.Intn(3))
			}
			start += int64(rng.Intn(5000))
			rows[i] = model.Instance{
				Batch:    batch,
				TaskType: uint32(rng.Intn(8)),
				Item:     uint32(rng.Intn(10000)),
				Worker:   uint32(rng.Intn(500)),
				Start:    start,
				End:      start + int64(rng.Intn(120000)),
				Trust:    rng.Float32(),
				Answer:   uint32(rng.Intn(4)),
			}
		}
		recs[r] = rows
	}
	return recs
}

func streamRows(recs [][]model.Instance) []model.Instance {
	var all []model.Instance
	for _, r := range recs {
		all = append(all, r...)
	}
	return all
}

var liveTestCfg = LiveConfig{SealRows: 100, CheckpointRows: 300, Sync: wal.SyncNone, SegmentBytes: 4096}

// snapshotBytes serializes a live store's current contents — the view the
// server reads; bit-equality of these bytes is the equivalence the
// recovery contract promises.
func snapshotBytes(t testing.TB, ls *LiveStore) []byte {
	t.Helper()
	st := ls.View()
	if err := st.Validate(); err != nil {
		t.Fatalf("live store contents invalid: %v", err)
	}
	var buf bytes.Buffer
	if _, err := st.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestLiveStoreAppendAndReopen(t *testing.T) {
	dir := t.TempDir()
	recs := genStream(1, 50)
	want := streamRows(recs)

	ls, err := OpenLive(dir, liveTestCfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range recs {
		if err := ls.Append(rec); err != nil {
			t.Fatalf("append record %d: %v", i, err)
		}
	}
	if ls.Rows() != len(want) {
		t.Fatalf("acked %d rows, want %d", ls.Rows(), len(want))
	}
	if ls.SealedSegments() == 0 {
		t.Fatal("no segments sealed at this volume")
	}
	st := ls.View()
	if st.Len() != len(want) {
		t.Fatalf("store holds %d rows, want %d", st.Len(), len(want))
	}
	// Row order is the canonical batch-contiguous order, which for a
	// batch-ordered append stream is exactly submission order.
	for i, in := range want {
		if st.Row(i) != in {
			t.Fatalf("row %d = %+v, want %+v", i, st.Row(i), in)
		}
	}
	before := snapshotBytes(t, ls)
	if err := ls.Close(); err != nil {
		t.Fatal(err)
	}

	// A clean reopen rebuilds the identical state and accepts appends.
	ls, err = OpenLive(dir, liveTestCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()
	if ls.Rows() != len(want) {
		t.Fatalf("recovered %d rows, want %d", ls.Rows(), len(want))
	}
	if !bytes.Equal(snapshotBytes(t, ls), before) {
		t.Fatal("reopened store differs from the one that was closed")
	}
	extra := genStream(2, 1)[0]
	for i := range extra {
		extra[i].Batch += 1 << 20 // far past everything ingested
	}
	if err := ls.Append(extra); err != nil {
		t.Fatalf("append after reopen: %v", err)
	}
	if ls.Rows() != len(want)+len(extra) {
		t.Fatalf("rows %d after post-reopen append", ls.Rows())
	}
}

func TestLiveStoreRejectsBadAppends(t *testing.T) {
	dir := t.TempDir()
	ls, err := OpenLive(dir, liveTestCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()
	if err := ls.Append([]model.Instance{{Batch: 5}, {Batch: 3}}); err == nil {
		t.Fatal("out-of-order batches accepted")
	}
	if err := ls.Append([]model.Instance{{Batch: 7}}); err != nil {
		t.Fatalf("store poisoned by a rejected append: %v", err)
	}
	if err := ls.Append([]model.Instance{{Batch: 3}}); err == nil {
		t.Fatal("regressing batch accepted")
	}
	// A row Store.Validate would reject is refused before it is logged:
	// nothing reaches the WAL, the store is not poisoned, and what it holds
	// stays valid across a reopen.
	end := ls.log.End()
	err = ls.Append([]model.Instance{{Batch: 8, Start: 100, End: 160}, {Batch: 8, Start: 100, End: 99}})
	if err == nil || !strings.Contains(err.Error(), "row 1 ends before it starts") {
		t.Fatalf("row with end < start: err = %v, want a refusal naming row 1", err)
	}
	if ls.log.End() != end {
		t.Fatal("a refused row reached the WAL")
	}
	// End >= Start, but the interval is longer than MaxInt64 seconds: its
	// duration, the column the store keeps, would wrap negative.
	err = ls.Append([]model.Instance{{Batch: 8, Start: math.MinInt64 + 10, End: math.MaxInt64 - 10}})
	if err == nil || !strings.Contains(err.Error(), "row 0 lasts past MaxInt64") {
		t.Fatalf("row lasting past MaxInt64: err = %v, want a refusal naming row 0", err)
	}
	if ls.log.End() != end {
		t.Fatal("a refused row reached the WAL")
	}
	if err := ls.Append([]model.Instance{{Batch: 8, Start: 100, End: 100}}); err != nil {
		t.Fatalf("store poisoned by a rejected append: %v", err)
	}
	if got := ls.Rows(); got != 2 {
		t.Fatalf("rows %d after rejected appends, want 2", got)
	}
	if err := ls.View().Validate(); err != nil {
		t.Fatalf("view invalid after rejected appends: %v", err)
	}
}

// TestLiveStoreReplaysRowsAppendRefuses: replay stays permissive. A log
// written before Append checked end >= start can hold such a row; the
// directory must still recover it, exactly as logged.
func TestLiveStoreReplaysRowsAppendRefuses(t *testing.T) {
	dir := t.TempDir()
	log, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	bad := []model.Instance{{Batch: 0, Start: 100, End: 99, Trust: 0.5}}
	if _, err := log.Append(encodeRecord(bad)); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	ls, err := OpenLive(dir, liveTestCfg)
	if err != nil {
		t.Fatalf("recovering a log that holds an end < start row: %v", err)
	}
	defer ls.Close()
	if got := rowsOf(t, ls.View()); !sameRows(got, bad) {
		t.Fatalf("recovered %v, want %v", got, bad)
	}
}

func TestLiveStoreCheckpointBoundsReplay(t *testing.T) {
	dir := t.TempDir()
	recs := genStream(3, 80)
	ls, err := OpenLive(dir, liveTestCfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := ls.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := ls.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// The checkpoint is the arena's sealed prefix written in place; its
	// bytes must equal a snapshot of the reference build — the same rows
	// through Builder/Seal/Assemble at the same segment cuts.
	var cuts []int
	for _, si := range ls.segs {
		cuts = append(cuts, si.RowHi)
	}
	full := oracleStore(t, streamRows(recs), cuts)
	var want bytes.Buffer
	if _, err := full.WriteSnapshot(&want, WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, ckptName(ls.ckptSeq)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("checkpoint file (%d bytes) differs from the assembled store's snapshot (%d bytes)", len(got), want.Len())
	}
	before := snapshotBytes(t, ls)
	if err := ls.Close(); err != nil {
		t.Fatal(err)
	}
	// The checkpoint must exist and the WAL prefix it covers be released.
	if _, err := os.Stat(filepath.Join(dir, "CHECKPOINT")); err != nil {
		t.Fatalf("no CHECKPOINT meta: %v", err)
	}
	ls, err = OpenLive(dir, liveTestCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()
	if !bytes.Equal(snapshotBytes(t, ls), before) {
		t.Fatal("recovered store differs after manual checkpoint")
	}
}

// TestCrashRecoveryProperty is the fault-injection property test: across
// randomized injected crash points — torn writes at byte granularity,
// failed fsyncs, and kills between arbitrary mutating operations
// (including every step of the checkpoint protocol) — recovery must
// yield a record-aligned prefix of the submitted stream containing every
// acknowledged append, bit-identical to an uncrashed process fed the
// same prefix.
func TestCrashRecoveryProperty(t *testing.T) {
	recs := genStream(4, 60)
	cfg := liveTestCfg
	cfg.Sync = wal.SyncAlways

	// Dry run: measure the workload's fault surface.
	dry := faultfs.New(vfs.OS{})
	{
		cfgDry := cfg
		cfgDry.FS = dry
		ls, err := OpenLive(t.TempDir(), cfgDry)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			if err := ls.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		ls.Close()
	}
	totalBytes, totalOps, totalSyncs := dry.Stats()
	if totalBytes == 0 || totalOps == 0 || totalSyncs == 0 {
		t.Fatalf("dry run measured nothing: %d bytes, %d ops, %d syncs", totalBytes, totalOps, totalSyncs)
	}

	// Reference states: refBytes[k] is the canonical serialized contents
	// after ingesting records [0, k).
	refBytes := make([][]byte, len(recs)+1)
	prefixRows := make([]int, len(recs)+1)
	{
		ls, err := OpenLive(t.TempDir(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		refBytes[0] = snapshotBytes(t, ls)
		for k, rec := range recs {
			if err := ls.Append(rec); err != nil {
				t.Fatal(err)
			}
			refBytes[k+1] = snapshotBytes(t, ls)
			prefixRows[k+1] = prefixRows[k] + len(rec)
		}
		ls.Close()
	}

	const trials = 120
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < trials; trial++ {
		dir := t.TempDir()
		ffs := faultfs.New(vfs.OS{})
		kind := trial % 3
		switch kind {
		case 0:
			ffs.CrashAfterBytes(rng.Int63n(totalBytes + 1))
		case 1:
			ffs.CrashAfterOps(1 + rng.Intn(totalOps))
		case 2:
			ffs.FailSyncAt(1 + rng.Intn(totalSyncs))
		}

		// Run the workload until the injected crash stops it.
		acked, submitted := 0, 0
		cfgF := cfg
		cfgF.FS = ffs
		if ls, err := OpenLive(dir, cfgF); err == nil {
			for _, rec := range recs {
				submitted++
				if err := ls.Append(rec); err != nil {
					break
				}
				acked++
			}
			ls.Close()
		}

		// Recover on a clean filesystem; recovery must always succeed.
		rec, err := OpenLive(dir, cfg)
		if err != nil {
			t.Fatalf("trial %d (kind %d): recovery failed: %v", trial, kind, err)
		}
		got := rec.Rows()
		// Prefix property: a record-aligned prefix, no shorter than what
		// was acknowledged, no longer than what was submitted.
		if got < prefixRows[acked] || got > prefixRows[submitted] {
			t.Fatalf("trial %d (kind %d): recovered %d rows, acked %d..%d submitted",
				trial, kind, got, prefixRows[acked], prefixRows[submitted])
		}
		k := acked
		for ; k <= submitted; k++ {
			if prefixRows[k] == got {
				break
			}
		}
		if k > submitted {
			t.Fatalf("trial %d (kind %d): recovered %d rows is not a record boundary", trial, kind, got)
		}
		// Bit-identical to an uncrashed process fed the same k records.
		if !bytes.Equal(snapshotBytes(t, rec), refBytes[k]) {
			t.Fatalf("trial %d (kind %d): recovered store differs from reference after %d records", trial, kind, k)
		}
		rec.Close()
	}
}

// TestRecoverAfterWALTornBehindCheckpoint covers the nasty corner where
// damage truncates the WAL to before the checkpointed position: new
// appends must not land at LSNs the next recovery would skip.
func TestRecoverAfterWALTornBehindCheckpoint(t *testing.T) {
	dir := t.TempDir()
	recs := genStream(6, 40)
	ls, err := OpenLive(dir, liveTestCfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := ls.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := ls.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ls.Close()
	// Destroy the whole WAL directory contents: everything sealed is in
	// the checkpoint, the open tail is lost.
	names, err := os.ReadDir(filepath.Join(dir, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range names {
		if err := os.Remove(filepath.Join(dir, "wal", e.Name())); err != nil {
			t.Fatal(err)
		}
	}
	ls, err = OpenLive(dir, liveTestCfg)
	if err != nil {
		t.Fatalf("recovery with destroyed WAL: %v", err)
	}
	recovered := ls.Rows()
	// Appends after this recovery must survive the next recovery.
	extra := []model.Instance{{Batch: 1 << 20, Start: 1, End: 2}}
	if err := ls.Append(extra); err != nil {
		t.Fatal(err)
	}
	ls.Close()
	ls, err = OpenLive(dir, liveTestCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()
	if ls.Rows() != recovered+1 {
		t.Fatalf("post-recovery append lost: %d rows, want %d", ls.Rows(), recovered+1)
	}
}

func TestRecordCodecRoundTrip(t *testing.T) {
	for _, rec := range genStream(7, 20) {
		got, err := decodeRecord(encodeRecord(rec))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(rec) {
			t.Fatalf("decoded %d rows, want %d", len(got), len(rec))
		}
		for i := range rec {
			if got[i] != rec[i] {
				t.Fatalf("row %d = %+v, want %+v", i, got[i], rec[i])
			}
		}
	}
	// Damage must surface as an error, never as wrong rows.
	enc := encodeRecord(genStream(8, 1)[0])
	for _, bad := range [][]byte{
		{},
		{99},
		enc[:len(enc)-1],
		append(append([]byte(nil), enc...), 0),
	} {
		if _, err := decodeRecord(bad); err == nil {
			t.Fatalf("damaged record %x decoded", bad)
		}
	}
}

// bufferRecord is the record encoder as it stood with one bytes.Buffer
// write per varint byte: the oracle encodeRecord's bytes are held to.
func bufferRecord(rows []model.Instance) []byte {
	var b bytes.Buffer
	b.WriteByte(recKindRows)
	putUvarint(&b, uint64(len(rows)))
	prevBatch := uint32(0)
	prevStart := int64(0)
	var f [4]byte
	for _, in := range rows {
		putUvarint(&b, uint64(in.Batch-prevBatch))
		prevBatch = in.Batch
		putUvarint(&b, uint64(in.TaskType))
		putUvarint(&b, uint64(in.Item))
		putUvarint(&b, uint64(in.Worker))
		putUvarint(&b, uint64(in.Answer))
		putUvarint(&b, zigzag(in.Start-prevStart))
		prevStart = in.Start
		putUvarint(&b, zigzag(in.End-in.Start))
		binary.LittleEndian.PutUint32(f[:], math.Float32bits(in.Trust))
		b.Write(f[:])
	}
	return b.Bytes()
}

// TestRecordEncoderMatchesBufferOracle: encodeRecord writes the bytes the
// byte-at-a-time encoder wrote, for random rows whose fields run from zero
// to their maximum (and time deltas to both ends of int64), so WAL files
// stay byte-identical.
func TestRecordEncoderMatchesBufferOracle(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	u32 := func() uint32 {
		switch r.Intn(4) {
		case 0:
			return math.MaxUint32
		case 1:
			return uint32(r.Intn(128))
		}
		return r.Uint32() >> r.Intn(32)
	}
	i64 := func() int64 {
		switch r.Intn(5) {
		case 0:
			return math.MaxInt64
		case 1:
			return math.MinInt64
		}
		return r.Int63n(1<<40) - 1<<39
	}
	for trial := 0; trial < 500; trial++ {
		rows := make([]model.Instance, 1+r.Intn(40))
		for i := range rows {
			rows[i] = model.Instance{Batch: u32(), TaskType: u32(), Item: u32(), Worker: u32(), Answer: u32(),
				Start: i64(), End: i64(), Trust: math.Float32frombits(r.Uint32())}
		}
		if got, want := encodeRecord(rows), bufferRecord(rows); !bytes.Equal(got, want) {
			t.Fatalf("trial %d: encodeRecord wrote %x, the buffer encoder %x", trial, got, want)
		}
	}
	top := model.Instance{Batch: math.MaxUint32, TaskType: math.MaxUint32, Item: math.MaxUint32, Worker: math.MaxUint32,
		Answer: math.MaxUint32, Start: math.MinInt64, End: math.MaxInt64, Trust: float32(math.Inf(-1))}
	if got, want := encodeRecord([]model.Instance{top, top}), bufferRecord([]model.Instance{top, top}); !bytes.Equal(got, want) {
		t.Fatalf("maximum fields: encodeRecord wrote %x, the buffer encoder %x", got, want)
	}
}

func TestLiveStorePoisonedAfterInjectedFailure(t *testing.T) {
	ffs := faultfs.New(vfs.OS{})
	cfg := liveTestCfg
	cfg.FS = ffs
	ls, err := OpenLive(t.TempDir(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()
	if err := ls.Append([]model.Instance{{Batch: 1}}); err != nil {
		t.Fatal(err)
	}
	ffs.CrashAfterOps(1)
	if err := ls.Append([]model.Instance{{Batch: 2}}); err == nil {
		t.Fatal("append succeeded through a crashed filesystem")
	}
	if err := ls.Append([]model.Instance{{Batch: 3}}); !errors.Is(err, ErrLiveFailed) {
		t.Fatalf("append on poisoned store: %v, want ErrLiveFailed", err)
	}
}

func BenchmarkRecover(b *testing.B) {
	dir := b.TempDir()
	cfg := LiveConfig{SealRows: 4096, CheckpointRows: -1, Sync: wal.SyncNone}
	ls, err := OpenLive(dir, cfg)
	if err != nil {
		b.Fatal(err)
	}
	recs := genStream(9, 200) // ~4k rows
	var rows int
	for _, rec := range recs {
		if err := ls.Append(rec); err != nil {
			b.Fatal(err)
		}
		rows += len(rec)
	}
	// Half the rows behind a checkpoint, half replayed from the WAL, so
	// the benchmark weighs both recovery paths.
	if err := ls.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	for _, rec := range genStream(10, 200) {
		for i := range rec {
			rec[i].Batch += 1 << 20
		}
		if err := ls.Append(rec); err != nil {
			b.Fatal(err)
		}
		rows += len(rec)
	}
	if err := ls.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(rows), "rows")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ls, err := OpenLive(dir, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if ls.Rows() != rows {
			b.Fatalf("recovered %d rows, want %d", ls.Rows(), rows)
		}
		ls.Close()
	}
}

// collectTmpFiles returns every *.tmp path under dir, recursively.
func collectTmpFiles(t *testing.T, dir string) []string {
	t.Helper()
	var tmps []string
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && filepath.Ext(path) == ".tmp" {
			tmps = append(tmps, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return tmps
}

// TestCheckpointSyncFailureLeavesNoTemp injects a non-crashing fsync
// failure into each of the checkpoint's two atomic file writes (the
// snapshot and the CHECKPOINT meta) and asserts the failed checkpoint
// removes its temp file. A leaked temp is harmless across a restart —
// open-time cleanup removes it — but a long-running server survives a
// failed checkpoint in the poisoned state without reopening, and must
// not shed one orphan per failure.
func TestCheckpointSyncFailureLeavesNoTemp(t *testing.T) {
	cfg := LiveConfig{SealRows: 40, CheckpointRows: -1, Sync: wal.SyncNone, SegmentBytes: 4096}
	recs := genStream(55, 60)
	for k := 1; k <= 2; k++ {
		dir := t.TempDir()
		ffs := faultfs.New(vfs.OS{})
		cfgF := cfg
		cfgF.FS = ffs
		ls, err := OpenLive(dir, cfgF)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			if err := ls.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		_, _, syncs := ffs.Stats()
		ffs.FailSyncSoftAt(syncs + k)
		if err := ls.Checkpoint(); err == nil {
			t.Fatalf("sync failure %d: checkpoint succeeded", k)
		}
		if tmps := collectTmpFiles(t, dir); len(tmps) != 0 {
			t.Fatalf("sync failure %d: temp files leaked: %v", k, tmps)
		}
		if err := ls.Append(recs[0]); !errors.Is(err, ErrLiveFailed) {
			t.Fatalf("sync failure %d: store not poisoned after failed checkpoint: %v", k, err)
		}
		ls.Close()

		// The durable prefix recovers in full on a healthy filesystem.
		ls2, err := OpenLive(dir, cfg)
		if err != nil {
			t.Fatalf("sync failure %d: reopen: %v", k, err)
		}
		if got, want := ls2.Rows(), len(streamRows(recs)); got != want {
			t.Fatalf("sync failure %d: recovered %d rows, want %d", k, got, want)
		}
		ls2.Close()
	}
}

// TestLiveStoreDegradedOnDiskFull: ENOSPC on a WAL append moves the live
// store to the read-only degraded state — not the poisoned failed state.
// Reads keep serving the acked prefix, further appends and checkpoints
// are refused with ErrDegraded, and RecoverWrites restores service in
// place once the disk has space again, losing nothing that was acked.
func TestLiveStoreDegradedOnDiskFull(t *testing.T) {
	dir := t.TempDir()
	ffs := faultfs.New(vfs.OS{})
	cfg := liveTestCfg
	cfg.FS = ffs
	ls, err := OpenLive(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	all := genStream(7, 15) // one stream: batch IDs stay non-decreasing across the fault window
	recs, extra := all[:12], all[12:]
	for i, rec := range recs {
		if err := ls.Append(rec); err != nil {
			t.Fatalf("append record %d: %v", i, err)
		}
	}
	acked := ls.Rows()
	before := snapshotBytes(t, ls)

	ffs.FailWritesWithErr(syscall.ENOSPC)
	err = ls.Append(extra[0])
	if !errors.Is(err, ErrDegraded) {
		t.Fatalf("append on full disk: %v, want ErrDegraded", err)
	}
	if errors.Is(err, ErrLiveFailed) {
		t.Fatalf("full disk poisoned the store: %v", err)
	}
	if deg, reason := ls.Degraded(); !deg || reason == "" {
		t.Fatalf("Degraded() = %v, %q", deg, reason)
	}
	// Degraded is sticky for writes: the next append is refused up front.
	if err := ls.Append(extra[1]); !errors.Is(err, ErrDegraded) {
		t.Fatalf("second append while degraded: %v", err)
	}
	if err := ls.Checkpoint(); !errors.Is(err, ErrDegraded) {
		t.Fatalf("checkpoint while degraded: %v", err)
	}
	// ...but reads still serve the acked prefix, bit-identically.
	if ls.Rows() != acked {
		t.Fatalf("degraded store acks %d rows, had %d", ls.Rows(), acked)
	}
	if got := snapshotBytes(t, ls); !bytes.Equal(got, before) {
		t.Fatal("degraded store contents changed")
	}
	// Recovery while the disk is still full stays degraded.
	if err := ls.RecoverWrites(); !errors.Is(err, ErrDegraded) {
		t.Fatalf("RecoverWrites on a still-full disk: %v", err)
	}

	ffs.FailWritesWithErr(nil) // space returns
	if err := ls.RecoverWrites(); err != nil {
		t.Fatalf("RecoverWrites: %v", err)
	}
	if deg, _ := ls.Degraded(); deg {
		t.Fatal("still degraded after RecoverWrites")
	}
	for i, rec := range extra {
		if err := ls.Append(rec); err != nil {
			t.Fatalf("append %d after recovery: %v", i, err)
		}
	}
	want := snapshotBytes(t, ls)
	if err := ls.Close(); err != nil {
		t.Fatal(err)
	}
	// The reopened directory replays to exactly what the recovered store
	// served: nothing acked before, during, or after the window is lost.
	ls2, err := OpenLive(dir, liveTestCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ls2.Close()
	if got := snapshotBytes(t, ls2); !bytes.Equal(got, want) {
		t.Fatal("reopen after degraded window diverges from live contents")
	}
}

// TestLiveStoreDegradedOnCheckpointDiskFull: ENOSPC during an explicit
// checkpoint degrades instead of poisoning — the WAL still holds every
// acked row, so nothing is lost and reads keep working.
func TestLiveStoreDegradedOnCheckpointDiskFull(t *testing.T) {
	dir := t.TempDir()
	ffs := faultfs.New(vfs.OS{})
	cfg := liveTestCfg
	cfg.FS = ffs
	ls, err := OpenLive(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	recs := genStream(9, 10)
	for _, rec := range recs {
		if err := ls.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	before := snapshotBytes(t, ls)

	ffs.FailWritesWithErr(syscall.ENOSPC)
	if err := ls.Checkpoint(); !errors.Is(err, ErrDegraded) {
		t.Fatalf("checkpoint on full disk: %v, want ErrDegraded", err)
	}
	if deg, _ := ls.Degraded(); !deg {
		t.Fatal("store not degraded after checkpoint ENOSPC")
	}
	if got := snapshotBytes(t, ls); !bytes.Equal(got, before) {
		t.Fatal("degraded store contents changed")
	}

	ffs.FailWritesWithErr(nil)
	if err := ls.RecoverWrites(); err != nil {
		t.Fatalf("RecoverWrites: %v", err)
	}
	if err := ls.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after recovery: %v", err)
	}
	want := snapshotBytes(t, ls)
	ls.Close()
	ls2, err := OpenLive(dir, liveTestCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ls2.Close()
	if got := snapshotBytes(t, ls2); !bytes.Equal(got, want) {
		t.Fatal("reopen after checkpoint-degraded window diverges")
	}
}

// TestAppendBatchBound: a row whose batch ID is not below MaxInt32 — the
// bound a snapshot puts on a store's batch count — is refused before the
// WAL sees it, allocating nothing for the ID, and the directory reopens as
// it was. A row at MaxInt32−1, the last ID taken, is acknowledged beside a
// checkpoint, written as a snapshot of the view, and recovered.
func TestAppendBatchBound(t *testing.T) {
	dir := t.TempDir()
	cfg := LiveConfig{SealRows: 1, CheckpointRows: -1, Sync: wal.SyncNone}
	row := func(b uint32) []model.Instance { return []model.Instance{{Batch: b, Start: 10, End: 20}} }
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	ls, err := OpenLive(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ls.Append(row(5)); err != nil {
		t.Fatal(err)
	}
	end := ls.log.End()
	for _, b := range []uint32{math.MaxInt32, math.MaxUint32} {
		if n := allocated(func() { err = ls.Append(row(b)) }); n >= 1<<20 {
			t.Errorf("refusing batch %d allocated %d bytes", b, n)
		}
		if err == nil || !strings.Contains(err.Error(), "not below") {
			t.Fatalf("batch %d: Append = %v, want a refusal", b, err)
		}
		if got := ls.log.End(); got != end {
			t.Fatalf("batch %d: refused row moved the log end %v to %v", b, end, got)
		}
	}
	ls.Close()
	if ls, err = OpenLive(dir, cfg); err != nil {
		t.Fatal(err)
	}
	if ls.Rows() != 1 || ls.NextBatch() != 6 {
		t.Fatalf("reopened after refusals: %d rows, next batch %d", ls.Rows(), ls.NextBatch())
	}

	last := uint32(math.MaxInt32 - 1)
	if n := allocated(func() { err = ls.Append(row(last)) }); err != nil || n >= 1<<20 {
		t.Fatalf("batch %d: Append = %v, %d bytes allocated", last, err, n)
	}
	if err := ls.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	check := func(what string, st *Store) {
		t.Helper()
		if st.NumBatches() != math.MaxInt32 || st.Len() != 2 {
			t.Fatalf("%s: %d batches, %d rows", what, st.NumBatches(), st.Len())
		}
		if lo, hi := st.BatchRange(last); lo != 1 || hi != 2 {
			t.Fatalf("%s: batch %d range [%d,%d)", what, last, lo, hi)
		}
	}
	check("view", ls.View())
	check("view snapshot", encodedTwin(t, ls.View()))
	ls.Close()
	if ls, err = OpenLive(dir, cfg); err != nil {
		t.Fatal(err)
	}
	defer ls.Close()
	if ls.NextBatch() != math.MaxInt32 {
		t.Fatalf("recovered next batch %d", ls.NextBatch())
	}
	check("recovered view", ls.View())
}
