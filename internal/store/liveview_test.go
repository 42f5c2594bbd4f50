package store

import (
	"bytes"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crowdscope/internal/model"
	"crowdscope/internal/vfs"
	"crowdscope/internal/wal"
)

// rowsOf materializes every row of a store for equality checks.
func rowsOf(t testing.TB, st *Store) []model.Instance {
	t.Helper()
	out := make([]model.Instance, st.Len())
	for i := range out {
		out[i] = st.Row(i)
	}
	return out
}

func sameRows(a, b []model.Instance) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if !sameBits(x.Trust, y.Trust) {
			return false
		}
		x.Trust, y.Trust = 0, 0
		if x != y {
			return false
		}
	}
	return true
}

// TestLiveViewMatchesStore interleaves appends, seals and checkpoints
// with View calls and checks every view against the rows appended so
// far: same rows, same order, structurally valid, and frozen — a view
// taken earlier never changes as more rows arrive.
func TestLiveViewMatchesStore(t *testing.T) {
	ls, err := OpenLive(t.TempDir(), liveTestCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()

	if v := ls.View(); v.Len() != 0 {
		t.Fatalf("empty store view has %d rows", v.Len())
	}

	recs := genStream(7, 120)
	type taken struct {
		view *Store
		rows []model.Instance
	}
	var snaps []taken
	for i, rec := range recs {
		if err := ls.Append(rec); err != nil {
			t.Fatal(err)
		}
		if i%7 == 0 {
			v := ls.View()
			if err := v.Validate(); err != nil {
				t.Fatalf("after record %d: view invalid: %v", i, err)
			}
			want := streamRows(recs[:i+1])
			got := rowsOf(t, v)
			if !sameRows(got, want) {
				t.Fatalf("after record %d: view rows diverge from the appended stream (%d vs %d rows)", i, len(got), len(want))
			}
			snaps = append(snaps, taken{view: v, rows: want})
		}
	}
	// Every earlier view must still read exactly what it read when taken.
	for k, s := range snaps {
		if got := rowsOf(t, s.view); !sameRows(got, s.rows) {
			t.Fatalf("snapshot %d changed after later appends", k)
		}
		if err := s.view.Validate(); err != nil {
			t.Fatalf("snapshot %d invalid after later appends: %v", k, err)
		}
	}
}

// TestLiveViewIncrementalCost pins the view's cost contract: the apply
// path folds every row into the open tail's zone once — whatever the
// store's size, across seals — and a view folds and copies none. CopiedRows
// counts the rows the tail-zone fold visited, so the assertion is
// deterministic where a latency measurement would flake.
func TestLiveViewIncrementalCost(t *testing.T) {
	cfg := LiveConfig{SealRows: 200, CheckpointRows: -1, Sync: wal.SyncNone}
	ls, err := OpenLive(t.TempDir(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()

	row := func(batch uint32, i int) model.Instance {
		return model.Instance{Batch: batch, TaskType: uint32(i % 5), Item: uint32(i), Worker: uint32(i % 50),
			Start: 1_700_000_000 + int64(i), End: 1_700_000_000 + int64(i) + 60, Trust: 0.5, Answer: uint32(i % 3)}
	}
	batch := uint32(0)
	appendBatch := func(n int) {
		rows := make([]model.Instance, n)
		for i := range rows {
			rows[i] = row(batch, i)
		}
		if err := ls.Append(rows); err != nil {
			t.Fatal(err)
		}
		batch++
	}
	// Build a large sealed prefix. Each row was folded once as it was
	// applied; the first view over them folds none.
	for b := 0; b < 40; b++ {
		appendBatch(250) // > SealRows, so every batch seals the previous one
	}
	v0 := ls.View()
	base := ls.ViewStats()
	if v0.Len() != 40*250 || base.CopiedRows != 40*250 {
		t.Fatalf("first view of %d rows: %d rows folded, want each applied row once", v0.Len(), base.CopiedRows)
	}

	// Steady state: each small append folds exactly the delta, and a view
	// keeps the plan-cache generation while no seal intervenes. The
	// appends extend the open batch (a higher batch ID would seal it).
	for k := 0; k < 20; k++ {
		rows := []model.Instance{row(batch-1, k)}
		if err := ls.Append(rows); err != nil {
			t.Fatal(err)
		}
		v := ls.View()
		st := ls.ViewStats()
		if want := base.CopiedRows + int64(k) + 1; st.CopiedRows != want {
			t.Fatalf("view %d: visited %d rows total, want %d — the fold is not O(delta)", k, st.CopiedRows, want)
		}
		if v.Generation() != v0.Generation() {
			t.Fatalf("view %d: generation changed %d -> %d during tail-only growth", k, v0.Generation(), v.Generation())
		}
	}

	// Repeated views with no new data are free and identical.
	va, vb := ls.View(), ls.View()
	if va != vb {
		t.Fatal("unchanged store returned distinct view objects")
	}

	// A seal moves no row: only the rows appended since the last view were
	// folded, and the generation advances.
	st1 := ls.ViewStats()
	appendBatch(250) // seals the open tail, opens a new one
	appendBatch(1)   // seals that, opens a new one
	v2 := ls.View()
	st2 := ls.ViewStats()
	if v2.Generation() == v0.Generation() {
		t.Fatal("generation did not advance across a seal")
	}
	if visited := st2.CopiedRows - st1.CopiedRows; visited != 251 {
		t.Fatalf("two seals folded %d rows, want the 251 appended", visited)
	}
	if st2.Rebuilds != 0 {
		t.Fatalf("%d view rebuilds", st2.Rebuilds)
	}
	if got := rowsOf(t, v0); len(got) != 40*250 || got[len(got)-1] != row(39, 249) {
		t.Fatal("first view changed under later appends and seals")
	}
}

// TestReopenFoldsOnlyTheOpenTail reopens a directory whose WAL replays N
// rows, all but t of them into segments a replay seal takes, and requires
// the reopen to fold only the t rows of the open tail (ViewStats.CopiedRows)
// into the same tail zone the store showed before it closed. Once without a
// checkpoint, so the replay covers every row, once after one.
func TestReopenFoldsOnlyTheOpenTail(t *testing.T) {
	for _, ckpt := range []bool{false, true} {
		dir := t.TempDir()
		cfg := LiveConfig{SealRows: 100, CheckpointRows: -1, Sync: wal.SyncNone}
		ls, err := OpenLive(dir, cfg)
		if err != nil {
			t.Fatal(err)
		}
		recs := genStream(11, 60)
		for i, rec := range recs {
			if err := ls.Append(rec); err != nil {
				t.Fatal(err)
			}
			if ckpt && i == 20 {
				if err := ls.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
		}
		before := ls.View()
		replayed := ls.Rows() - ls.ckptRows
		tail := ls.Rows() - ls.rowEnd()
		if err := ls.Close(); err != nil {
			t.Fatal(err)
		}
		if tail == 0 || tail == replayed {
			t.Fatalf("checkpoint %v: %d of %d replayed rows in the open tail; the test needs some sealed by the replay", ckpt, tail, replayed)
		}
		ls, err = OpenLive(dir, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := ls.ViewStats().CopiedRows; got != int64(tail) {
			t.Fatalf("checkpoint %v: a reopen replaying %d rows folded %d, want the %d of the open tail", ckpt, replayed, got, tail)
		}
		after := ls.View()
		if !reflect.DeepEqual(after.zones, before.zones) {
			t.Fatalf("checkpoint %v: reopened zones differ from the closed store's", ckpt)
		}
		ls.Close()
	}
}

// TestLiveViewConcurrent hammers View from readers while a writer
// appends and a compactor merges segments, under -race: every view must
// be a frozen, valid prefix of the append stream.
func TestLiveViewConcurrent(t *testing.T) {
	ls, err := OpenLive(t.TempDir(), liveTestCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()
	recs := genStream(11, 300)
	all := streamRows(recs)

	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, rec := range recs {
			if err := ls.Append(rec); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				ls.Compact(250)
			}
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				v := ls.View()
				n := v.Len()
				if n > len(all) {
					t.Errorf("view has %d rows, stream only %d", n, len(all))
					return
				}
				if err := v.Validate(); err != nil {
					t.Errorf("view of %d rows invalid: %v", n, err)
					return
				}
				// Spot-check the snapshot against the stream prefix; record
				// atomicity means every visible prefix is a record boundary,
				// and row order is append order.
				for _, i := range []int{0, n / 2, n - 1} {
					if i < 0 || i >= n {
						continue
					}
					if got := v.Row(i); got != all[i] {
						t.Errorf("view row %d = %+v, want %+v", i, got, all[i])
						return
					}
				}
			}
		}()
	}
	<-done
	wg.Wait()
	if t.Failed() {
		return
	}
	v := ls.View()
	if got := rowsOf(t, v); !sameRows(got, all) {
		t.Fatalf("final view has %d rows, want %d", len(got), len(all))
	}
}

// parkFS is the real filesystem whose file Sync, once armed, parks: the
// first Sync after arm signals parked and waits for the release.
type parkFS struct {
	vfs.OS
	gate   atomic.Pointer[chan struct{}]
	parked chan struct{}
}

type parkFile struct {
	vfs.File
	fs *parkFS
}

func (p *parkFS) Create(name string) (vfs.File, error)     { return p.wrap(p.OS.Create(name)) }
func (p *parkFS) OpenAppend(name string) (vfs.File, error) { return p.wrap(p.OS.OpenAppend(name)) }

func (p *parkFS) wrap(f vfs.File, err error) (vfs.File, error) {
	if err != nil {
		return nil, err
	}
	return parkFile{f, p}, nil
}

func (f parkFile) Sync() error {
	if g := f.fs.gate.Swap(nil); g != nil {
		f.fs.parked <- struct{}{}
		<-*g
	}
	return f.File.Sync()
}

// arm parks the next Sync until release, which the test's cleanup also
// calls, so a failing test cannot leave a writer parked.
func (p *parkFS) arm(t *testing.T) (release func()) {
	gate := make(chan struct{})
	p.gate.Store(&gate)
	release = sync.OnceFunc(func() { close(gate) })
	t.Cleanup(release)
	return release
}

// TestReadersDoNotWaitOnWriter parks the writer inside an fsync while it
// holds the store's lock — an Append in its WAL sync, then a Checkpoint in
// its snapshot sync with an Append queued behind it — and requires every
// read-side call to return meanwhile, Degraded (the health probe's call)
// among them, showing the store without the parked rows; once released,
// the next view holds them.
func TestReadersDoNotWaitOnWriter(t *testing.T) {
	fs := &parkFS{parked: make(chan struct{}, 1)}
	ls, err := OpenLive(t.TempDir(), LiveConfig{SealRows: 100, CheckpointRows: -1, Sync: wal.SyncAlways, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ls.Close() })
	recs := genStream(3, 32)
	for _, rec := range recs[:30] {
		if err := ls.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	rows, next, sealed := len(streamRows(recs[:30])), ls.NextBatch(), ls.SealedSegments()
	if sealed == 0 {
		t.Fatal("test needs a sealed segment")
	}

	waitParked := func(what string) {
		t.Helper()
		select {
		case <-fs.parked:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s never reached its fsync", what)
		}
	}
	// readers makes every read-side call in one goroutine, which must be
	// done within 5 s, and checks what they show.
	readers := func(what string) {
		t.Helper()
		type seen struct {
			view                *Store
			rows, sealed, stats int
			next                uint32
			degraded            bool
		}
		ch := make(chan seen, 1)
		go func() {
			v := ls.View()
			degraded, _ := ls.Degraded()
			ch <- seen{v, ls.Rows(), ls.SealedSegments(), ls.ViewStats().Rows, ls.NextBatch(), degraded}
		}()
		select {
		case s := <-ch:
			if s.view.Len() != rows || s.rows != rows || s.stats != rows || s.next != next || s.sealed != sealed {
				t.Fatalf("%s: readers saw %d view rows, %d rows, %d stats rows, next batch %d, %d sealed; want %d rows, next batch %d, %d sealed",
					what, s.view.Len(), s.rows, s.stats, s.next, s.sealed, rows, next, sealed)
			}
			if s.degraded {
				t.Fatalf("%s: a healthy store reports itself degraded", what)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: readers waited on the writer", what)
		}
	}
	landed := func(what string, errs ...chan error) {
		t.Helper()
		for _, ch := range errs {
			if err := <-ch; err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		}
		if n := ls.View().Len(); n != rows {
			t.Fatalf("%s: view holds %d rows after the release, want %d", what, n, rows)
		}
		next, sealed = ls.NextBatch(), ls.SealedSegments()
	}

	release := fs.arm(t)
	appended := make(chan error, 1)
	go func() { appended <- ls.Append(recs[30]) }()
	waitParked("an append")
	readers("an append parked in its WAL fsync")
	release()
	rows += len(recs[30])
	landed("the parked append", appended)

	release = fs.arm(t)
	checkpointed := make(chan error, 1)
	go func() { checkpointed <- ls.Checkpoint() }()
	waitParked("a checkpoint")
	go func() { appended <- ls.Append(recs[31]) }()
	readers("a checkpoint parked in its snapshot fsync")
	release()
	rows += len(recs[31])
	landed("the parked checkpoint", checkpointed, appended)
}

// TestCompactMergesSegments checks row equivalence, that compaction moves
// no row (views before and after share column storage, nothing rebuilds),
// the fresh generation, and checkpoint round-tripping of the merged
// layout. Zone-map and encoding recomputation is TestLiveStoreModel's.
func TestCompactMergesSegments(t *testing.T) {
	dir := t.TempDir()
	cfg := LiveConfig{SealRows: 50, CheckpointRows: -1, Sync: wal.SyncNone}
	ls, err := OpenLive(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	recs := genStream(23, 200)
	for _, rec := range recs {
		if err := ls.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	wantRows := streamRows(recs)
	segsBefore := ls.SealedSegments()
	if segsBefore < 4 {
		t.Fatalf("test needs several sealed segments, got %d", segsBefore)
	}
	vPre := ls.View()
	preGen, preSegs := vPre.Generation(), slices.Clone(vPre.Segments())

	merged := ls.Compact(100000)
	if merged == 0 {
		t.Fatal("Compact merged nothing")
	}
	if got := ls.SealedSegments(); got != segsBefore-merged {
		t.Fatalf("%d segments after compacting %d away from %d", got, merged, segsBefore)
	}

	// Views: the pre-compaction view is untouched; the next view shows the
	// merged layout over the same column storage with a fresh generation.
	if got := rowsOf(t, vPre); !sameRows(got, wantRows) || vPre.Generation() != preGen || !slices.Equal(vPre.Segments(), preSegs) {
		t.Fatal("outstanding view changed under compaction")
	}
	vPost := ls.View()
	if err := vPost.Validate(); err != nil {
		t.Fatalf("post-compaction view invalid: %v", err)
	}
	if got := rowsOf(t, vPost); !sameRows(got, wantRows) {
		t.Fatal("post-compaction view rows diverge")
	}
	if vPost.Generation() == vPre.Generation() {
		t.Fatal("compaction did not advance the view generation")
	}
	if &vPost.Starts()[0] != &vPre.Starts()[0] {
		t.Fatal("compaction moved rows: the post-compaction view does not share column storage with the pre-compaction one")
	}
	if rb := ls.ViewStats().Rebuilds; rb != 0 {
		t.Fatalf("%d view rebuilds across compaction", rb)
	}
	if len(vPost.Segments()) >= len(vPre.Segments()) {
		t.Fatalf("post-compaction view has %d segments, pre had %d", len(vPost.Segments()), len(vPre.Segments()))
	}

	// The merged layout checkpoints and recovers cleanly.
	if err := ls.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := ls.Close(); err != nil {
		t.Fatal(err)
	}
	ls2, err := OpenLive(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ls2.Close()
	if got := rowsOf(t, ls2.View()); !sameRows(got, wantRows) {
		t.Fatal("recovered store after compaction+checkpoint diverges")
	}
}

// TestCompactIdempotentAndBounded: a second Compact with the same bound
// finds nothing; an unmergeable bound is a no-op.
func TestCompactIdempotentAndBounded(t *testing.T) {
	ls, err := OpenLive(t.TempDir(), LiveConfig{SealRows: 50, CheckpointRows: -1, Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()
	for _, rec := range genStream(31, 150) {
		if err := ls.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if n := ls.Compact(1); n != 0 {
		t.Fatalf("Compact(1) merged %d segments", n)
	}
	if n := ls.Compact(0); n != 0 {
		t.Fatalf("Compact(0) merged %d segments", n)
	}
	first := ls.Compact(100000)
	if first == 0 {
		t.Fatal("first Compact merged nothing")
	}
	if again := ls.Compact(100000); again != 0 {
		t.Fatalf("second Compact merged %d more segments", again)
	}
}

// TestViewKeepsSealedEncodings: a view carries the encodings its sealed
// segments' seals and compactions computed — the catalogue's own entries,
// not copies — and none for its open tail, and it validates. Asked for
// every segment's encoding, it encodes the tail alone: the run's entries
// keep their storage, and the tail's equals a fresh encoding of its rows.
func TestViewKeepsSealedEncodings(t *testing.T) {
	ls, err := OpenLive(t.TempDir(), LiveConfig{SealRows: 50, CheckpointRows: -1, Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()
	for _, rec := range genStream(5, 120) {
		if err := ls.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	for _, compact := range []bool{false, true} {
		if compact && ls.Compact(1000) == 0 {
			t.Fatal("Compact merged nothing")
		}
		v := ls.View()
		sealed, run := ls.SealedSegments(), v.SegmentEncodings()
		if len(run) != sealed || len(v.Segments()) != sealed+1 || sealed < 2 {
			t.Fatalf("compacted %v: %d encodings, %d segments, %d sealed", compact, len(run), len(v.Segments()), sealed)
		}
		for i := range run {
			if &run[i] != &ls.encs[i] {
				t.Fatalf("compacted %v: the view's encoding %d is a copy", compact, i)
			}
		}
		if err := v.Validate(); err != nil {
			t.Fatalf("compacted %v: %v", compact, err)
		}
		all := v.encodings()
		if len(all) != sealed+1 {
			t.Fatalf("compacted %v: %d encodings filled for %d segments", compact, len(all), sealed+1)
		}
		for i := range run {
			if p, q := all[i].Start.Packed, run[i].Start.Packed; len(p) == 0 || &p[0] != &q[0] {
				t.Fatalf("compacted %v: sealed segment %d was encoded again", compact, i)
			}
		}
		tail := v.Segments()[sealed]
		rows := v.span(tail.RowLo, tail.RowHi)
		if !slices.EqualFunc(encBlocks(all[sealed:]), encBlocks([]SegmentEnc{encodeSegmentColumns(&rows)}), bytes.Equal) {
			t.Fatalf("compacted %v: the tail's filled encoding differs from a fresh one", compact)
		}
	}
}

func BenchmarkLiveView(b *testing.B) { benchLiveView(b, 1) }

// BenchmarkLiveViewSparseBatches is BenchmarkLiveView over about 52,000
// batch IDs — the 0.02 log has 51,497 — every 52nd holding rows: a
// refresh must cost the same whatever the batch-ID count.
func BenchmarkLiveViewSparseBatches(b *testing.B) { benchLiveView(b, 52) }

// benchLiveView appends 1,000 batches of 64 rows, stride batch IDs apart,
// then times append-and-view rounds.
func benchLiveView(b *testing.B, stride uint32) {
	ls, err := OpenLive(b.TempDir(), LiveConfig{SealRows: 1 << 14, CheckpointRows: -1, Sync: wal.SyncNone})
	if err != nil {
		b.Fatal(err)
	}
	defer ls.Close()
	rows := make([]model.Instance, 64)
	batch := uint32(0)
	fill := func() {
		for i := range rows {
			rows[i] = model.Instance{Batch: batch, TaskType: uint32(i % 5), Item: uint32(i), Worker: uint32(i % 50),
				Start: 1_700_000_000 + int64(i), End: 1_700_000_000 + int64(i) + 60, Trust: 0.5, Answer: uint32(i % 3)}
		}
		batch += stride
	}
	for k := 0; k < 1000; k++ {
		fill()
		if err := ls.Append(rows); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Alternate append and view: the refresh path with a small delta,
		// the shape a serving daemon sees.
		fill()
		if err := ls.Append(rows); err != nil {
			b.Fatal(err)
		}
		if v := ls.View(); v.Len() == 0 {
			b.Fatal("empty view")
		}
	}
}
