// End-to-end acceptance for sharded out-of-core datasets: the selective
// I/O budget (a narrow query reads a fraction of the dataset's bytes),
// bit-identity between the dataset engine and the single-snapshot
// engine, and the open/query benchmarks the CI gate pins.
package crowdscope_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"crowdscope/internal/model"
	"crowdscope/internal/query"
	"crowdscope/internal/store"
	"crowdscope/internal/synth"
)

// shardFiles is an in-memory dataset: manifest bytes plus shard files,
// with byte-level read accounting on every open reader.
type shardFiles struct {
	manifest []byte
	files    map[string][]byte

	mu        sync.Mutex
	opened    map[string]bool
	bytesRead atomic.Int64
	reads     []readExtent // every ReadAt since the last reset, under mu
}

// readExtent is one ReadAt against a shard file.
type readExtent struct {
	name    string
	off, hi int64
}

type closingBuffer struct {
	bytes.Buffer
	name string
	fs   *shardFiles
}

func (c *closingBuffer) Close() error {
	c.fs.files[c.name] = append([]byte(nil), c.Buffer.Bytes()...)
	return nil
}

type meteredReaderAt struct {
	r    *bytes.Reader
	name string
	fs   *shardFiles
}

func (m *meteredReaderAt) ReadAt(p []byte, off int64) (int, error) {
	n, err := m.r.ReadAt(p, off)
	m.fs.bytesRead.Add(int64(n))
	m.fs.mu.Lock()
	m.fs.reads = append(m.fs.reads, readExtent{m.name, off, off + int64(n)})
	m.fs.mu.Unlock()
	return n, err
}

func (fs *shardFiles) open(name string) (io.ReaderAt, int64, error) {
	data, ok := fs.files[name]
	if !ok {
		return nil, 0, fmt.Errorf("%s: no such shard", name)
	}
	fs.mu.Lock()
	fs.opened[name] = true
	fs.mu.Unlock()
	return &meteredReaderAt{r: bytes.NewReader(data), name: name, fs: fs}, int64(len(data)), nil
}

func (fs *shardFiles) totalShardBytes() int64 {
	var n int64
	for _, data := range fs.files {
		n += int64(len(data))
	}
	return n
}

func (fs *shardFiles) reset() {
	fs.mu.Lock()
	fs.opened = make(map[string]bool)
	fs.reads = nil
	fs.mu.Unlock()
	fs.bytesRead.Store(0)
}

// readsOverlapping counts the bytes read since the last reset inside any
// of the given extents.
func (fs *shardFiles) readsOverlapping(extents []readExtent) int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var n int64
	for _, r := range fs.reads {
		for _, e := range extents {
			if r.name == e.name {
				n += max(0, min(r.hi, e.hi)-max(r.off, e.off))
			}
		}
	}
	return n
}

// dataset returns a freshly opened Dataset over the in-memory files.
func (fs *shardFiles) dataset(tb testing.TB) *store.Dataset {
	tb.Helper()
	man, _, err := store.ReadManifest(bytes.NewReader(fs.manifest))
	if err != nil {
		tb.Fatalf("ReadManifest: %v", err)
	}
	d, err := store.OpenDataset(man, fs.open)
	if err != nil {
		tb.Fatalf("OpenDataset: %v", err)
	}
	return d
}

var (
	e2eOnce  sync.Once
	e2eStore *store.Store      // the generated 16-segment store
	e2eSnap  []byte            // its single-file snapshot
	e2eFS    *shardFiles       // its 8-shard dataset
	e2eTabs  *query.SideTables // worker/batch attribute tables for joins
)

// e2eSetup builds the shared acceptance fixture once: the scale-0.02
// marketplace with 16 segments, its single-file snapshot, and its
// 8-shard dataset.
func e2eSetup(tb testing.TB) {
	tb.Helper()
	e2eOnce.Do(func() {
		ds := synth.Generate(synth.Config{Seed: 1701, Scale: 0.02, Parallelism: 16})
		e2eStore = ds.Store
		e2eTabs = query.NewTables(ds.Workers, ds.Batches)
		var snap bytes.Buffer
		if _, err := e2eStore.WriteTo(&snap); err != nil {
			panic(err)
		}
		e2eSnap = snap.Bytes()

		fs := &shardFiles{files: make(map[string][]byte), opened: make(map[string]bool)}
		var man bytes.Buffer
		_, err := e2eStore.WriteDataset(&man, 8, "market", func(name string) (io.WriteCloser, error) {
			return &closingBuffer{name: name, fs: fs}, nil
		}, store.WriteOptions{})
		if err != nil {
			panic(err)
		}
		fs.manifest = man.Bytes()
		e2eFS = fs
	})
	e2eFS.reset()
}

// TestDatasetSelectiveReadBudget pins the tentpole's I/O contract: a
// single-column count query over the 8-shard scale-0.02 dataset with a
// one-week window reads less than 25% of the dataset's total bytes, and
// shards excluded by manifest-level zone pruning are never opened.
func TestDatasetSelectiveReadBudget(t *testing.T) {
	e2eSetup(t)
	d := e2eFS.dataset(t)
	weekLo, weekHi := model.DayUnix(7*130), model.DayUnix(7*131)
	res, err := query.Exec(context.Background(), query.Source{Dataset: d}, query.Query{
		Where: []query.Predicate{query.Range(query.ColStart, weekLo, weekHi)},
	}, query.Options{})
	if err != nil {
		t.Fatalf("RunDataset: %v", err)
	}
	var wantWeek int64
	for _, s := range e2eStore.Starts() {
		if s >= weekLo && s < weekHi {
			wantWeek++
		}
	}
	if res.Stats.RowsMatched != wantWeek {
		t.Fatalf("matched %d rows, naive scan %d", res.Stats.RowsMatched, wantWeek)
	}

	total := e2eFS.totalShardBytes()
	read := e2eFS.bytesRead.Load()
	if total == 0 || read == 0 {
		t.Fatalf("degenerate accounting: read %d of %d", read, total)
	}
	if read*4 >= total {
		t.Fatalf("one-week count read %d of %d dataset bytes (%.1f%%), budget is < 25%%",
			read, total, 100*float64(read)/float64(total))
	}
	t.Logf("one-week count read %d of %d dataset bytes (%.1f%%), %d/%d shards opened",
		read, total, 100*float64(read)/float64(total), len(e2eFS.opened), d.NumShards())

	// Time-ranged sharding must let the window prune whole shards, and a
	// pruned shard is never opened.
	if len(e2eFS.opened) >= d.NumShards() {
		t.Fatalf("every shard was opened; manifest pruning is not excluding any of the %d shards", d.NumShards())
	}
}

// startColumnExtents locates every shard's start column in its file:
// whatever EnsureColumns(Start) reads of an already open shard is that
// column, one extent per segment.
func startColumnExtents(tb testing.TB) []readExtent {
	tb.Helper()
	d := e2eFS.dataset(tb)
	shards := make([]*store.Shard, d.NumShards())
	for i := range shards {
		var err error
		if shards[i], err = d.Shard(i); err != nil {
			tb.Fatalf("Shard(%d): %v", i, err)
		}
	}
	e2eFS.reset()
	for i, sh := range shards {
		if err := sh.EnsureColumns(store.ColSetStart); err != nil {
			tb.Fatalf("EnsureColumns(start) on shard %d: %v", i, err)
		}
	}
	extents := append([]readExtent(nil), e2eFS.reads...)
	if len(extents) < len(shards) {
		tb.Fatalf("saw %d start-column reads over %d shards", len(extents), len(shards))
	}
	e2eFS.reset()
	return extents
}

// TestDatasetDurationReadsNoStart pins what task time costs on a cold
// dataset: the wide task-time query (duration predicate, grouped by task
// type, trust aggregated) and its duration aggregate twin read no byte of
// any shard's start column, leave Start unmaterialized on every shard —
// the filter materializes no duration either, the aggregate the duration
// column alone — and still answer bit for bit what the raw in-memory
// store does, for every Workers value. So does the aggregate on a strict
// reload of the snapshot. An end predicate, which needs Start, still
// loads it.
func TestDatasetDurationReadsNoStart(t *testing.T) {
	e2eSetup(t)
	startCols := startColumnExtents(t)

	run := func(text string, workers int) (*store.Dataset, *query.Result, *query.Result) {
		t.Helper()
		q, err := query.ParseQuery(text)
		if err != nil {
			t.Fatal(err)
		}
		q.Workers = workers
		want, err := runQuery(e2eStore, q)
		if err != nil {
			t.Fatalf("%s on the raw store: %v", text, err)
		}
		e2eFS.reset()
		d := e2eFS.dataset(t)
		got, err := query.Exec(context.Background(), query.Source{Dataset: d}, q, query.Options{})
		if err != nil {
			t.Fatalf("%s workers=%d: %v", text, workers, err)
		}
		if len(want.Groups) == 0 || !groupsEqual(got.Groups, want.Groups) || got.Stats.RowsMatched != want.Stats.RowsMatched {
			t.Fatalf("%s workers=%d: dataset groups differ from the raw store's", text, workers)
		}
		return d, got, want
	}

	const aggregate = "where duration >= 300 | group tasktype | value duration"
	for _, c := range []struct {
		text     string
		resident store.ColumnSet // of Start and Duration, on every shard
	}{
		{"where duration >= 300 | group tasktype | value trust", 0},
		{aggregate, store.ColSetDuration},
	} {
		for _, workers := range []int{1, 2, 3, 8} {
			d, got, _ := run(c.text, workers)
			if got.Stats.ShardsOpened != d.NumShards() {
				t.Fatalf("%s workers=%d: %d of %d shards opened", c.text, workers, got.Stats.ShardsOpened, d.NumShards())
			}
			if n := e2eFS.readsOverlapping(startCols); n != 0 {
				t.Fatalf("%s workers=%d: read %d bytes of start columns", c.text, workers, n)
			}
			for i := 0; i < d.NumShards(); i++ {
				sh, err := d.Shard(i)
				if err != nil {
					t.Fatal(err)
				}
				if r := sh.Store().Residency(); r&(store.ColSetStart|store.ColSetDuration) != c.resident {
					t.Fatalf("%s workers=%d shard %d: residency %#x, want %#x of Start and Duration", c.text, workers, i, r, c.resident)
				}
			}
		}
	}

	var twin store.Store
	if _, err := twin.ReadFrom(bytes.NewReader(e2eSnap)); err != nil {
		t.Fatalf("load snapshot twin: %v", err)
	}
	q, err := query.ParseQuery(aggregate)
	if err != nil {
		t.Fatal(err)
	}
	got, err := runQuery(&twin, q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := runQuery(e2eStore, q)
	if err != nil {
		t.Fatal(err)
	}
	if !groupsEqual(got.Groups, want.Groups) {
		t.Fatal("strict reload: groups differ from the raw store's")
	}
	// Task type folds by its runs, so the duration is the one raw column.
	if r := twin.Residency(); r != store.ColSetDuration {
		t.Fatalf("strict reload: residency %#x after %q, want the duration column alone", r, aggregate)
	}

	text := fmt.Sprintf("where end >= %d | group tasktype | value trust", model.DayUnix(7*130))
	run(text, 2)
	if e2eFS.readsOverlapping(startCols) == 0 {
		t.Fatalf("%s: answered without reading a start column", text)
	}
}

// runQuery runs q over st with default options.
func runQuery(st *store.Store, q query.Query) (*query.Result, error) {
	return query.Exec(context.Background(), query.Source{Store: st}, q, query.Options{})
}

// groupsEqual compares result groups bit-exactly (float aggregates via
// their bit patterns, so NaN payloads and signed zeros count too).
func groupsEqual(a, b []query.Group) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Key != y.Key || x.Key2 != y.Key2 || x.Count != y.Count || x.Distinct != y.Distinct {
			return false
		}
		if math.Float64bits(x.Sum) != math.Float64bits(y.Sum) ||
			math.Float64bits(x.Min) != math.Float64bits(y.Min) ||
			math.Float64bits(x.Max) != math.Float64bits(y.Max) ||
			math.Float64bits(x.P50) != math.Float64bits(y.P50) {
			return false
		}
	}
	return true
}

// TestDatasetQueryBitIdentity is the property test the tentpole promises:
// for every Workers value, Exec over the sharded dataset produces
// bit-identical grouped results to Exec over (a) the store assembled from
// the shards and (b) the store loaded from the single-file snapshot twin,
// both with derived granule directories, (c) the generated store, with
// the directories it sealed, and (d) the twin loaded in repair mode, with
// none.
func TestDatasetQueryBitIdentity(t *testing.T) {
	e2eSetup(t)
	weekLo, weekHi := model.DayUnix(7*128), model.DayUnix(7*134)

	var twin, bare store.Store
	if _, err := twin.ReadFrom(bytes.NewReader(e2eSnap)); err != nil {
		t.Fatalf("load snapshot twin: %v", err)
	}
	if _, err := bare.ReadSnapshot(bytes.NewReader(e2eSnap), store.LoadOptions{Mode: store.LoadRepair}); err != nil || bare.Granules() != nil {
		t.Fatalf("load directory-less twin: %v", err)
	}
	assembled, _, err := e2eFS.dataset(t).LoadStore(store.LoadOptions{})
	if err != nil {
		t.Fatalf("assemble dataset: %v", err)
	}

	shapes := []struct {
		name string
		q    query.Query
	}{
		{"count-week-window", query.Query{Where: []query.Predicate{query.Range(query.ColStart, weekLo, weekHi)}}},
		{"group-week-duration-p50", query.Query{
			Where:    []query.Predicate{query.Range(query.ColStart, weekLo, weekHi)},
			GroupBys: []query.GroupBy{query.GroupWeek}, Value: query.ValueDuration, P50: true,
		}},
		{"group-worker-trust", query.Query{
			Where:    []query.Predicate{query.TrustRange(0.5, 1.0)},
			GroupBys: []query.GroupBy{query.GroupWorker}, Value: query.ValueTrust,
		}},
		{"group-tasktype-distinct-worker", query.Query{
			GroupBys: []query.GroupBy{query.GroupTaskType}, Distinct: query.ColWorker,
		}},
		{"group-batch-start", query.Query{
			Where:    []query.Predicate{{Col: query.ColBatch, Lo: 100, Hi: math.MaxUint32}, {Col: query.ColBatch, Lo: 0, Hi: 900}},
			GroupBys: []query.GroupBy{query.GroupBatch}, Value: query.ValueStart,
		}},
	}
	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			var ref *query.Result
			for _, workers := range []int{0, 1, 2, 3, 8} {
				q := shape.q
				q.Workers = workers
				fromDataset, err := query.Exec(context.Background(), query.Source{Dataset: e2eFS.dataset(t)}, q, query.Options{})
				if err != nil {
					t.Fatalf("RunDataset workers=%d: %v", workers, err)
				}
				fromAssembled, err := runQuery(assembled, q)
				if err != nil {
					t.Fatalf("Run(assembled) workers=%d: %v", workers, err)
				}
				fromTwin, err := runQuery(&twin, q)
				if err != nil {
					t.Fatalf("Run(twin) workers=%d: %v", workers, err)
				}
				fromSealed, err := runQuery(e2eStore, q)
				if err != nil {
					t.Fatalf("Run(sealed) workers=%d: %v", workers, err)
				}
				fromBare, err := runQuery(&bare, q)
				if err != nil {
					t.Fatalf("Run(no directory) workers=%d: %v", workers, err)
				}
				for _, pair := range []struct {
					name string
					res  *query.Result
				}{{"assembled", fromAssembled}, {"twin", fromTwin}, {"sealed", fromSealed}, {"no directory", fromBare}} {
					if !groupsEqual(fromDataset.Groups, pair.res.Groups) {
						t.Fatalf("workers=%d: dataset groups differ from %s", workers, pair.name)
					}
					if fromDataset.Stats.RowsMatched != pair.res.Stats.RowsMatched {
						t.Fatalf("workers=%d: matched %d vs %s %d", workers,
							fromDataset.Stats.RowsMatched, pair.name, pair.res.Stats.RowsMatched)
					}
				}
				if ref == nil {
					ref = fromDataset
				} else if !groupsEqual(ref.Groups, fromDataset.Groups) {
					t.Fatalf("workers=%d changed the dataset result", workers)
				}
			}
		})
	}
}

// TestTrustSumChunkOrderIdentity pins the floating-point caveat of the
// §7 merge contract. Sum over trust is a float fold, and float addition
// is not associative, so the exact bits of a trust sum depend on fold
// order. The engine fixes that order — rows fold in row order within
// each ChunkRows chunk, chunk subtotals merge in chunk order — and every
// execution path shares it: Exec over a store, through a planner's
// cache and over the sharded dataset, at every Workers value. A path that folded in a
// different order would still be numerically "correct" to an epsilon;
// this test fails it on Float64bits instead, because reproducibility is
// part of the query contract.
func TestTrustSumChunkOrderIdentity(t *testing.T) {
	e2eSetup(t)
	q, err := query.ParseQuery("where trust >= 0.25 and (tasktype == 2 or trust >= 0.9) | group week | value trust")
	if err != nil {
		t.Fatal(err)
	}
	var twin store.Store
	if _, err := twin.ReadFrom(bytes.NewReader(e2eSnap)); err != nil {
		t.Fatalf("load snapshot twin: %v", err)
	}
	pl := query.NewPlanner(4)
	var ref []query.Group
	for _, workers := range []int{0, 1, 2, 3, 8} {
		q.Workers = workers
		fromRun, err := runQuery(&twin, q)
		if err != nil {
			t.Fatalf("Run workers=%d: %v", workers, err)
		}
		fromPlanner, err := query.Exec(context.Background(), query.Source{Store: &twin}, q, query.Options{Planner: pl})
		if err != nil {
			t.Fatalf("Planner.Run workers=%d: %v", workers, err)
		}
		fromDataset, err := query.Exec(context.Background(), query.Source{Dataset: e2eFS.dataset(t)}, q, query.Options{})
		if err != nil {
			t.Fatalf("RunDataset workers=%d: %v", workers, err)
		}
		if len(fromRun.Groups) == 0 {
			t.Fatal("trust-sum query matched nothing; fixture too small")
		}
		if !groupsEqual(fromRun.Groups, fromPlanner.Groups) {
			t.Fatalf("workers=%d: cached-plan trust sums differ from Run's", workers)
		}
		if !groupsEqual(fromRun.Groups, fromDataset.Groups) {
			t.Fatalf("workers=%d: dataset trust sums differ from Run's", workers)
		}
		if ref == nil {
			ref = fromRun.Groups
		} else if !groupsEqual(ref, fromRun.Groups) {
			t.Fatalf("workers=%d changed the trust-sum bits", workers)
		}
	}
}

// acceptanceQuery is this PR's headline query — inexpressible before the
// language existed: a worker-attribute join, an OR-group mixing a batch
// attribute with the derived duration column, and a two-key group-by.
const acceptanceQuery = "where worker.class == super and (batch.sampled == true or duration >= 600) | group tasktype, worker.country | value trust"

// TestLanguageQueryAcceptance runs acceptanceQuery end to end from its
// text form, on both the snapshot store and the sharded dataset, and
// requires bit-identical grouped results for workers 0, 1, 2 and 8.
func TestLanguageQueryAcceptance(t *testing.T) {
	e2eSetup(t)
	q, err := query.ParseQuery(acceptanceQuery)
	if err != nil {
		t.Fatal(err)
	}
	q.Tables = e2eTabs
	var twin store.Store
	if _, err := twin.ReadFrom(bytes.NewReader(e2eSnap)); err != nil {
		t.Fatalf("load snapshot twin: %v", err)
	}
	var ref []query.Group
	for _, workers := range []int{0, 1, 2, 8} {
		q.Workers = workers
		fromSnap, err := runQuery(&twin, q)
		if err != nil {
			t.Fatalf("Run workers=%d: %v", workers, err)
		}
		fromDataset, err := query.Exec(context.Background(), query.Source{Dataset: e2eFS.dataset(t)}, q, query.Options{})
		if err != nil {
			t.Fatalf("RunDataset workers=%d: %v", workers, err)
		}
		if len(fromSnap.Groups) == 0 {
			t.Fatal("acceptance query matched nothing; fixture too small")
		}
		if !groupsEqual(fromSnap.Groups, fromDataset.Groups) {
			t.Fatalf("workers=%d: dataset result differs from snapshot result", workers)
		}
		if ref == nil {
			ref = fromSnap.Groups
		} else if !groupsEqual(ref, fromSnap.Groups) {
			t.Fatalf("workers=%d changed the result", workers)
		}
	}

	// The plan must show the greedy clause order and zone-map pruning
	// stats; the dataset plan additionally shows shard pruning.
	res, err := query.Exec(context.Background(), query.Source{Store: &twin}, q, query.Options{Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	if pl := res.Plan; len(pl.Order) != 2 || pl.Rows == 0 {
		t.Fatalf("store plan incomplete: %s", pl)
	}
	res, err = query.Exec(context.Background(), query.Source{Dataset: e2eFS.dataset(t)}, q, query.Options{Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	if dpl := res.Plan; dpl.Source != "dataset" || len(dpl.Clauses) != 2 {
		t.Fatalf("dataset plan incomplete: %s", dpl)
	}
}

// BenchmarkDatasetOpen compares bringing a dataset to query-readiness
// (manifest + per-shard footer and metadata validation, no column bytes)
// against strict-loading the equivalent single-file snapshot.
func BenchmarkDatasetOpen(b *testing.B) {
	e2eSetup(b)
	b.Run("dataset", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			d := e2eFS.dataset(b)
			for s := 0; s < d.NumShards(); s++ {
				if _, err := d.Shard(s); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("fullload", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var st store.Store
			if _, err := st.ReadFrom(bytes.NewReader(e2eSnap)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDatasetQuery compares the one-week count end to end: the
// dataset path (open manifest, prune shards, read one column of the
// survivors, scan) against full-snapshot load plus the same query. The
// dataset side re-opens everything per iteration, so the win is
// selective I/O, not caching. `wide` is the other cold query of the
// repo's benchmark (S1 in bench/): no shard prunes, every row's duration
// is filtered and its trust folded by task type — a full cold scan, paid
// for by decoding three columns and not a byte of start. Both report
// rows-scanned/op, the rows of the granules the scan did not prune: a
// count that repeats exactly, run to run.
func BenchmarkDatasetQuery(b *testing.B) {
	e2eSetup(b)
	weekLo, weekHi := model.DayUnix(7*130), model.DayUnix(7*131)
	q := query.Query{Where: []query.Predicate{query.Range(query.ColStart, weekLo, weekHi)}, Workers: 1}
	var want int64
	for _, s := range e2eStore.Starts() {
		if s >= weekLo && s < weekHi {
			want++
		}
	}
	b.Run("dataset", func(b *testing.B) {
		b.ReportAllocs()
		scanned := int64(0)
		for i := 0; i < b.N; i++ {
			res, err := query.Exec(context.Background(), query.Source{Dataset: e2eFS.dataset(b)}, q, query.Options{})
			if err != nil {
				b.Fatal(err)
			}
			if res.Stats.RowsMatched != want {
				b.Fatalf("matched %d, want %d", res.Stats.RowsMatched, want)
			}
			scanned += res.Stats.RowsScanned
		}
		b.ReportMetric(float64(scanned)/float64(b.N), "rows-scanned/op")
	})
	b.Run("wide", func(b *testing.B) {
		wide, err := query.ParseQuery("where duration >= 120 | group tasktype | value trust")
		if err != nil {
			b.Fatal(err)
		}
		wide.Workers = 1
		wantWide, err := runQuery(e2eStore, wide)
		if err != nil {
			b.Fatal(err)
		}
		startCols := startColumnExtents(b)
		scanned := int64(0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := query.Exec(context.Background(), query.Source{Dataset: e2eFS.dataset(b)}, wide, query.Options{})
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Groups) == 0 || !groupsEqual(res.Groups, wantWide.Groups) {
				b.Fatal("groups differ from the raw store's")
			}
			scanned += res.Stats.RowsScanned
		}
		b.StopTimer()
		b.ReportMetric(float64(e2eFS.readsOverlapping(startCols))/float64(b.N), "start-bytes-read/op")
		b.ReportMetric(float64(scanned)/float64(b.N), "rows-scanned/op")
	})
	b.Run("fullload", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var st store.Store
			if _, err := st.ReadFrom(bytes.NewReader(e2eSnap)); err != nil {
				b.Fatal(err)
			}
			res, err := runQuery(&st, q)
			if err != nil {
				b.Fatal(err)
			}
			if res.Stats.RowsMatched != want {
				b.Fatalf("matched %d, want %d", res.Stats.RowsMatched, want)
			}
		}
	})
}

// BenchmarkPlan measures a cold plan of the headline join+OR query on a
// fresh planner: parse nothing (the Query is pre-built), score every
// clause against the store's zone maps, and order them greedily. Planning
// is metadata-only — no column bytes move — so it must stay
// microsecond-scale.
func BenchmarkPlan(b *testing.B) {
	e2eSetup(b)
	q, err := query.ParseQuery(acceptanceQuery)
	if err != nil {
		b.Fatal(err)
	}
	q.Tables = e2eTabs
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := query.NewPlanner(1).Explain(e2eStore, q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanCache measures the same plan served from the planner's
// LRU, keyed by canonical query text. The CI gate pins this at least 2x
// faster than the cold path above.
func BenchmarkPlanCache(b *testing.B) {
	e2eSetup(b)
	q, err := query.ParseQuery(acceptanceQuery)
	if err != nil {
		b.Fatal(err)
	}
	q.Tables = e2eTabs
	pn := query.NewPlanner(8)
	if _, err := pn.Explain(e2eStore, q); err != nil { // warm the cache
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pl, err := pn.Explain(e2eStore, q)
		if err != nil {
			b.Fatal(err)
		}
		if !pl.Cached {
			b.Fatal("plan not served from cache")
		}
	}
}
