package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"crowdscope/internal/query"
	"crowdscope/internal/store"
)

const (
	coldPrunedTexts = 8
	coldWideTexts   = 6
)

// writeDataset writes st as the benchmark's 8-shard dataset under dir and
// returns the manifest path.
func writeDataset(dir string, st *store.Store) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "log.crow")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	_, err = st.WriteDataset(f, datasetShards, "log", func(name string) (io.WriteCloser, error) {
		return os.Create(filepath.Join(dir, name))
	}, store.WriteOptions{Workers: engineWorkers})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}

// coldRun is one cold-dataset run.
type coldRun struct {
	o     options
	in    *inputs
	path  string // manifest
	dir   string
	bytes int64 // all dataset files
	m     metricSet
	fails failures

	texts [2][]refQuery // pruned, wide
	reads struct{ calls, bytes atomic.Int64 }
}

var coldKinds = [2]string{"pruned", "wide"}

func runCold(o options) (*outcome, error) {
	r := &coldRun{o: o, m: metricSet{}}
	if err := r.setUp(); err != nil {
		return nil, err
	}
	if err := r.prepare(); err != nil {
		return nil, err
	}
	// One unmeasured op of each kind brings the files into the page cache.
	r.op(0, nil, 0)
	r.op(1, nil, 0)

	base := r.pass(o.seconds, nil)
	r.m.set("ops_per_s", base.opsPerSec)
	r.m.setMillis("query_p50_ms", base.lat[0].median())
	r.m.setMillis("scan_p50_ms", base.lat[1].median())
	r.m.set("bytes_per_row", float64(r.bytes)/float64(r.in.st.Len()))
	base.mem.report(r.m, base.ops)
	for k, kind := range coldKinds {
		fmt.Fprintf(o.log, "  %-6s %s\n", kind, base.lat[k].describe())
	}

	if o.trace {
		tr := newTracer()
		traced := r.pass(o.seconds, tr)
		r.m.set("trace.overhead_frac", 1-traced.opsPerSec/base.opsPerSec)
		if err := r.layers(traced); err != nil {
			return nil, err
		}
		if err := tr.finish(o); err != nil {
			return nil, err
		}
	}
	r.m.set("failed_frac", float64(r.fails.count())/float64(base.ops+2))
	return &outcome{attempted: base.ops + 2, failed: r.fails.count(), metrics: r.m, fails: &r.fails}, nil
}

// setUp generates the log, writes it as an 8-shard dataset and opens the
// dataset to query-readiness (manifest plus every shard's footer).
func (r *coldRun) setUp() error {
	var times, gen, write samples
	for round := 0; round < cheapSetupRounds(); round++ {
		start := time.Now()
		in, err := generate()
		if err != nil {
			return err
		}
		dir := filepath.Join(r.o.tmp, fmt.Sprintf("dataset-%d", round))
		t := time.Now()
		path, err := writeDataset(dir, in.st)
		if err != nil {
			return err
		}
		write = append(write, time.Since(t))
		d, err := store.OpenDatasetPath(path)
		if err != nil {
			return err
		}
		for i := 0; i < d.NumShards(); i++ {
			if _, err := d.Shard(i); err != nil {
				d.Close()
				return err
			}
		}
		if err := d.Close(); err != nil {
			return err
		}
		times = append(times, time.Since(start))
		gen = append(gen, in.generateTime)
		r.in, r.dir, r.path = in, dir, path
	}
	var err error
	if r.bytes, err = dirBytes(r.dir); err != nil {
		return err
	}
	r.m.setSeconds("setup_s", times.median())
	r.m.setSeconds("synth.generate_s", gen.median())
	r.m.setSeconds("store.write_dataset_s", write.median())
	fmt.Fprintf(r.o.log, "set-up: %d rows in %d shards, %d bytes, median of %v\n",
		r.in.st.Len(), datasetShards, r.bytes, times)
	return nil
}

// prepare draws the query texts and computes the answers the dataset
// path must reproduce, by running the same query on the in-memory store.
func (r *coldRun) prepare() error {
	r.in.index()
	rng := rand.New(rand.NewSource(int64(r.o.seed)))
	var err error
	if r.texts[0], err = r.in.referenced(P2, coldPrunedTexts, rng); err != nil {
		return err
	}
	r.texts[1], err = r.in.referenced(S1, coldWideTexts, rng)
	return err
}

// openDataset reads the manifest and opens the dataset over counting
// shard readers, as a fresh process would.
func (r *coldRun) openDataset() (*store.Dataset, error) {
	f, err := os.Open(r.path)
	if err != nil {
		return nil, err
	}
	man, _, err := store.ReadManifest(f)
	f.Close()
	if err != nil {
		return nil, err
	}
	return store.OpenDataset(man, func(name string) (io.ReaderAt, int64, error) {
		sf, err := os.Open(filepath.Join(r.dir, name))
		if err != nil {
			return nil, 0, err
		}
		st, err := sf.Stat()
		if err != nil {
			sf.Close()
			return nil, 0, err
		}
		return countingReaderAt{ra: sf, calls: &r.reads.calls, bytes: &r.reads.bytes}, st.Size(), nil
	})
}

// coldOp is what one open-run-close observed.
type coldOp struct {
	total, open, run time.Duration
	stats            query.Stats
	readCalls        int64
	readBytes        int64
}

// op performs operation i of the given kind (0 pruned, 1 wide) and checks
// its result against the in-memory answer.
func (r *coldRun) op(kind int, tr *tracer, i int) coldOp {
	cq := r.texts[kind][i%len(r.texts[kind])]
	name := "op." + coldKinds[kind]
	req := uint64(i)
	calls, bytes := r.reads.calls.Load(), r.reads.bytes.Load()
	var o coldOp
	var d *store.Dataset
	var res *query.Result
	var err error
	start := time.Now()
	o.open = tr.in("store.dataset_open", name, req, 0, func() { d, err = r.openDataset() })
	if err == nil {
		o.run = tr.in("query.dataset_run", name, req, 0, func() {
			res, err = query.RunDatasetContext(context.Background(), d, cq.q, query.DatasetOptions{})
		})
		tr.in("store.dataset_close", name, req, 0, func() {
			if cerr := d.Close(); err == nil {
				err = cerr
			}
		})
	}
	o.total = time.Since(start)
	tr.add(span{Name: name, Req: req, Start: tr.at(start), Dur: o.total})
	o.readCalls, o.readBytes = r.reads.calls.Load()-calls, r.reads.bytes.Load()-bytes
	if err == nil {
		err = sameResult(res, cq.want)
		o.stats = res.Stats
	}
	if err != nil {
		r.fails.add("%s %q: %v", coldKinds[kind], cq.text, err)
	}
	return o
}

type coldPass struct {
	lat       [2]samples
	ops       int
	opsPerSec float64
	detail    [2][]coldOp
	mem       memDelta
}

// pass alternates pruned and wide operations on one goroutine for the
// given time.
func (r *coldRun) pass(seconds float64, tr *tracer) *coldPass {
	p := &coldPass{}
	p.mem.begin()
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	failed := r.fails.count()
	for i := 0; i < 2 || time.Now().Before(deadline); i++ { // one of each kind at least
		kind := i % 2
		o := r.op(kind, tr, i/2)
		p.ops++
		if n := r.fails.count(); n != failed {
			failed = n
			continue
		}
		p.lat[kind] = append(p.lat[kind], o.total)
		p.detail[kind] = append(p.detail[kind], o)
	}
	p.opsPerSec = float64(p.ops) / time.Since(start).Seconds()
	p.mem.end()
	return p
}

// layers fills the per-layer metrics from the traced pass and from
// direct calls into the dataset reader.
func (r *coldRun) layers(p *coldPass) error {
	m := r.m
	var open samples
	var bytes, calls []float64
	var opened, pruned int
	for k := range coldKinds {
		var run samples
		for _, o := range p.detail[k] {
			run = append(run, o.run)
			open = append(open, o.open)
			if k == 0 {
				bytes = append(bytes, float64(o.readBytes))
				calls = append(calls, float64(o.readCalls))
				opened += o.stats.ShardsOpened
				pruned += o.stats.ShardsPruned
			}
		}
		m.setSeconds("query.dataset_run_s."+coldKinds[k], run.median())
	}
	m.setSeconds("store.dataset_open_s", open.median())
	m.set("store.read_bytes.pruned", medianF(bytes))
	m.set("store.read_calls.pruned", medianF(calls))
	frac := medianF(bytes) / float64(r.bytes)
	m.set("store.read_frac.pruned", frac)
	if frac >= 0.25 {
		r.fails.add("a pruned query read %.0f%% of the dataset's bytes; shard and column pruning should keep it under 25%%", 100*frac)
	}
	if opened+pruned > 0 {
		m.set("query.shards_pruned_frac", float64(pruned)/float64(opened+pruned))
	}

	// EnsureColumns directly: every column of every shard, per shard.
	d, err := r.openDataset()
	if err != nil {
		return err
	}
	var ensure samples
	for i := 0; i < d.NumShards(); i++ {
		sh, err := d.Shard(i)
		if err != nil {
			d.Close()
			return err
		}
		t := time.Now()
		if err := sh.EnsureColumns(store.ColSetAll); err != nil {
			d.Close()
			return err
		}
		ensure = append(ensure, time.Since(t))
	}
	if err := d.Close(); err != nil {
		return err
	}
	m.setSeconds("store.ensure_columns_s", ensure.median())

	// The wide query at one scan goroutine against two.
	var by [3]samples
	cq := r.texts[1][0]
	for rep := 0; rep < 5; rep++ {
		for _, workers := range []int{1, 2} {
			q := cq.q
			q.Workers = workers
			d, err := r.openDataset()
			if err != nil {
				return err
			}
			t := time.Now()
			_, err = query.RunDatasetContext(context.Background(), d, q, query.DatasetOptions{})
			by[workers] = append(by[workers], time.Since(t))
			d.Close()
			if err != nil {
				return err
			}
		}
	}
	m.set("query.dataset_speedup_2", by[1].median().Seconds()/by[2].median().Seconds())
	return nil
}
