package main

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"crowdscope/internal/model"
	"crowdscope/internal/query"
	"crowdscope/internal/store"
	"crowdscope/internal/synth"
)

// Traffic constants of the serve workloads; like every run length they
// are the same on any two commits.
const (
	hotClients     = 2
	ingestRate     = 400  // posts per second, open loop
	ingestRows     = 50   // rows per post
	ingestInflight = 2048 // posts outstanding before the generator refuses to send more
	userRowBytes   = 40   // the eight columns of one row, as a client holds them
	sampledPerKind = 24   // requests per class whose stages the traced run replays
)

// setupRounds is how often a serve run sets up; setup_s is the median.
// Only the smoke test lowers it. cold-dataset and repro-batch set up in a
// third of a second, too short to time well three times, and repeat more.
var setupRounds = 3

func cheapSetupRounds() int { return 2*setupRounds + 1 }

// prepared is a query ready to send, with what its reply must look like.
type prepared struct {
	queryText
	url string

	// On the static store a text's reply never changes: the warm-up
	// decodes it and holds it to the reference answer, the measured
	// passes hold every later reply to the warm-up's bytes.
	crc uint32
	n   int
}

// serveRun is one serve-hot or serve-ingest run.
type serveRun struct {
	o      options
	ingest bool
	in     *inputs
	tabs   *query.SideTables
	dir    string
	fs     *countingFS
	ls     *store.LiveStore
	m      metricSet
	fails  failures

	preloadRows int
	hot         [numClasses][]*prepared // serve-hot: the fixed text set
	pool        []*prepared             // serve-ingest: the reader's pre-drawn queries
	ingestT0    int64                   // start time of the first ingested row
	acked       sync.Map                // post index -> true, for the durability check
	attempted   atomic.Int64
}

func runServe(o options, ingest bool) (*outcome, error) {
	r := &serveRun{o: o, ingest: ingest, m: metricSet{}}
	if err := r.setUp(); err != nil {
		return nil, err
	}
	defer func() { r.ls.Close() }()
	r.prepareTraffic()

	srv, err := newServeServer(r.ls, r.tabs)
	if err != nil {
		return nil, err
	}
	s, err := listen(srv, nil)
	if err != nil {
		return nil, err
	}
	r.warmUp(s)
	base := r.pass(s, o.seconds, nil)
	if err := s.unlisten(); err != nil {
		return nil, err
	}
	r.report(base)
	if err := r.recover(); err != nil {
		return nil, err
	}

	if o.trace {
		if ingest {
			// The untraced pass left 20,000 rows/s behind and scans cost by
			// the row: the traced pass gets a store loaded afresh, so that
			// it sends the same traffic to the same rows and the difference
			// between the passes is the tracing.
			if err := srv.Close(); err != nil {
				return nil, err
			}
			r.ls.Close()
			if err := r.openPreloaded("live-traced"); err != nil {
				return nil, err
			}
			if srv, err = newServeServer(r.ls, r.tabs); err != nil {
				return nil, err
			}
		}
		tr := newTracer()
		ts, err := listen(srv, spanMiddleware(tr, 100))
		if err != nil {
			return nil, err
		}
		if ingest {
			r.warmUp(ts)
		}
		traced := r.pass(ts, o.seconds, tr)
		if err := ts.unlisten(); err != nil {
			return nil, err
		}
		r.m.set("trace.overhead_frac", 1-traced.opsPerSec/base.opsPerSec)
		if err := r.layers(tr, traced); err != nil {
			return nil, err
		}
		if err := tr.finish(o); err != nil {
			return nil, err
		}
	}
	// Close drains and takes crowdserved's final checkpoint.
	if err := srv.Close(); err != nil {
		return nil, err
	}
	return &outcome{attempted: int(r.attempted.Load()), failed: r.fails.count(), metrics: r.m, fails: &r.fails}, nil
}

// setUp is what stands between a seed and a server ready for its first
// request: generate the log, build the side tables, load the live
// directory, reopen it as crowdserved would and take the first view. It
// runs setupRounds times; the last round's store is the one measured.
func (r *serveRun) setUp() error {
	var times, gen, inv samples
	for round := 0; round < setupRounds; round++ {
		if r.ls != nil {
			r.ls.Close()
		}
		start := time.Now()
		in, err := generate()
		if err != nil {
			return err
		}
		t := time.Now()
		inventory := synth.Inventory(in.cfg)
		r.tabs = query.NewTables(inventory.Workers, inventory.Batches)
		inv = append(inv, time.Since(t))
		r.in = in
		if err := r.openPreloaded(fmt.Sprintf("live-%d", round)); err != nil {
			return err
		}
		times = append(times, time.Since(start))
		gen = append(gen, in.generateTime)
	}
	r.preloadRows = r.in.st.Len()
	r.m.setSeconds("setup_s", times.median())
	r.m.setSeconds("synth.generate_s", gen.median())
	r.m.setSeconds("synth.inventory_s", inv.median())
	fmt.Fprintf(r.o.log, "set-up: %d rows in %d live segments, median of %v\n",
		r.preloadRows, r.ls.SealedSegments(), times)
	return nil
}

// openPreloaded loads the generated log into a fresh live directory and
// opens it as crowdserved would; it becomes the run's store.
func (r *serveRun) openPreloaded(name string) error {
	dir := filepath.Join(r.o.tmp, name)
	if err := preload(dir, r.in.st); err != nil {
		return err
	}
	fs := newCountingFS()
	ls, err := openLive(dir, fs)
	if err != nil {
		return err
	}
	if got := ls.View().Len(); got != r.in.st.Len() {
		ls.Close()
		return fmt.Errorf("live store holds %d rows after preload, generated %d", got, r.in.st.Len())
	}
	r.dir, r.fs, r.ls = dir, fs, ls
	return nil
}

func queryURL(base, text string) string { return base + "/query?q=" + url.QueryEscape(text) }

// prepareTraffic draws the run's queries from the seed.
func (r *serveRun) prepareTraffic() {
	r.in.index()
	rng := rand.New(rand.NewSource(int64(r.o.seed)))
	if !r.ingest {
		for c, qs := range r.in.hotSet(rng) {
			for _, q := range qs {
				r.hot[c] = append(r.hot[c], &prepared{queryText: q})
			}
		}
		return
	}
	zipf := r.in.newZipf(rng)
	// More cycles than a reader can finish; it wraps around if it does.
	for i := 0; i < 100; i++ {
		for _, c := range cycle(rng, ingestMix) {
			q := r.in.draw(c, rng, zipf)
			if c == S4 {
				q.Text = s4IngestText
			}
			r.pool = append(r.pool, &prepared{queryText: q})
		}
	}
	const week = 7 * 86400
	r.ingestT0 = (r.in.maxEnd/week + 1) * week
}

// ingestBatch builds post i: 50 consecutive generated rows re-timed to
// arrive after everything already in the log, 30 s of log time per post.
func (r *serveRun) ingestBatch(i int) []model.Instance {
	st := r.in.st
	lo := int(uint64(i) * 2654435761 % uint64(st.Len()-ingestRows))
	rows := make([]model.Instance, ingestRows)
	for j := range rows {
		row := st.Row(lo + j)
		d := row.End - row.Start
		row.Start = r.ingestT0 + int64(i)*30 + int64(j)/2
		row.End = row.Start + d
		rows[j] = row
	}
	return rows
}

type wireIngestRow struct {
	Batch    uint32  `json:"batch"`
	TaskType uint32  `json:"tasktype"`
	Item     uint32  `json:"item"`
	Worker   uint32  `json:"worker"`
	Start    int64   `json:"start"`
	End      int64   `json:"end"`
	Trust    float32 `json:"trust"`
	Answer   uint32  `json:"answer"`
}

type wireIngest struct {
	Rows      []wireIngestRow `json:"rows"`
	AutoBatch bool            `json:"auto_batch"`
}

func (r *serveRun) ingestPayload(i int) []byte {
	rows := r.ingestBatch(i)
	req := wireIngest{AutoBatch: true, Rows: make([]wireIngestRow, len(rows))}
	for j, in := range rows {
		req.Rows[j] = wireIngestRow{TaskType: in.TaskType, Item: in.Item, Worker: in.Worker, Start: in.Start, End: in.End, Trust: in.Trust, Answer: in.Answer}
	}
	b, _ := json.Marshal(req)
	return b
}

// rowHash mixes one row's columns, batch aside (the server assigns it);
// sums of it compare row multisets whatever order the posts landed in.
func rowHash(tt, item, worker, answer uint32, start, end int64, trust float32) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range [...]uint64{uint64(tt), uint64(item), uint64(worker), uint64(answer), uint64(start), uint64(end), uint64(math.Float32bits(trust))} {
		h = (h ^ v) * 1099511628211
		h ^= h >> 29
	}
	return h
}

// warmUp sends every text once before anything is timed, so the plan
// cache, the view arena and the connections are in their steady state.
// On serve-hot it is also the full output check: each reply is decoded
// and held to query.Run on the generated store and to the naive twin.
func (r *serveRun) warmUp(s *server) {
	// A server that has been up for a minute has merged the preload's
	// small segments already; do what its compaction ticker would, now,
	// so the segment layout (and with it the view generation, the plan
	// cache and every reply's bytes) is settled before timing starts.
	for r.ls.Compact(compactMaxRows) > 0 {
	}
	hc := newHTTPConn()
	if r.ingest {
		for _, p := range r.pool[:100] {
			r.attempted.Add(1)
			if code, _, err := hc.get(queryURL(s.url, p.Text), ""); err != nil || code != http.StatusOK {
				r.fails.add("warm-up %q: status %d err %v", p.Text, code, err)
			}
		}
		return
	}
	for _, ps := range r.hot {
		for _, p := range ps {
			r.attempted.Add(1)
			code, body, err := hc.get(queryURL(s.url, p.Text), "")
			if err != nil || code != http.StatusOK {
				r.fails.add("warm-up %q: status %d err %v", p.Text, code, err)
				continue
			}
			p.crc, p.n = crc32.ChecksumIEEE(body), len(body)
			var got wireReply
			if err := json.Unmarshal(body, &got); err != nil {
				r.fails.add("warm-up %q: %v", p.Text, err)
				continue
			}
			q, err := compile(p.Text, r.tabs)
			if err != nil {
				r.fails.add("compile %q: %v", p.Text, err)
				continue
			}
			want, err := query.Run(r.in.st, q)
			if err != nil {
				r.fails.add("reference %q: %v", p.Text, err)
				continue
			}
			matched, twin := naiveMatched(r.in.st, p.queryText)
			if err := checkReply(&got, want, matched, twin); err != nil {
				r.fails.add("%q: %v", p.Text, err)
			}
			if got.Rows != r.preloadRows {
				r.fails.add("%q: answered over %d rows, store holds %d", p.Text, got.Rows, r.preloadRows)
			}
		}
	}
}

// check holds one measured reply to what it must be. On the static store
// that is the warm-up's verified bytes; under ingest the answer moves, so
// point replies are decoded and scan replies have their stats read, and
// both must be consistent with the snapshot they say they ran on.
func (r *serveRun) check(p *prepared, code int, body []byte, err error) bool {
	if err != nil || code != http.StatusOK {
		r.fails.add("%q: status %d err %v", p.Text, code, err)
		return false
	}
	if !r.ingest {
		if len(body) != p.n || crc32.ChecksumIEEE(body) != p.crc {
			r.fails.add("%q: reply differs from the verified one", p.Text)
			return false
		}
		return true
	}
	var rows int
	var st query.Stats
	if p.Class.isPoint() {
		var got wireReply
		if err := json.Unmarshal(body, &got); err != nil {
			r.fails.add("%q: %v", p.Text, err)
			return false
		}
		var sum int64
		for _, g := range got.Groups {
			sum += g.Count
		}
		if sum != got.Stats.RowsMatched {
			r.fails.add("%q: group counts sum to %d, rows_matched %d", p.Text, sum, got.Stats.RowsMatched)
			return false
		}
		rows, st = got.Rows, got.Stats
	} else {
		var err error
		if rows, st, err = statsOf(body); err != nil {
			r.fails.add("%q: %v", p.Text, err)
			return false
		}
	}
	unfiltered := p.Class == S2 || p.Class == S3 || p.Class == S5
	if rows < r.preloadRows || st.RowsMatched > int64(rows) || (unfiltered && st.RowsMatched != int64(rows)) {
		r.fails.add("%q: matched %d of a %d-row snapshot (preloaded %d)", p.Text, st.RowsMatched, rows, r.preloadRows)
		return false
	}
	return true
}

// sampled is a traced request whose stages get replayed afterwards.
type sampled struct {
	req  uint64
	p    *prepared // queries
	post int       // ingest posts
}

// servePass is what one measured pass observed.
type servePass struct {
	lat       [numClasses]samples
	s1Bytes   []float64
	ops       int
	opsPerSec float64
	ack, late samples
	posts     int
	ackedRows int
	refused   int
	mem       memDelta
	fs        fsCounts
	stats     [2]serverStats
	queuedMax int64
	sample    [numClasses][]sampled
	posted    []sampled
}

// pass runs the workload's traffic against s for the given time.
func (r *serveRun) pass(s *server, seconds float64, tr *tracer) *servePass {
	p := &servePass{}
	ctl := newHTTPConn()
	fsBefore := r.fs.snapshot()
	p.stats[0], _ = s.stats(ctl)
	p.mem.begin()

	// Each pass listens on its own port.
	for _, ps := range r.hot {
		for _, q := range ps {
			q.url = queryURL(s.url, q.Text)
		}
	}
	for _, q := range r.pool {
		q.url = queryURL(s.url, q.Text)
	}

	var payloads [][]byte
	posts := 0
	if r.ingest {
		posts = int(ingestRate * seconds)
		payloads = make([][]byte, posts)
		for i := range payloads {
			payloads[i] = r.ingestPayload(i)
		}
	}

	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var mu sync.Mutex // guards p's sample sets while readers run

	readers := hotClients
	if r.ingest {
		readers = 1
	}
	for id := 0; id < readers; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			hc := newHTTPConn()
			rng := rand.New(rand.NewSource(int64(r.o.seed)*31 + int64(id)))
			var lat [numClasses]samples
			var s1Bytes []float64
			var sample [numClasses][]sampled
			var seq []class
			var turn [numClasses]int
			ops, poolAt := 0, 0
			begin := time.Now()
			// A reader walks at least one whole cycle of the mix, so that a
			// pass samples every class however short it is (a measured pass
			// walks twenty).
			for ops < 100 || time.Now().Before(deadline) {
				var q *prepared
				if r.ingest {
					q = r.pool[poolAt%len(r.pool)]
					poolAt++
				} else {
					if len(seq) == 0 {
						seq = cycle(rng, hotMix)
					}
					c := seq[0]
					seq = seq[1:]
					q = r.hot[c][(turn[c]*readers+id)%len(r.hot[c])]
					turn[c]++
				}
				req := uint64(id)<<40 | uint64(ops)
				tag := ""
				if tr != nil {
					tag = fmt.Sprintf("%d:%s", req, classNames[q.Class])
				}
				t0 := time.Now()
				code, body, err := hc.get(q.url, tag)
				d := time.Since(t0)
				r.attempted.Add(1)
				if r.check(q, code, body, err) {
					lat[q.Class] = append(lat[q.Class], d)
					if q.Class == S1 {
						s1Bytes = append(s1Bytes, float64(len(body)))
					}
				}
				if tr != nil {
					tr.add(span{Name: "client." + classNames[q.Class], Req: req, Lane: id, Start: t0.Sub(tr.t0), Dur: d})
					if len(sample[q.Class]) < sampledPerKind {
						sample[q.Class] = append(sample[q.Class], sampled{req: req, p: q})
					}
				}
				ops++
			}
			elapsed := time.Since(begin).Seconds()
			mu.Lock()
			for c := range lat {
				p.lat[c] = append(p.lat[c], lat[c]...)
				p.sample[c] = append(p.sample[c], sample[c]...)
			}
			p.s1Bytes = append(p.s1Bytes, s1Bytes...)
			p.ops += ops
			p.opsPerSec += float64(ops) / elapsed
			mu.Unlock()
		}(id)
	}

	if r.ingest {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: ingestInflight}}
			var amu sync.Mutex
			p.late, p.posts, p.refused = openLoop(start, time.Second/ingestRate, posts, ingestInflight, stop, func(i int, due time.Time) {
				req := uint64(1)<<50 | uint64(i)
				tag := ""
				if tr != nil {
					tag = fmt.Sprintf("%d:ingest", req)
				}
				code, err := post(client, s.url+"/ingest", payloads[i], tag)
				d := time.Since(due)
				r.attempted.Add(1)
				if err != nil || code != http.StatusOK {
					r.fails.add("ingest post %d: status %d err %v", i, code, err)
					return
				}
				r.acked.Store(i, true)
				amu.Lock()
				p.ack = append(p.ack, d)
				if tr != nil {
					tr.add(span{Name: "client.ingest", Req: req, Lane: 10, Start: due.Sub(tr.t0), Dur: d})
					if len(p.posted) < sampledPerKind {
						p.posted = append(p.posted, sampled{req: req, post: i})
					}
				}
				amu.Unlock()
			})
			for i := 0; i < p.refused; i++ {
				r.attempted.Add(1)
				r.fails.add("ingest post refused: %d already in flight", ingestInflight)
			}
		}()
	}

	// The queue gauge only shows through /stats; sample it.
	pollDone := make(chan struct{})
	go func() {
		defer close(pollDone)
		hc := newHTTPConn()
		tick := time.NewTicker(200 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if st, err := s.stats(hc); err == nil && st.Queued > p.queuedMax {
					p.queuedMax = st.Queued
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-pollDone

	p.mem.end()
	p.stats[1], _ = s.stats(ctl)
	p.fs = r.fs.snapshot().since(fsBefore)
	p.ackedRows = len(p.ack) * ingestRows
	return p
}

// report turns the untraced pass into metrics.
func (r *serveRun) report(p *servePass) {
	m := r.m
	m.set("ops_per_s", p.opsPerSec)
	m.setMillis("query_p50_ms", p.lat[P1].median())
	m.setMillis("scan_p50_ms", p.lat[S1].median())
	if v, ok := p.lat[P1].percentile(0.99); ok {
		m.setMillis("query_p99_ms", v)
	}
	// S1 gets ~360 samples on serve-hot, so p95 is the highest percentile
	// with ten samples beyond it.
	if v, ok := p.lat[S1].percentile(0.95); ok {
		m.setMillis("scan_p95_ms", v)
	}
	for _, c := range []class{P2, P3, S2, S3, S4, S5} {
		m.setMillis("serve.q."+classNames[c]+"_p50_ms", p.lat[c].median())
	}
	m.set("serve.response_bytes.scan", medianF(p.s1Bytes))
	m.set("failed_frac", float64(r.fails.count())/float64(r.attempted.Load()))

	before, after := p.stats[0], p.stats[1]
	hits, misses := after.PlanCache.Hits-before.PlanCache.Hits, after.PlanCache.Misses-before.PlanCache.Misses
	if hits+misses > 0 {
		m.set("query.plan_cache_hit_ratio", float64(hits)/float64(hits+misses))
	}
	if n := after.View.Refreshes - before.View.Refreshes; n > 0 {
		m.set("store.view_copied_rows_per_refresh", float64(after.View.CopiedRows-before.View.CopiedRows)/float64(n))
	}
	m.set("store.view_rebuilds", float64(after.View.Rebuilds-before.View.Rebuilds))
	m.set("store.compact_merged", float64(after.Compacted-before.Compacted))
	m.set("serve.shed", float64(after.Shed-before.Shed))
	m.set("serve.timeouts", float64(after.Timeouts-before.Timeouts))
	m.set("serve.queued_max", float64(p.queuedMax))

	m.set("vfs.syncs", float64(p.fs.syncs))
	m.set("vfs.write_calls", float64(p.fs.writeCalls))
	m.set("vfs.write_bytes", float64(p.fs.writeBytes))
	m.setSeconds("vfs.sync_s", p.fs.syncTimes.median())
	m.set("store.checkpoints", float64(p.fs.ckptFiles))
	m.set("store.checkpoint_bytes", float64(p.fs.ckptBytes))

	p.mem.report(m, p.ops+len(p.ack))

	fmt.Fprintf(r.o.log, "untraced pass: %d queries, %.1f/s\n", p.ops, p.opsPerSec)
	for c := class(0); c < numClasses; c++ {
		fmt.Fprintf(r.o.log, "  %-3s %s\n", classNames[c], p.lat[c].describe())
	}
	if r.ingest {
		m.setMillis("ingest_ack_p50_ms", p.ack.median())
		if v, ok := p.ack.percentile(0.99); ok {
			m.setMillis("ingest_ack_p99_ms", v)
		}
		if v, ok := p.late.percentile(0.99); ok {
			m.setMillis("loadgen.late_p99_ms", v)
		}
		if p.ackedRows > 0 {
			m.set("write_amp", float64(p.fs.writeBytes)/float64(userRowBytes*p.ackedRows))
		}
		fmt.Fprintf(r.o.log, "  ingest ack %s; %d posts sent, %d refused, generator late by at most %.3fms\n",
			p.ack.describe(), p.posts, p.refused, ms(p.late.max()))
		fmt.Fprintf(r.o.log, "  %d checkpoints, %d segments compacted away, %d view rebuilds\n",
			p.fs.ckptFiles, after.Compacted-before.Compacted, after.View.Rebuilds-before.View.Rebuilds)
	}
}

// recover takes the crash image of the live directory — a file-level copy
// while the store is still open, after the last ack and before any Close
// — and times OpenLive on it: a clean checkpoint on serve-hot, a
// checkpoint plus the WAL suffix under ingest. Every acknowledged row
// must be in the recovered store, and nothing else.
func (r *serveRun) recover() error {
	var times samples
	var size int64
	for round := 0; round < 3; round++ {
		dst := filepath.Join(r.o.tmp, fmt.Sprintf("crash-%d", round))
		n, err := copyDir(r.dir, dst)
		if err != nil {
			return err
		}
		size = n
		start := time.Now()
		ls, err := openLive(dst, nil)
		if err != nil {
			return fmt.Errorf("recover crash image: %w", err)
		}
		times = append(times, time.Since(start))
		if round == 0 {
			r.checkRecovered(ls.View())
		}
		ls.Close()
	}
	r.m.setSeconds("recover_s", times.median())
	r.m.set("store.live_dir_bytes", float64(size))
	r.m.set("bytes_per_row", float64(size)/float64(r.ls.Rows()))
	return nil
}

// checkRecovered compares a recovered store with what was acknowledged:
// the preloaded rows in place, then exactly the acked posts' rows.
func (r *serveRun) checkRecovered(v *store.Store) {
	r.attempted.Add(1)
	var want uint64
	acked := 0
	r.acked.Range(func(k, _ interface{}) bool {
		for _, in := range r.ingestBatch(k.(int)) {
			want += rowHash(in.TaskType, in.Item, in.Worker, in.Answer, in.Start, in.End, in.Trust)
		}
		acked++
		return true
	})
	if got := v.Len(); got != r.preloadRows+acked*ingestRows {
		r.fails.add("recovered %d rows, preloaded %d + acked %d", got, r.preloadRows, acked*ingestRows)
		return
	}
	if live := r.ls.Rows(); live != v.Len() {
		r.fails.add("live store acknowledges %d rows, its crash image recovers %d", live, v.Len())
	}
	tt, item, worker, answer := v.TaskTypes(), v.Items(), v.Workers(), v.Answers()
	starts, ends, trust := v.Starts(), v.Ends(), v.Trusts()
	var got uint64
	for i := r.preloadRows; i < v.Len(); i++ {
		got += rowHash(tt[i], item[i], worker[i], answer[i], starts[i], ends[i], trust[i])
	}
	if got != want {
		r.fails.add("recovered ingest rows differ from the acknowledged ones")
	}
	ref := r.in.st.Starts()
	for _, i := range []int{0, r.preloadRows / 2, r.preloadRows - 1} {
		if starts[i] != ref[i] {
			r.fails.add("recovered row %d differs from the preloaded one", i)
		}
	}
	// A final count over the live store must see the same rows.
	q, _ := compile("where batch >= 0", nil)
	res, err := query.Run(r.ls.View(), q)
	if err != nil || res.Stats.RowsMatched != int64(v.Len()) {
		r.fails.add("final count: %v rows matched, want %d (err %v)", res, v.Len(), err)
	}
}
