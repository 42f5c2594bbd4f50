package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"crowdscope/internal/model"
	"crowdscope/internal/query"
	"crowdscope/internal/store"
	"crowdscope/internal/synth"
)

// Fixed inputs. Every value that would otherwise follow the host
// (GOMAXPROCS defaults in synth, store and query) is pinned here, so the
// log is the same bytes in the same physical layout anywhere. The log's
// own seed is fixed too: row counts swing by 18% between synth seeds,
// which would put the data's size, not the code's speed, into every
// run-to-run spread. --seed drives the traffic: which texts, parameters,
// mix order and ingest payloads a run sends.
const (
	datasetSeed    = 1701
	genParallelism = 16 // synth.Config.Parallelism: fixes the store at 16 segments
	engineWorkers  = 2  // GOMAXPROCS, query Workers, codec Workers
	datasetShards  = 8
	planCacheSize  = 128 // crowdserved's default, which the hot text set must fit
)

// scale is the log's synth scale: 752,830 rows. It is not a setting — a
// record does not say what scale it ran at, so every run must use this
// one. Only the smoke test, which compares nothing, shrinks it.
var scale = 0.02

// class is a query template. The point classes (P*) touch a few
// segments through zone-map pruning; the scan classes (S*) read every row.
type class int

const (
	P1 class = iota
	P2
	P3
	S1
	S2
	S5
	S3
	S4
	numClasses
)

var classNames = [numClasses]string{"P1", "P2", "P3", "S1", "S2", "S5", "S3", "S4"}

// hotMix is serve-hot's traffic mix by count. Each client walks shuffled
// 100-op cycles holding exactly these counts, so the mix is exact over
// every cycle and throughput does not depend on luck.
//
// ingestMix is the mix of serve-ingest's one reader. It asks more point
// queries because query_p99_ms needs ten P1 samples beyond the percentile,
// 1,000 in all, and one closed-loop client beside 20,000 ingested rows/s
// finishes ~760 P1 in 15 s on hotMix and ~1,300 on this one; the scan
// classes still take two thirds of the reader's time.
var (
	hotMix    = [numClasses]int{P1: 50, P2: 15, P3: 10, S1: 10, S2: 5, S5: 5, S3: 3, S4: 2}
	ingestMix = [numClasses]int{P1: 70, P2: 8, P3: 6, S1: 8, S2: 2, S5: 2, S3: 2, S4: 2}
)

// hotTexts is how many distinct texts per class serve-hot cycles through:
// 48 in all, which fits the 128-entry plan cache.
var hotTexts = [numClasses]int{P1: 20, P2: 10, P3: 8, S1: 6, S2: 1, S5: 1, S3: 1, S4: 1}

func (c class) isPoint() bool { return c <= P3 }

// s4Text is the join template. s4IngestText is what serve-ingest sends in
// its place: the side tables are built once at start-up, auto-batch ingest
// mints batch IDs past them, and from the first such row on the planner
// rejects every batch.* join with a 400 — so under ingest only the worker
// join can be asked for.
const (
	s4Text       = "where worker.class == super and (batch.sampled == true or duration >= 600) | group tasktype, worker.country | value trust"
	s4IngestText = "where worker.class == super and duration >= 600 | group tasktype, worker.country | value trust"
)

// queryText is one drawn query with the parameters its naive twin needs.
type queryText struct {
	Class  class
	Text   string
	Worker uint32 // P1
	Week   int32  // P1, P2: first week of the window
	Batch  uint32 // P3
	MinDur int64  // S1
}

// inputs is the generated dataset and the domains traffic parameters are
// drawn from.
type inputs struct {
	cfg synth.Config
	ds  *synth.Dataset
	st  *store.Store

	workers   []uint32 // distinct worker IDs, busiest first (Zipf rank order)
	durations []int64  // sorted sample of row durations, for quantile thresholds
	maxEnd    int64

	generateTime time.Duration
}

// generate builds the dataset and checks the layout is the pinned one.
func generate() (*inputs, error) {
	in := &inputs{cfg: synth.Config{Seed: datasetSeed, Scale: scale, Parallelism: genParallelism}}
	start := time.Now()
	in.ds = synth.Generate(in.cfg)
	in.generateTime = time.Since(start)
	in.st = in.ds.Store
	if n := len(in.st.Segments()); n != genParallelism {
		return nil, fmt.Errorf("generated store has %d segments, want %d: layout followed the host", n, genParallelism)
	}
	return in, nil
}

// index derives the parameter domains from the generated rows. It is
// load-generator preparation, not part of the system's set-up time.
func (in *inputs) index() {
	st := in.st
	type wr struct {
		id   uint32
		rows int
	}
	var ws []wr
	st.EachWorker(func(id uint32, rows []int32) { ws = append(ws, wr{id, len(rows)}) })
	sort.Slice(ws, func(i, j int) bool {
		if ws[i].rows != ws[j].rows {
			return ws[i].rows > ws[j].rows
		}
		return ws[i].id < ws[j].id
	})
	in.workers = make([]uint32, len(ws))
	for i, w := range ws {
		in.workers[i] = w.id
	}
	starts, ends := st.Starts(), st.Ends()
	step := len(starts)/20000 + 1
	for i, s := range starts {
		in.maxEnd = max(in.maxEnd, ends[i])
		if i%step == 0 {
			in.durations = append(in.durations, ends[i]-s)
		}
	}
	sort.Slice(in.durations, func(i, j int) bool { return in.durations[i] < in.durations[j] })
}

// durationAt is the q-quantile of row durations, so an S1 threshold has
// the same selectivity on every seed.
func (in *inputs) durationAt(q float64) int64 {
	return in.durations[int(q*float64(len(in.durations)-1))]
}

// drawAt builds one query of class c whose parameters come from position
// pos in [0,1) of the class's domain: for the point classes the row at
// that fraction of the log (its worker, its week, its batch — so also the
// segments the query will touch), for S1 the duration quantile. Point
// queries built this way always have rows to find.
func (in *inputs) drawAt(c class, pos float64, r *rand.Rand) queryText {
	q := queryText{Class: c}
	row := int(pos * float64(in.st.Len()))
	switch c {
	case P1:
		q.Worker = in.st.Workers()[row]
		q.Week = max(model.WeekOfUnix(in.st.Starts()[row])-int32(r.Intn(4)), 0)
		q.Text = fmt.Sprintf("where worker == %d and start in [week:%d, week:%d) | group week | value duration | p50", q.Worker, q.Week, q.Week+4)
	case P2:
		q.Week = model.WeekOfUnix(in.st.Starts()[row])
		q.Text = fmt.Sprintf("where start in [week:%d, week:%d)", q.Week, q.Week+1)
	case P3:
		q.Batch = in.st.Batches()[row]
		q.Text = fmt.Sprintf("where batch == %d | group tasktype | value trust", q.Batch)
	case S1:
		q.MinDur = in.durationAt(0.1 + 0.8*pos)
		q.Text = fmt.Sprintf("where duration >= %d | group tasktype | value trust", q.MinDur)
	case S2:
		q.Text = "group week | distinct worker"
	case S5:
		q.Text = "group batch"
	case S3:
		q.Text = "group worker | value duration | p50"
	case S4:
		q.Text = s4Text
	}
	return q
}

// draw builds one query of class c from the full domain, as serve-ingest's
// reader asks them: the worker Zipf-distributed over the busiest-first
// rank order (busy workers are asked about more, as on a dashboard) with a
// window around a week that worker was active in; weeks, batches and
// duration quantiles uniform.
func (in *inputs) draw(c class, r *rand.Rand, zipf *rand.Zipf) queryText {
	pos := r.Float64()
	if c == P1 {
		rows := in.st.WorkerRows(in.workers[zipf.Uint64()])
		pos = float64(rows[r.Intn(len(rows))]) / float64(in.st.Len())
	}
	return in.drawAt(c, pos, r)
}

func (in *inputs) newZipf(r *rand.Rand) *rand.Zipf {
	return rand.NewZipf(r, 1.1, 1, uint64(len(in.workers)-1))
}

// fixedSet returns the n distinct texts of class c that a workload
// cycling through a small set uses: one from each of n equal slices of
// the domain, shuffled by the run's seed. The texts themselves are part
// of the fixed inputs, like the log — drawn with the log's seed, not the
// run's. Texts of one class differ five-fold in cost (a window that falls
// inside one 250k-row segment against one that straddles two, a
// super-worker against an occasional one), so a median over twenty drawn
// per run moved ±15% with the draw alone and would have drowned every
// bound. serve-ingest's reader, which draws thousands, takes all of its
// parameters from the run's seed.
func (in *inputs) fixedSet(c class, n int, shuffle *rand.Rand) []queryText {
	r := rand.New(rand.NewSource(datasetSeed + int64(c)))
	var out []queryText
	seen := map[string]bool{}
	for i := 0; i < n; i++ {
		for tries := 0; tries < 100; tries++ {
			q := in.drawAt(c, (float64(i)+r.Float64())/float64(n), r)
			if !seen[q.Text] {
				seen[q.Text] = true
				out = append(out, q)
				break
			}
		}
	}
	shuffle.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// hotSet draws serve-hot's fixed text set: hotTexts[c] distinct texts
// per class.
func (in *inputs) hotSet(r *rand.Rand) [numClasses][]queryText {
	var set [numClasses][]queryText
	for c := class(0); c < numClasses; c++ {
		set[c] = in.fixedSet(c, hotTexts[c], r)
	}
	return set
}

// cycle returns one shuffled 100-op class sequence holding the mix.
func cycle(r *rand.Rand, mix [numClasses]int) []class {
	seq := make([]class, 0, 100)
	for c := class(0); c < numClasses; c++ {
		for i := 0; i < mix[c]; i++ {
			seq = append(seq, c)
		}
	}
	r.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	return seq
}

// compile parses a text the way crowdserved's handler does and pins the
// scan fan-out.
func compile(text string, tabs *query.SideTables) (query.Query, error) {
	q, err := query.ParseQuery(text)
	if err != nil {
		return q, err
	}
	q.Workers = engineWorkers
	if q.NeedsTables() {
		q.Tables = tabs
	}
	return q, nil
}
