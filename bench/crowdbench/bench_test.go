package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	var s samples
	for i := 1; i <= 1000; i++ {
		s = append(s, time.Duration(i)*time.Millisecond)
	}
	// 1000 samples: exactly ten lie beyond the 99th percentile.
	if v, ok := s.percentile(0.99); !ok || v != 990*time.Millisecond {
		t.Fatalf("p99 of 1..1000 ms = %v, %v; want 990ms, true", v, ok)
	}
	// One fewer and the tail is not supported.
	if v, ok := s[:999].percentile(0.99); ok || v != 0 {
		t.Fatalf("p99 of 999 samples = %v, %v; want unsupported", v, ok)
	}
	if _, ok := s.percentile(0.999); ok {
		t.Fatal("p99.9 of 1000 samples has one sample beyond it and must not be reported")
	}
	if got := s.median(); got != 500500*time.Microsecond {
		t.Fatalf("median = %v", got)
	}
	if got := (samples{}).median(); got != 0 {
		t.Fatalf("median of nothing = %v", got)
	}
	if strings.Contains(s[:50].describe(), "p99") {
		t.Fatalf("describe printed a tail 50 samples cannot support: %s", s[:50].describe())
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Fatalf("quartiles of two = %v, %v; want 0.75, 2.25", q1, q3)
	}
	if got := spread([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}); got != 1 {
		t.Fatalf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

// The open loop must keep its schedule while a reply stalls, hand each
// operation its due time, and report how late each send left.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const interval = 2 * time.Millisecond
	const stall = 40 * time.Millisecond
	start := time.Now().Add(5 * time.Millisecond)
	var mu sync.Mutex
	due := make(map[int]time.Time)
	began := make(map[int]time.Time)
	late, sent, refused := openLoop(start, interval, 20, 64, nil, func(i int, d time.Time) {
		mu.Lock()
		due[i], began[i] = d, time.Now()
		mu.Unlock()
		if i == 3 {
			time.Sleep(stall)
		}
	})
	if sent != 20 || refused != 0 || len(late) != 20 {
		t.Fatalf("sent %d refused %d late %d; want 20, 0, 20", sent, refused, len(late))
	}
	for i := 0; i < 20; i++ {
		if want := start.Add(time.Duration(i) * interval); !due[i].Equal(want) {
			t.Fatalf("operation %d was told it was due at %v, schedule says %v", i, due[i], want)
		}
		if began[i].Before(due[i]) {
			t.Fatalf("operation %d left %v before it was due", i, due[i].Sub(began[i]))
		}
	}
	// Operation 3 stalls for 40 ms; 4..19 are due within the next 32 ms and
	// must all have left before it returned.
	if behind := began[19].Sub(due[19]); behind > stall/2 {
		t.Fatalf("operation 19 left %v late: the stalled reply held the schedule back", behind)
	}
	for i, l := range late {
		if l < 0 {
			t.Fatalf("lateness %d is negative: %v", i, l)
		}
	}
}

func TestOpenLoopRefusesPastInflightCap(t *testing.T) {
	release := make(chan struct{})
	var ran atomic.Int64
	done := make(chan struct{})
	var sent, refused int
	go func() {
		_, sent, refused = openLoop(time.Now(), time.Millisecond, 10, 2, nil, func(int, time.Time) {
			ran.Add(1)
			<-release
		})
		close(done)
	}()
	time.Sleep(30 * time.Millisecond)
	close(release)
	<-done
	if sent != 2 || refused != 8 || ran.Load() != 2 {
		t.Fatalf("sent %d refused %d ran %d; want 2, 8, 2", sent, refused, ran.Load())
	}
}

func TestCountingFSIsExact(t *testing.T) {
	dir := t.TempDir()
	fs := newCountingFS()
	w, err := fs.Create(filepath.Join(dir, "ckpt-00000001.crow.tmp"))
	if err != nil {
		t.Fatal(err)
	}
	w.Write(make([]byte, 1000))
	w.Write(make([]byte, 24))
	w.Sync()
	w.Close()
	before := fs.snapshot()
	if before.writeCalls != 2 || before.writeBytes != 1024 || before.syncs != 1 || before.ckptFiles != 1 || before.ckptBytes != 1024 {
		t.Fatalf("after the checkpoint file: %+v", before)
	}
	w, err = fs.Create(filepath.Join(dir, "wal-1.log"))
	if err != nil {
		t.Fatal(err)
	}
	w.Write(make([]byte, 10))
	w.Sync()
	w.Close()
	a, err := fs.OpenAppend(filepath.Join(dir, "wal-1.log"))
	if err != nil {
		t.Fatal(err)
	}
	a.Write(make([]byte, 5))
	a.Close()
	fs.SyncDir(dir)
	d := fs.snapshot().since(before)
	if d.writeCalls != 2 || d.writeBytes != 15 || d.syncs != 2 || d.ckptFiles != 0 || d.ckptBytes != 0 || len(d.syncTimes) != 2 {
		t.Fatalf("delta after the log writes: %+v", d)
	}
	if info, err := os.Stat(filepath.Join(dir, "wal-1.log")); err != nil || info.Size() != 15 {
		t.Fatalf("the counted writes did not reach the file: %v %v", info, err)
	}
}

func TestCountingReaderAtIsExact(t *testing.T) {
	var calls, n atomic.Int64
	r := countingReaderAt{ra: bytes.NewReader(make([]byte, 100)), calls: &calls, bytes: &n}
	buf := make([]byte, 40)
	r.ReadAt(buf, 0)
	r.ReadAt(buf, 80) // short read: 20 bytes
	if calls.Load() != 2 || n.Load() != 60 {
		t.Fatalf("calls %d bytes %d; want 2, 60", calls.Load(), n.Load())
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSelfTimeTakesOutChildren(t *testing.T) {
	spans := []span{
		{Name: "client.P1", Req: 1, Dur: 100},
		{Name: "serve.handler.P1", Parent: "client.P1", Req: 1, Dur: 80},
		{Name: "lang.parse", Parent: "serve.handler.P1", Req: 1, Dur: 10},
		{Name: "query.run", Parent: "serve.handler.P1", Req: 1, Dur: 50},
		{Name: "client.P1", Req: 2, Dur: 30}, // another request: no children
	}
	self := selfTimes(spans)
	if got := self["client.P1"]; len(got) != 2 || got[0] != 20 || got[1] != 30 {
		t.Fatalf("client self times %v; want [20 30]", got)
	}
	if got := self["serve.handler.P1"]; len(got) != 1 || got[0] != 20 {
		t.Fatalf("handler self time %v; want [20]", got)
	}
	if got := self["query.run"]; got[0] != 50 {
		t.Fatalf("leaf self time %v; want its duration", got)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "query_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(v []float64, f float64) []float64 {
		out := make([]float64, len(v))
		for i := range v {
			out[i] = v[i] * f
		}
		return out
	}
	noisy := []float64{60, 140, 100, 70, 130, 100, 80, 120, 90, 110}
	cases := []struct {
		name string
		d    metricDef
		a, b []float64
		want verdict
	}{
		{"same", lower, steady, steady, verdictOK},
		{"within bound", lower, steady, scale(steady, 1.05), verdictOK},
		{"slower", lower, steady, scale(steady, 1.2), verdictRegression},
		{"faster", lower, steady, scale(steady, 0.8), verdictImproved},
		{"less throughput", higher, steady, scale(steady, 0.8), verdictRegression},
		{"more throughput", higher, steady, scale(steady, 1.2), verdictImproved},
		{"noisy parent", lower, noisy, steady, verdictUnresolved},
		{"noisy but every run worse", lower, noisy, scale(steady, 2), verdictRegression},
		{"noisy but every run better", lower, noisy, scale(steady, 0.3), verdictImproved},
	}
	for _, c := range cases {
		if got, _, _, _ := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

// Runs of equal seed are taken back to back, so a drift that moves both
// sides by a fifth between seeds still leaves a 3% change visible in the
// pairs, whatever order the records are in.
func TestPairedCancelsDrift(t *testing.T) {
	d := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.25}
	var a, b []run
	for seed, drift := range []float64{1, 1.2, 0.9, 1.1, 0.8, 1.15} {
		a = append(a, run{uint64(seed), 100 * drift})
		b = append([]run{{uint64(seed), 97 * drift}}, b...)
	}
	b = append(b, run{99, 500}) // no partner: not a pair
	won, lost, delta := paired(d, a, b)
	if won != 0 || lost != 6 || math.Abs(delta-0.03) > 1e-9 {
		t.Fatalf("won %d lost %d delta %v; want 0, 6, 0.03", won, lost, delta)
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	// write records four seeds of each workload named; edit may change a
	// record before it is written or return false to leave it out.
	write := func(name string, names []string, edit func(*record) bool) string {
		path := filepath.Join(dir, name)
		for _, w := range names {
			for seed := uint64(1); seed <= 4; seed++ {
				r := record{Workload: w, Seed: seed, Seconds: 15, Result: result{Correct: true, Attempted: 100, Metrics: map[string]metricValue{}}}
				for _, d := range endToEnd {
					r.Result.Metrics[d.Name] = metricValue{Value: 100 + float64(seed), Unit: d.Unit}
				}
				if edit != nil && !edit(&r) {
					continue
				}
				if err := r.appendTo(path); err != nil {
					t.Fatal(err)
				}
			}
		}
		return path
	}
	both := []string{"serve-hot", "cold-dataset"}
	a := write("a.jsonl", both, nil)
	cases := []struct {
		name, b string
		code    int
		prints  string
	}{
		{"same", write("same.jsonl", both, nil), 0, "ok"},
		{"slower", write("slow.jsonl", both, func(r *record) bool {
			m := r.Result.Metrics["query_p50_ms"]
			m.Value *= 1.5
			r.Result.Metrics["query_p50_ms"] = m
			return true
		}), 1, "REGRESSION"},
		{"a workload crashed on its second run", write("cut.jsonl", both, func(r *record) bool {
			return r.Workload != "cold-dataset" || r.Seed < 2
		}), 2, "MISSING"},
		{"a workload never ran", write("half.jsonl", both[:1], nil), 2, "MISSING"},
		{"a failed operation", write("failed.jsonl", both, func(r *record) bool {
			if r.Seed == 3 {
				r.Result.Correct, r.Result.Failed = false, 1
			}
			return true
		}), 1, "REGRESSION"},
		{"another run length", write("long.jsonl", both, func(r *record) bool { r.Seconds = 30; return true }), 2, ""},
		{"no such file", filepath.Join(dir, "none.jsonl"), 2, ""},
	}
	for _, c := range cases {
		var out, errb bytes.Buffer
		if code := compareFiles(&out, &errb, a, c.b); code != c.code || !strings.Contains(out.String(), c.prints) {
			t.Errorf("%s: exit %d, want %d and %q in\n%s%s", c.name, code, c.code, c.prints, out.String(), errb.String())
		}
	}
	// Failed operations in the parent's records make it no baseline.
	var out, errb bytes.Buffer
	if code := compareFiles(&out, &errb, cases[4].b, a); code != 2 {
		t.Errorf("failing parent: exit %d, want 2\n%s", code, out.String())
	}
}

// benchmarkJSON is BENCHMARK.json as the driver reads it.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// The committed BENCHMARK.json must say what this program emits, within
// the limits the driver enforces before it makes a single run.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Fatalf("BENCHMARK.json is %d bytes, limit 64 KiB", len(data))
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the driver", len(b.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	unique := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("name %q is malformed or used twice", name)
		}
		seen[name] = true
	}
	for i, w := range b.Workloads {
		unique(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %q %q, driver has %q %q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(endToEnd) > 16 {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the driver (limit 16)", len(b.EndToEnd), len(endToEnd))
	}
	setup := false
	for i, m := range b.EndToEnd {
		unique(m.Name)
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, driver has %+v", i, m, d)
		}
		if !unitRE.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end[%d] %s: unit %q or bound %v out of limits", i, m.Name, m.Unit, m.Bound)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			setup = true
		}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(b.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the driver (limit 128)", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		unique(m.Name)
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || !unitRE.MatchString(m.Unit) {
			t.Errorf("per_layer[%d] = %+v, driver has %+v", i, m, d)
		}
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d out of 1..60", b.RunSeconds)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", b.Paths)
	}
}

// Every workload, small and short, must pass its own output checks and
// emit exactly the metric list of its mode, with every metric the mode
// gates or the workload exists for measured. -short leaves the traced
// runs out.
func TestWorkloadsSmoke(t *testing.T) {
	setupRounds, scale = 1, 0.001
	t.Cleanup(func() { setupRounds, scale = 3, 0.02 })
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			if trace == "1" && testing.Short() {
				continue
			}
			t.Run(w.name+"/trace"+trace, func(t *testing.T) {
				var out, errb bytes.Buffer
				code := realMain([]string{"--workload", w.name, "--seed", "7", "--seconds", "0.2",
					"--trace", trace, "--out", t.TempDir()}, &out, &errb)
				if code != 0 {
					t.Fatalf("exit %d\n%s%s", code, out.String(), errb.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, lines[len(lines)-1])
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct %v attempted %d failed %d\n%s", res.Correct, res.Attempted, res.Failed, out.String())
				}
				defs := endToEnd
				if trace == "1" {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Fatalf("%d metrics, the mode's list has %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("metric %s: %+v (present %v), want unit %s", d.Name, m, ok, d.Unit)
					}
					if trace == "0" && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v", d.Name, m.Value)
					}
				}
				if trace == "1" {
					for _, name := range append([]string{"proc.peak_rss_mb", "synth.generate_s", "trace.overhead_frac"}, smokeMeasures[w.name]...) {
						if res.Metrics[name].Value == 0 {
							t.Errorf("layer metric %s was not measured", name)
						}
					}
					// What the run took no reading of is named, not just 0.
					_, unmeasured, _ := strings.Cut(out.String(), "not measured on this workload")
					if idle := map[string]string{"serve-hot": "ingest_ack_p50_ms", "repro-batch": "serve.handler_s.point"}[w.name]; !strings.Contains(unmeasured, idle) {
						t.Errorf("%q is not reported as unmeasured", idle)
					}
				}
			})
		}
	}
}

// smokeMeasures names, per workload, layer metrics of the layers it was
// chosen for; a short run must take a reading of each. (The tails need a
// thousand samples and a full-length run.)
var smokeMeasures = map[string][]string{
	"serve-hot":    {"serve.handler_s.point", "serve.handler_s.scan", "serve.transport_s", "lang.parse_s", "query.plan_hit_s", "query.run_s.point", "query.plan_cache_hit_ratio", "recover_s", "store.view_s"},
	"serve-ingest": {"ingest_ack_p50_ms", "write_amp", "recover_s", "serve.ingest_handler_s", "store.append_s", "wal.append_sync_s", "vfs.sync_s", "vfs.syncs", "store.checkpoint_s", "store.compact_s", "store.view_s", "query.plan_cold_s"},
	"cold-dataset": {"query.dataset_run_s.pruned", "query.dataset_run_s.wide", "store.dataset_open_s", "store.ensure_columns_s", "store.read_bytes.pruned", "store.read_frac.pruned", "query.dataset_speedup_2"},
	"repro-batch":  {"repro_s", "core.new_s", "experiments.run_s", "store.write_dataset_s", "store.load_store_s", "store.read_from_s", "metrics.compute_all_s"},
}
