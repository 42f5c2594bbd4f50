package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"
)

// metricDef is one row of BENCHMARK.json's end_to_end or per_layer list.
// The lists below are the source of truth; TestBenchmarkJSONMatches
// keeps the committed BENCHMARK.json equal to them.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the gated metrics. The driver's contract requires every
// workload to emit every one of them, never as 0, so the list holds only
// what all four workloads measure; the workload-specific end-to-end
// numbers (ingest acks, recovery, write amplification, tails, repro_s)
// are reported ungated at the head of perLayer. README.md gives each
// metric's definition per workload.
//
// The time bounds are the contract's maximum, and the floor its acceptance
// rule leaves: ten back-to-back runs of one commit must spread less than
// the bound, and in the sandbox this was built in, whose speed moves by a
// fifth to a third over minutes, they spread 4-26% (README.md, Baseline).
// compare's paired columns resolve what a bound that wide cannot.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"query_p50_ms", "ms", "lower", 0.25},
	{"scan_p50_ms", "ms", "lower", 0.25},
	{"bytes_per_row", "B/row", "lower", 0.02},
}

// perLayer are reported by the traced run (--trace 1). The contract wants
// every one of them on the result line as a number, so a metric a workload
// did not measure — a layer it does not exercise, or a percentile without
// ten samples beyond it — is 0 there; the report and the record name each
// such metric as unmeasured, so that a 0 is never taken for a reading.
var perLayer = []metricDef{
	// End to end, ungated (taken from the untraced pass of the traced run).
	{"query_p99_ms", "ms", "lower", 0},
	{"scan_p95_ms", "ms", "lower", 0},
	{"ingest_ack_p50_ms", "ms", "lower", 0},
	{"ingest_ack_p99_ms", "ms", "lower", 0},
	{"recover_s", "s", "lower", 0},
	{"write_amp", "ratio", "lower", 0},
	{"repro_s", "s", "lower", 0},
	{"failed_frac", "ratio", "lower", 0},

	{"serve.handler_s.point", "s", "lower", 0},
	{"serve.handler_s.scan", "s", "lower", 0},
	{"serve.transport_s", "s", "lower", 0},
	{"serve.encode_s.scan", "s", "lower", 0},
	{"serve.response_bytes.scan", "B", "lower", 0},
	{"serve.q.P2_p50_ms", "ms", "lower", 0},
	{"serve.q.P3_p50_ms", "ms", "lower", 0},
	{"serve.q.S2_p50_ms", "ms", "lower", 0},
	{"serve.q.S3_p50_ms", "ms", "lower", 0},
	{"serve.q.S4_p50_ms", "ms", "lower", 0},
	{"serve.q.S5_p50_ms", "ms", "lower", 0},
	{"serve.ingest_handler_s", "s", "lower", 0},
	{"serve.shed", "count", "lower", 0},
	{"serve.timeouts", "count", "lower", 0},
	{"serve.queued_max", "count", "lower", 0},
	{"loadgen.late_p99_ms", "ms", "lower", 0},

	{"lang.parse_s", "s", "lower", 0},
	{"query.compile_s", "s", "lower", 0},
	{"query.plan_cold_s", "s", "lower", 0},
	{"query.plan_hit_s", "s", "lower", 0},
	{"query.plan_cache_hit_ratio", "ratio", "higher", 0},
	{"query.run_s.point", "s", "lower", 0},
	{"query.run_s.scan", "s", "lower", 0},
	{"query.rows_scanned_per_match.point", "ratio", "lower", 0},
	{"query.segments_pruned_frac.point", "ratio", "higher", 0},
	{"query.dataset_run_s.pruned", "s", "lower", 0},
	{"query.dataset_run_s.wide", "s", "lower", 0},
	{"query.shards_pruned_frac", "ratio", "higher", 0},
	{"query.dataset_speedup_2", "ratio", "higher", 0},

	{"store.dataset_open_s", "s", "lower", 0},
	{"store.ensure_columns_s", "s", "lower", 0},
	{"store.read_bytes.pruned", "B", "lower", 0},
	{"store.read_calls.pruned", "count", "lower", 0},
	{"store.read_frac.pruned", "ratio", "lower", 0},
	{"store.view_s", "s", "lower", 0},
	{"store.view_copied_rows_per_refresh", "count", "lower", 0},
	{"store.view_rebuilds", "count", "lower", 0},
	{"store.append_s", "s", "lower", 0},
	{"store.checkpoint_s", "s", "lower", 0},
	{"store.checkpoints", "count", "lower", 0},
	{"store.checkpoint_bytes", "B", "lower", 0},
	{"store.live_dir_bytes", "B", "lower", 0},
	{"store.compact_s", "s", "lower", 0},
	{"store.compact_merged", "count", "higher", 0},
	{"store.replayed_rows", "count", "lower", 0},
	{"store.write_dataset_s", "s", "lower", 0},
	{"store.load_store_s", "s", "lower", 0},
	{"store.read_from_s", "s", "lower", 0},
	{"store.read_from_speedup_2", "ratio", "higher", 0},

	{"wal.append_nosync_s", "s", "lower", 0},
	{"wal.append_sync_s", "s", "lower", 0},
	{"vfs.sync_s", "s", "lower", 0},
	{"vfs.syncs", "count", "lower", 0},
	{"vfs.write_calls", "count", "lower", 0},
	{"vfs.write_bytes", "B", "lower", 0},

	{"synth.generate_s", "s", "lower", 0},
	{"synth.inventory_s", "s", "lower", 0},
	{"synth.generate_speedup_2", "ratio", "higher", 0},
	{"core.new_s", "s", "lower", 0},
	{"core.new_speedup_2", "ratio", "higher", 0},
	{"metrics.compute_all_s", "s", "lower", 0},
	{"experiments.run_s", "s", "lower", 0},
	{"experiments.slowest_s", "s", "lower", 0},

	{"proc.allocs_per_op", "count", "lower", 0},
	{"proc.alloc_bytes_per_op", "B", "lower", 0},
	{"proc.gc_pause_ms", "ms", "lower", 0},
	{"proc.peak_rss_mb", "MB", "lower", 0},
	{"trace.overhead_frac", "ratio", "lower", 0},
}

// metricSet collects the values one run measured, by metric name.
type metricSet map[string]float64

func (m metricSet) set(name string, v float64) { m[name] = v }

// setSeconds and setMillis record a duration in the unit the name ends in.
// A duration of 0 is the median of no samples, never a time that was
// taken, so it leaves the metric unmeasured instead of reading as the best
// value there is.
func (m metricSet) setSeconds(name string, d time.Duration) {
	if d > 0 {
		m[name] = d.Seconds()
	}
}

func (m metricSet) setMillis(name string, d time.Duration) {
	if d > 0 {
		m[name] = ms(d)
	}
}

// memDelta is the allocator's and collector's activity over a pass.
type memDelta struct{ before, after runtime.MemStats }

func (d *memDelta) begin() { runtime.ReadMemStats(&d.before) }
func (d *memDelta) end()   { runtime.ReadMemStats(&d.after) }

func (d *memDelta) report(m metricSet, ops int) {
	m.set("proc.allocs_per_op", float64(d.after.Mallocs-d.before.Mallocs)/float64(ops))
	m.set("proc.alloc_bytes_per_op", float64(d.after.TotalAlloc-d.before.TotalAlloc)/float64(ops))
	m.set("proc.gc_pause_ms", float64(d.after.PauseTotalNs-d.before.PauseTotalNs)/1e6)
}

// samples is a set of latencies.
type samples []time.Duration

func (s samples) sorted() samples {
	c := append(samples(nil), s...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	return c
}

// median returns the middle sample (mean of the two middles when even),
// or 0 for an empty set.
func (s samples) median() time.Duration {
	if len(s) == 0 {
		return 0
	}
	c := s.sorted()
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p < 1), and
// ok=false — with value 0 — when fewer than ten samples lie beyond it:
// a tail read off a handful of samples is noise, so it is not reported.
func (s samples) percentile(p float64) (time.Duration, bool) {
	n := len(s)
	rank := int(math.Ceil(p * float64(n)))
	if n == 0 || n-rank < 10 {
		return 0, false
	}
	return s.sorted()[rank-1], true
}

func (s samples) max() time.Duration {
	var m time.Duration
	for _, d := range s {
		if d > m {
			m = d
		}
	}
	return m
}

// describe renders "p50, tail (n=…)" for the printed tables: the tail is
// p99, or p95 when the sample supports no more, or left out.
func (s samples) describe() string {
	if len(s) == 0 {
		return "-"
	}
	out := fmt.Sprintf("p50 %.3fms", ms(s.median()))
	if v, ok := s.percentile(0.99); ok {
		out += fmt.Sprintf("  p99 %.3fms", ms(v))
	} else if v, ok := s.percentile(0.95); ok {
		out += fmt.Sprintf("  p95 %.3fms", ms(v))
	}
	return out + fmt.Sprintf("  (n=%d)", len(s))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// medianF is the median of plain numbers (0 for none).
func medianF(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(values, n=4) does (the exclusive method), which is
// what the driver judges spreads with. It needs at least two values.
func quartiles(v []float64) (q1, q3 float64) {
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	n := len(c)
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (c[j-1]*float64(4-delta) + c[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, q3 := quartiles(v)
	med := medianF(v)
	if med == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / med)
}
