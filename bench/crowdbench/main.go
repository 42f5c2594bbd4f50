// Command crowdbench is the repository's benchmark driver: it runs one
// named workload in this process, checks the outputs it gets back, prints
// every metric by name with its unit, and ends with one JSON line holding
// the result. bench/README.md explains the workloads and metrics;
// bench/run.sh builds and runs it.
//
// Usage:
//
//	crowdbench --workload serve-hot --seed 7 --seconds 15 --trace 0
//	crowdbench -compare a.jsonl b.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// options are one run's settings.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	outDir   string // where trace files and the run's scratch directory go
	tmp      string // scratch directory of this run, removed at exit
	log      io.Writer
}

// outcome is what a workload hands back: the values it measured and how
// many operations it attempted and saw fail (a refused request, a
// non-200 reply or a failed output check all count as failed).
type outcome struct {
	attempted, failed int
	metrics           metricSet
	fails             *failures
}

var workloads = []struct {
	name string
	why  string
	run  func(options) (*outcome, error)
}{
	{"serve-hot", "read path with every cache warm: 2 closed-loop HTTP clients, 48 query texts, no ingest", func(o options) (*outcome, error) { return runServe(o, false) }},
	{"serve-ingest", "writes beside reads: open-loop 400 posts/s of 50 rows and 1 closed-loop reader over >>128 texts", func(o options) (*outcome, error) { return runServe(o, true) }},
	{"cold-dataset", "process-cold path: open an 8-shard dataset, run one pruned or one wide query, close; bypasses serve, wal, plan cache", runCold},
	{"repro-batch", "what a paper reproducer waits for: generate, analyse, every experiment, write and strict-reload the dataset", runRepro},
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("crowdbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload to run: serve-hot, serve-ingest, cold-dataset or repro-batch")
	fs.Uint64Var(&o.seed, "seed", 1701, "seed of the generated dataset and of the traffic")
	fs.Float64Var(&o.seconds, "seconds", 15, "length of the measured pass")
	trace := fs.Int("trace", 0, "1 adds a traced pass and prints the per-layer metrics instead of the end-to-end ones")
	fs.StringVar(&o.outDir, "out", filepath.Join("bench", "out"), "directory for trace files and scratch data")
	record := fs.String("record", "", "append this run's record (result plus host metadata) to this JSON-lines file")
	compare := fs.Bool("compare", false, "compare two record files: crowdbench -compare a.jsonl b.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "crowdbench: -compare takes two record files")
			return 2
		}
		return compareFiles(stdout, stderr, fs.Arg(0), fs.Arg(1))
	}
	o.trace = *trace != 0
	o.log = stdout

	var run func(options) (*outcome, error)
	for _, w := range workloads {
		if w.name == o.workload {
			run = w.run
		}
	}
	if run == nil || o.seconds <= 0 {
		fmt.Fprintf(stderr, "crowdbench: unknown workload %q or non-positive --seconds\n", o.workload)
		return 2
	}

	// The load generator and the system under test share this process and
	// the reference box's two cores.
	runtime.GOMAXPROCS(engineWorkers)

	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "crowdbench: %v\n", err)
		return 1
	}
	tmp, err := os.MkdirTemp(o.outDir, "tmp-")
	if err != nil {
		fmt.Fprintf(stderr, "crowdbench: %v\n", err)
		return 1
	}
	o.tmp = tmp
	out, err := run(o)
	os.RemoveAll(tmp)
	if err != nil {
		fmt.Fprintf(stderr, "crowdbench: %s: %v\n", o.workload, err)
		return 1
	}

	out.metrics.set("proc.peak_rss_mb", peakRSSMB())
	rec, err := newRecord(o, out)
	if err != nil {
		fmt.Fprintf(stderr, "crowdbench: %v\n", err)
		return 1
	}
	rec.print(stdout, out)
	if *record != "" {
		if err := rec.appendTo(*record); err != nil {
			fmt.Fprintf(stderr, "crowdbench: %v\n", err)
			return 1
		}
	}
	line, _ := json.Marshal(rec.Result)
	fmt.Fprintf(stdout, "%s\n", line)
	if !rec.Result.Correct {
		return 1
	}
	return 0
}

// peakRSSMB reads this process's high-water resident set from
// /proc/self/status (0 where there is no such file).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			fmt.Sscan(rest, &kb)
			return kb / 1024
		}
	}
	return 0
}

// metricValue is one metric on the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is a result with what is needed to compare it with another:
// which run it was and on what host.
type record struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	CPUs       int     `json:"host_cpus"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Result     result  `json:"result"`
	// Unmeasured names the metrics that are 0 on the result line because
	// the run took no reading of them, not because the reading was 0.
	Unmeasured []string `json:"unmeasured,omitempty"`
}

// newRecord selects the metric list the mode reports and fails when an
// end-to-end metric is missing or zero: the contract wants each one
// measured on every workload.
func newRecord(o options, out *outcome) (*record, error) {
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	res := result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	var unmeasured []string
	for _, d := range defs {
		v, ok := out.metrics[d.Name]
		if !o.trace && (!ok || v == 0) {
			return nil, fmt.Errorf("%s: end-to-end metric %s was not measured", o.workload, d.Name)
		}
		if !ok {
			unmeasured = append(unmeasured, d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	commit := os.Getenv("CROWDBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return &record{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit, Result: res, Unmeasured: unmeasured,
	}, nil
}

// print writes the human-readable report: every metric of the mode's list
// by name with its unit, then the failures seen.
func (r *record) print(w io.Writer, out *outcome) {
	fmt.Fprintf(w, "\n== %s  seed=%d seconds=%g trace=%v  cpus=%d gomaxprocs=%d %s commit=%s\n",
		r.Workload, r.Seed, r.Seconds, r.Trace, r.CPUs, r.GOMAXPROCS, r.GoVersion, r.Commit)
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		if _, ok := out.metrics[d.Name]; ok {
			fmt.Fprintf(w, "%-38s %16.6g %s\n", d.Name, r.Result.Metrics[d.Name].Value, d.Unit)
		}
	}
	if len(r.Unmeasured) > 0 {
		fmt.Fprintf(w, "not measured on this workload (0 on the result line): %s\n", strings.Join(r.Unmeasured, " "))
	}
	fmt.Fprintf(w, "ops_attempted %d  ops_failed %d  correct %v\n", r.Result.Attempted, r.Result.Failed, r.Result.Correct)
	if out.fails != nil {
		for _, f := range out.fails.first {
			fmt.Fprintf(w, "FAILED: %s\n", f)
		}
	}
}

func (r *record) appendTo(path string) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, _ := json.Marshal(r)
	_, err = f.WriteString(string(line) + "\n")
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// readRecords loads a JSON-lines record file.
func readRecords(path string) ([]record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []record
	for i, line := range strings.Split(string(data), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var r record
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, i+1, err)
		}
		recs = append(recs, r)
	}
	return recs, nil
}
