//go:build ignore

// trajectory reduces one `bash bench/run.sh suite RUNS PARENT` to a
// committed BENCH_pr<N>.json, and prints the series over every committed
// one. Run it through scripts/trajectory.sh from the repository root.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// endToEnd lists the gated metrics and whether a higher value is better;
// BENCHMARK.json declares the same five.
var endToEnd = []struct {
	name   string
	higher bool
}{{"setup_s", false}, {"ops_per_s", true}, {"query_p50_ms", false}, {"scan_p50_ms", false}, {"bytes_per_row", false}}

// record is one line of results.jsonl / parent.jsonl.
type record struct {
	Workload   string   `json:"workload"`
	Seed       int      `json:"seed"`
	Trace      bool     `json:"trace"`
	HostCPUs   int      `json:"host_cpus"`
	GoMaxProcs int      `json:"gomaxprocs"`
	GoVersion  string   `json:"go_version"`
	Commit     string   `json:"commit"`
	Unmeasured []string `json:"unmeasured"`
	Result     struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	} `json:"result"`
}

// cell is one workload × end-to-end metric of a BENCH file. Deltas are
// (change − parent) / parent in percent; won and lost count the seeds on
// which the change read better or worse than the parent's run of that seed.
type cell struct {
	Unit           string   `json:"unit"`
	ParentMedian   float64  `json:"parent_median"`
	ChangeMedian   float64  `json:"change_median"`
	ParentIQR      *float64 `json:"parent_iqr"`
	PairedDeltaPct *float64 `json:"paired_delta_pct"`
	Won            *int     `json:"won"`
	Lost           *int     `json:"lost"`
}

type benchFile struct {
	PR          int    `json:"pr"`
	Title       string `json:"title"`
	Transcribed bool   `json:"transcribed"`
	Host        struct {
		CPUs       int    `json:"host_cpus"`
		GoMaxProcs int    `json:"gomaxprocs"`
		GoVersion  string `json:"go_version"`
	} `json:"host"`
	Parent    string                     `json:"parent"`
	Change    string                     `json:"change"`
	Pairs     int                        `json:"pairs"`
	Failed    map[string]int             `json:"failed_operations"`
	Incorrect map[string]int             `json:"incorrect_results"`
	Workloads map[string]map[string]cell `json:"workloads"`
	// Traced holds single traced samples (seed 1) of the per-layer
	// metrics: workload → metric → side → value. Reported, never gated.
	Traced map[string]map[string]map[string]float64 `json:"traced,omitempty"`
	// LOC is scripts/loc.sh on both trees: package → [non-test, test].
	LOC map[string]map[string][2]int `json:"loc,omitempty"`
	// GoBench is `go test -bench` on both trees: benchmark → side → the
	// per-op figures' medians over the runs given.
	GoBench map[string]map[string]map[string]float64 `json:"go_bench,omitempty"`
	Notes   string                                   `json:"notes,omitempty"`
}

func readRecords(path string) []record {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			fatal(fmt.Errorf("%s: %w", path, err))
		}
		out = append(out, r)
	}
	return out
}

func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(sorted)-1)
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// loc runs scripts/loc.sh in root.
func loc(root string) map[string][2]int {
	cmd := exec.Command("sh", "scripts/loc.sh")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		fatal(fmt.Errorf("scripts/loc.sh in %s: %w", root, err))
	}
	res := map[string][2]int{}
	for _, line := range strings.Split(string(out), "\n")[1:] {
		var pkg string
		var code, test int
		if n, _ := fmt.Sscan(line, &pkg, &code, &test); n == 3 {
			res[pkg] = [2]int{code, test}
		}
	}
	return res
}

var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(-\d+)?\s+\d+\s+(.*)$`)

// goBench parses `go test -bench` output into benchmark → unit → median.
func goBench(path string) map[string]map[string]float64 {
	data, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	runs := map[string]map[string][]float64{}
	for _, line := range strings.Split(string(data), "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		fields := strings.Fields(m[3])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			if runs[m[1]] == nil {
				runs[m[1]] = map[string][]float64{}
			}
			runs[m[1]][fields[i+1]] = append(runs[m[1]][fields[i+1]], v)
		}
	}
	out := map[string]map[string]float64{}
	for name, units := range runs {
		out[name] = map[string]float64{}
		for unit, vals := range units {
			out[name][unit] = median(vals)
		}
	}
	return out
}

func reduce(args []string) {
	fs := flag.NewFlagSet("reduce", flag.ExitOnError)
	pr := fs.Int("pr", 0, "PR number")
	title := fs.String("title", "", "one-line title")
	results := fs.String("results", "bench/out/results.jsonl", "the change's records")
	parent := fs.String("parent", "bench/out/parent.jsonl", "the parent's records")
	parentRoot := fs.String("parent-root", "", "parent checkout, for scripts/loc.sh")
	benchBefore := fs.String("bench-before", "", "`go test -bench` output at the parent")
	benchAfter := fs.String("bench-after", "", "`go test -bench` output at the change")
	notes := fs.String("notes", "", "free text")
	change := fs.String("change", "", "what to call the change, when its records carry the parent's commit (an uncommitted tree)")
	fs.Parse(args)
	if *pr == 0 {
		fatal(fmt.Errorf("reduce: -pr is required"))
	}
	b := benchFile{PR: *pr, Title: *title, Notes: *notes,
		Failed: map[string]int{}, Incorrect: map[string]int{},
		Workloads: map[string]map[string]cell{}, Traced: map[string]map[string]map[string]float64{}}
	// side → workload → seed → record, untraced runs only.
	runs := map[string]map[string]map[int]record{"parent": {}, "change": {}}
	for side, path := range map[string]string{"parent": *parent, "change": *results} {
		for _, r := range readRecords(path) {
			if side == "change" {
				b.Change, b.Host.CPUs, b.Host.GoMaxProcs, b.Host.GoVersion = r.Commit, r.HostCPUs, r.GoMaxProcs, r.GoVersion
			} else {
				b.Parent = r.Commit
			}
			if r.Trace {
				skip := map[string]bool{}
				for _, name := range r.Unmeasured {
					skip[name] = true
				}
				for name, m := range r.Result.Metrics {
					if skip[name] {
						continue
					}
					if b.Traced[r.Workload] == nil {
						b.Traced[r.Workload] = map[string]map[string]float64{}
					}
					if b.Traced[r.Workload][name] == nil {
						b.Traced[r.Workload][name] = map[string]float64{}
					}
					b.Traced[r.Workload][name][side] = m.Value
				}
				continue
			}
			if runs[side][r.Workload] == nil {
				runs[side][r.Workload] = map[int]record{}
			}
			runs[side][r.Workload][r.Seed] = r
			b.Failed[side] += r.Result.Failed
			if !r.Result.Correct {
				b.Incorrect[side]++
			}
		}
	}
	for w, changeRuns := range runs["change"] {
		b.Workloads[w] = map[string]cell{}
		for _, m := range endToEnd {
			var pv, cv, deltas []float64
			won, lost := 0, 0
			c := cell{}
			for seed, cr := range changeRuns {
				par, ok := runs["parent"][w][seed]
				if !ok {
					continue
				}
				p, v := par.Result.Metrics[m.name].Value, cr.Result.Metrics[m.name].Value
				c.Unit = cr.Result.Metrics[m.name].Unit
				pv, cv = append(pv, p), append(cv, v)
				if p != 0 {
					deltas = append(deltas, 100*(v-p)/p)
				}
				if better := (v > p) == m.higher; v != p && better {
					won++
				} else if v != p {
					lost++
				}
			}
			if len(pv) == 0 {
				continue
			}
			b.Pairs = max(b.Pairs, len(pv))
			sort.Float64s(pv)
			iqr, paired := quantile(pv, 0.75)-quantile(pv, 0.25), median(deltas)
			c.ParentMedian, c.ChangeMedian = quantile(pv, 0.5), median(cv)
			c.ParentIQR, c.PairedDeltaPct, c.Won, c.Lost = &iqr, &paired, &won, &lost
			b.Workloads[w][m.name] = c
		}
	}
	if *change != "" {
		b.Change = *change
	}
	if *parentRoot != "" {
		b.LOC = map[string]map[string][2]int{"parent": loc(*parentRoot), "change": loc(".")}
	}
	if *benchBefore != "" && *benchAfter != "" {
		before, after := goBench(*benchBefore), goBench(*benchAfter)
		b.GoBench = map[string]map[string]map[string]float64{}
		for name := range after {
			b.GoBench[name] = map[string]map[string]float64{"parent": before[name], "change": after[name]}
		}
	}
	out, err := json.MarshalIndent(b, "", " ")
	if err != nil {
		fatal(err)
	}
	path := fmt.Sprintf("BENCH_pr%d.json", *pr)
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Println("wrote", path)
}

// printSeries lists every committed BENCH_pr*.json: per PR and workload,
// each end-to-end metric as parent → change medians (paired delta, pairs
// won–lost).
func printSeries() {
	paths, _ := filepath.Glob("BENCH_pr*.json")
	var files []benchFile
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			fatal(err)
		}
		var b benchFile
		if err := json.Unmarshal(data, &b); err != nil {
			fatal(fmt.Errorf("%s: %w", p, err))
		}
		files = append(files, b)
	}
	sort.Slice(files, func(i, j int) bool { return files[i].PR < files[j].PR })
	for _, b := range files {
		tag := ""
		if b.Transcribed {
			tag = " (transcribed from CHANGES.md)"
		}
		fmt.Printf("PR %d%s — %s\n  %s → %s, %d pairs, %d CPUs, GOMAXPROCS %d, %s\n", b.PR, tag, b.Title,
			b.Parent, b.Change, b.Pairs, b.Host.CPUs, b.Host.GoMaxProcs, b.Host.GoVersion)
		workloads := make([]string, 0, len(b.Workloads))
		for w := range b.Workloads {
			workloads = append(workloads, w)
		}
		sort.Strings(workloads)
		for _, w := range workloads {
			fmt.Printf("  %-13s", w)
			for _, m := range endToEnd {
				c, ok := b.Workloads[w][m.name]
				if !ok {
					continue
				}
				fmt.Printf(" %s %.4g→%.4g", m.name, c.ParentMedian, c.ChangeMedian)
				switch {
				case c.PairedDeltaPct != nil && c.Won != nil && c.Lost != nil:
					fmt.Printf(" (%+.1f%%, %d–%d)", *c.PairedDeltaPct, *c.Won, *c.Lost)
				case c.Won != nil && c.Lost != nil:
					fmt.Printf(" (%d–%d)", *c.Won, *c.Lost)
				}
			}
			fmt.Println()
		}
		if tot, ok := b.LOC["change"]["total"]; ok {
			fmt.Printf("  non-test lines cmd/+internal/: %d → %d\n", b.LOC["parent"]["total"][0], tot[0])
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "trajectory:", err)
	os.Exit(1)
}

func main() {
	if len(os.Args) < 2 {
		fatal(fmt.Errorf("usage: trajectory reduce -pr N [flags] | trajectory print"))
	}
	switch os.Args[1] {
	case "reduce":
		reduce(os.Args[2:])
	case "print":
		printSeries()
	default:
		fatal(fmt.Errorf("unknown command %q", os.Args[1]))
	}
}
