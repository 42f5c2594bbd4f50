//go:build ignore

// trajectory reduces one `bash bench/run.sh suite RUNS PARENT` to a
// committed BENCH_pr<N>.json, and prints the series over every committed
// one. Run it through scripts/trajectory.sh from the repository root.
package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
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
		// ProbeNs is the median of ten probe runs taken by reduce: how
		// fast the host ran when the file was written.
		ProbeNs float64 `json:"probe_ns,omitempty"`
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
	// per-op figures' medians over the runs given. When both sides ran a
	// benchmark equally often (the rounds of `ab`), side "paired" holds
	// the k-th runs' comparison on ns/op: median delta in percent, rounds
	// won and lost, and the exact two-sided sign-test p.
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

// quartiles is a copy of quartiles in bench/crowdbench/metrics.go, so a
// parent_iqr here is the spread crowdbench's compare table judges: the
// first and third quartile as Python's statistics.quantiles(values, n=4)
// gives them (the exclusive method). It needs at least two values.
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

// parseBench reads `go test -bench` output into benchmark → unit → the
// figures of each run, in the order they ran.
func parseBench(data []byte) map[string]map[string][]float64 {
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
	return runs
}

func readBench(path string) map[string]map[string][]float64 {
	data, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	return parseBench(data)
}

// medians reduces each benchmark's runs to their median per unit.
func medians(runs map[string]map[string][]float64) map[string]map[string]float64 {
	out := map[string]map[string]float64{}
	for name, units := range runs {
		out[name] = map[string]float64{}
		for unit, vals := range units {
			out[name][unit] = median(vals)
		}
	}
	return out
}

// paired compares runs taken in pairs — parent[k] beside change[k], lower
// better — by the median of the per-pair deltas in percent, the pairs the
// change won and lost (ties count for neither), and the exact two-sided
// sign-test p of that split.
type paired struct {
	deltaPct  float64
	won, lost int
	p         float64
}

func pair(parent, change []float64) paired {
	var r paired
	deltas := make([]float64, 0, len(parent))
	for k := range parent {
		if parent[k] != 0 {
			deltas = append(deltas, 100*(change[k]-parent[k])/parent[k])
		}
		switch {
		case change[k] < parent[k]:
			r.won++
		case change[k] > parent[k]:
			r.lost++
		}
	}
	if len(deltas) > 0 {
		r.deltaPct = median(deltas)
	}
	r.p = signTest(r.won, r.lost)
	return r
}

// signTest is the exact two-sided p of a won–lost split under the null of
// a fair coin: twice the binomial tail of the smaller side, at most 1.
func signTest(won, lost int) float64 {
	n, k := won+lost, min(won, lost)
	tail, c := 0.0, 1.0 // c = C(n, i)
	for i := 0; i <= k; i++ {
		tail += c
		c = c * float64(n-i) / float64(i+1)
	}
	return math.Min(1, 2*tail/math.Pow(2, float64(n)))
}

// probe is the calibration kernel: a fixed-seed sort of 1 Mi int64 values,
// then SHA-256 over a fixed 16 MiB buffer, timed without building its
// inputs. It reads nothing of the repository, so across BENCH files and
// between the rounds of ab it moves only with the host (and the toolchain,
// which go_version records).
//
// FROZEN: every BENCH file's probe_ns was taken with exactly this kernel.
// Changing it breaks comparison with all of them.
func probe() time.Duration {
	vals := make([]int64, 1<<20)
	x := uint64(1701)
	for i := range vals {
		// SplitMix64.
		x += 0x9E3779B97F4A7C15
		z := (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		vals[i] = int64(z ^ (z >> 31))
	}
	buf := make([]byte, 16<<20)
	for i := range buf {
		buf[i] = byte(i * 31)
	}
	start := time.Now()
	slices.Sort(vals)
	sha256.Sum256(buf)
	return time.Since(start)
}

// medianProbe runs probe n times and returns the median in nanoseconds.
func medianProbe(n int) float64 {
	ns := make([]float64, n)
	for i := range ns {
		ns[i] = float64(probe().Nanoseconds())
	}
	return median(ns)
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
			iqr, paired := 0.0, median(deltas)
			if len(pv) >= 2 {
				q1, q3 := quartiles(pv)
				iqr = q3 - q1
			}
			c.ParentMedian, c.ChangeMedian = median(pv), median(cv)
			c.ParentIQR, c.PairedDeltaPct, c.Won, c.Lost = &iqr, &paired, &won, &lost
			b.Workloads[w][m.name] = c
		}
	}
	if *change != "" {
		b.Change = *change
	}
	b.Host.ProbeNs = medianProbe(10)
	if *parentRoot != "" {
		b.LOC = map[string]map[string][2]int{"parent": loc(*parentRoot), "change": loc(".")}
	}
	if *benchBefore != "" && *benchAfter != "" {
		beforeRuns, afterRuns := readBench(*benchBefore), readBench(*benchAfter)
		before, after := medians(beforeRuns), medians(afterRuns)
		b.GoBench = map[string]map[string]map[string]float64{}
		for name := range after {
			b.GoBench[name] = map[string]map[string]float64{"parent": before[name], "change": after[name]}
			if p, c := beforeRuns[name]["ns/op"], afterRuns[name]["ns/op"]; len(p) > 1 && len(p) == len(c) {
				r := pair(p, c)
				b.GoBench[name]["paired"] = map[string]float64{"delta_pct": r.deltaPct, "won": float64(r.won), "lost": float64(r.lost), "p": r.p}
			}
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
		probeNs := "–"
		if b.Host.ProbeNs > 0 {
			probeNs = fmt.Sprintf("%.0f", b.Host.ProbeNs)
		}
		fmt.Printf("PR %d%s — %s\n  %s → %s, %d pairs, %d CPUs, GOMAXPROCS %d, %s, probe_ns %s\n", b.PR, tag, b.Title,
			b.Parent, b.Change, b.Pairs, b.Host.CPUs, b.Host.GoMaxProcs, b.Host.GoVersion, probeNs)
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
		fatal(fmt.Errorf("usage: trajectory reduce -pr N [flags] | trajectory print | trajectory ab -parent REV [flags]"))
	}
	switch os.Args[1] {
	case "reduce":
		reduce(os.Args[2:])
	case "print":
		printSeries()
	case "ab":
		if err := ab(os.Args[2:]); err != nil {
			fatal(err)
		}
	default:
		fatal(fmt.Errorf("unknown command %q", os.Args[1]))
	}
}

// abSide is one tree `ab` measures: its checkout, its test binaries, and
// what each round recorded.
type abSide struct {
	name, root, bin string
	out             bytes.Buffer                    // `go test -bench` output, every round
	rounds          []map[string]map[string]float64 // per round: benchmark → unit → figure
	cpu             []float64                       // per round: the children's user + sys seconds
}

// ab measures the change (the working tree) against a parent revision in
// alternating paired rounds — see trajectory.sh.
func ab(args []string) (err error) {
	fs := flag.NewFlagSet("ab", flag.ExitOnError)
	parent := fs.String("parent", "", "parent revision (required)")
	bench := fs.String("bench", ".", "`-test.bench` regexp")
	pkgs := fs.String("pkgs", ".", "packages to build and run, space-separated")
	rounds := fs.Int("rounds", 10, "rounds; each runs both sides once")
	benchtime := fs.String("benchtime", "", "`-test.benchtime`, when not the default")
	cpus := fs.String("cpu", "", "`-test.cpu` list; each result is named by its CPU count (BenchmarkX@cpu2)")
	out := fs.String("out", "", "directory for ab-parent.txt and ab-change.txt (default: the work directory)")
	fs.Parse(args)
	if *parent == "" {
		return errors.New("ab: -parent is required")
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	work, err := os.MkdirTemp("", "ab-")
	if err != nil {
		return err
	}
	// Without -out the results stay in work, and only they do.
	inWork := *out == ""
	if inWork {
		*out = work
	}
	sides := []*abSide{
		{name: "parent", root: filepath.Join(work, "parent"), bin: filepath.Join(work, "bin-parent")},
		{name: "change", root: ".", bin: filepath.Join(work, "bin-change")},
	}
	if err := run(ctx, ".", "git", "worktree", "add", "--detach", sides[0].root, *parent); err != nil {
		return err
	}
	defer func() {
		if rmErr := run(context.Background(), ".", "git", "worktree", "remove", "--force", sides[0].root); err == nil {
			err = rmErr
		}
		if inWork && err == nil {
			os.RemoveAll(sides[0].bin)
			os.RemoveAll(sides[1].bin)
		} else {
			os.RemoveAll(work)
		}
	}()

	packages := strings.Fields(*pkgs)
	binName := func(pkg string) string {
		name := strings.Trim(strings.ReplaceAll(filepath.Clean(pkg), "/", "_"), "._")
		if name == "" {
			name = "root"
		}
		return name + ".test"
	}
	// -trimpath keeps the checkout's path out of the binaries, so two
	// trees of the same source build the same bytes: an A/A compares
	// identical code layouts.
	for _, side := range sides {
		for _, pkg := range packages {
			if err := run(ctx, side.root, "go", "test", "-c", "-trimpath", "-o", filepath.Join(side.bin, binName(pkg)), pkg); err != nil {
				return err
			}
		}
	}

	testArgs := []string{"-test.run=^$", "-test.bench=" + *bench, "-test.benchmem", "-test.count=1"}
	if *benchtime != "" {
		testArgs = append(testArgs, "-test.benchtime="+*benchtime)
	}
	if *cpus != "" {
		testArgs = append(testArgs, "-test.cpu="+*cpus)
	}
	var probes []float64
	for r := 0; r < *rounds; r++ {
		// Flip which side goes first every round, so neither always runs
		// on the warmer (or the more contended) host.
		order := []*abSide{sides[r%2], sides[1-r%2]}
		for i, side := range order {
			if i == 1 {
				probes = append(probes, float64(probe().Nanoseconds()))
			}
			figures, cpu := map[string]map[string]float64{}, 0.0
			for _, pkg := range packages {
				abs, err := filepath.Abs(filepath.Join(side.bin, binName(pkg)))
				if err != nil {
					return err
				}
				cmd := exec.CommandContext(ctx, abs, testArgs...)
				cmd.Dir = filepath.Join(side.root, pkg)
				var stdout bytes.Buffer
				cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
				if err := cmd.Run(); err != nil {
					return fmt.Errorf("ab: round %d, %s %s: %w", r+1, side.name, pkg, err)
				}
				res := stdout.Bytes()
				if *cpus != "" {
					res = tagCPU(res)
				}
				ru := cmd.ProcessState.SysUsage().(*syscall.Rusage)
				secs := time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
				cpu += secs
				fmt.Fprintf(&side.out, "# round %d %s: user+sys %.3f s\n", r+1, pkg, secs)
				side.out.Write(res)
				for name, units := range parseBench(res) {
					figures[name] = map[string]float64{}
					for unit, vals := range units {
						figures[name][unit] = vals[len(vals)-1]
					}
				}
			}
			side.rounds, side.cpu = append(side.rounds, figures), append(side.cpu, cpu)
		}
		fmt.Fprintf(os.Stderr, "ab: round %d of %d done\n", r+1, *rounds)
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	for _, side := range sides {
		path := filepath.Join(*out, "ab-"+side.name+".txt")
		if err := os.WriteFile(path, side.out.Bytes(), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", path)
	}
	printAB(sides[0], sides[1])
	fmt.Printf("%-48s %12.0fns (median of %d, one between the sides of each round)\n", "(probe)", median(probes), len(probes))
	return nil
}

// cpuSuffix matches a result line's name and its CPU-count suffix.
var cpuSuffix = regexp.MustCompile(`(?m)^(Benchmark\S+?)(-(\d+))?(\s+\d+\s)`)

// tagCPU names every result line of a -test.cpu run by its CPU count —
// BenchmarkX-2 becomes BenchmarkX@cpu2-2, a 1-CPU run's BenchmarkX
// becomes BenchmarkX@cpu1 — so the counts stay apart once parseBench
// drops the suffix.
func tagCPU(out []byte) []byte {
	return cpuSuffix.ReplaceAllFunc(out, func(line []byte) []byte {
		m := cpuSuffix.FindSubmatch(line)
		procs := m[3]
		if len(procs) == 0 {
			procs = []byte("1")
		}
		return slices.Concat(m[1], []byte("@cpu"), procs, m[2], m[4])
	})
}

// printAB prints, per benchmark, both sides' medians and the paired
// comparison of ns/op (B/op and allocs/op as medians), then the same for
// the rounds' process CPU seconds.
func printAB(p, c *abSide) {
	var names []string
	for name := range c.rounds[0] {
		if _, ok := p.rounds[0][name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	fmt.Printf("%-48s %13s %13s %8s %7s %8s %19s %15s\n", "benchmark", "parent ns/op", "change ns/op", "delta", "won-lost", "p", "B/op", "allocs/op")
	series := func(side *abSide, name, unit string) []float64 {
		var vals []float64
		for _, figs := range side.rounds {
			vals = append(vals, figs[name][unit])
		}
		return vals
	}
	for _, name := range names {
		pn, cn := series(p, name, "ns/op"), series(c, name, "ns/op")
		r := pair(pn, cn)
		fmt.Printf("%-48s %13.0f %13.0f %+7.1f%% %4d-%-3d %8.4f %9.0f→%-9.0f %7.0f→%-7.0f\n", name, median(pn), median(cn), r.deltaPct, r.won, r.lost, r.p,
			median(series(p, name, "B/op")), median(series(c, name, "B/op")), median(series(p, name, "allocs/op")), median(series(c, name, "allocs/op")))
	}
	r := pair(p.cpu, c.cpu)
	fmt.Printf("%-48s %12.3fs %12.3fs %+7.1f%% %4d-%-3d %8.4f\n", "(user+sys per round)", median(p.cpu), median(c.cpu), r.deltaPct, r.won, r.lost, r.p)
}

// run runs a command in dir, its output on stderr.
func run(ctx context.Context, dir, name string, args ...string) error {
	cmd := exec.CommandContext(ctx, name, args...)
	cmd.Dir, cmd.Stdout, cmd.Stderr = dir, os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%s %s: %w", name, strings.Join(args, " "), err)
	}
	return nil
}
