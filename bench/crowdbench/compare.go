package main

import (
	"fmt"
	"io"
)

// verdict is the outcome of comparing one metric on one workload.
type verdict string

const (
	verdictOK         verdict = "ok"
	verdictImproved   verdict = "improved"
	verdictRegression verdict = "REGRESSION"
	verdictUnresolved verdict = "unresolved"
)

// judge compares the runs of a change (b) with the runs of its parent (a)
// for one end-to-end metric. delta is the change of the median as a share
// of the parent's, signed so that positive is worse. When either side's
// own spread (interquartile distance over median) exceeds the bound the
// medians cannot be told apart and the metric is unresolved — unless
// every run of one side beats every run of the other.
func judge(d metricDef, a, b []float64) (v verdict, delta, spreadA, spreadB float64) {
	ma, mb := medianF(a), medianF(b)
	delta = (mb - ma) / ma
	if d.Better == "higher" {
		delta = -delta
	}
	spreadA, spreadB = spread(a), spread(b)
	worse := func(x, y float64) bool { // x worse than y
		if d.Better == "higher" {
			return x < y
		}
		return x > y
	}
	separated := func(bad, good []float64) bool { // every bad run worse than every good run
		for _, x := range bad {
			for _, y := range good {
				if !worse(x, y) {
					return false
				}
			}
		}
		return true
	}
	noisy := spreadA > d.Bound || spreadB > d.Bound
	switch {
	case delta > d.Bound && (!noisy || separated(b, a)):
		return verdictRegression, delta, spreadA, spreadB
	case noisy && !separated(a, b):
		return verdictUnresolved, delta, spreadA, spreadB
	case delta < -d.Bound:
		return verdictImproved, delta, spreadA, spreadB
	}
	return verdictOK, delta, spreadA, spreadB
}

// run is one untraced run's value of a metric.
type run struct {
	seed uint64
	v    float64
}

func values(rs []run) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.v
	}
	return out
}

// paired compares the runs of equal seed, which run.sh's suite makes one
// right after the other: the machine's slow drift is the same for both
// runs of a pair and cancels in their ratio, so the pairs resolve changes
// well inside the bound, which has to cover the drift between runs taken
// minutes apart. It returns how many pairs the change won and lost and the
// median of the pairs' deltas (positive is worse).
func paired(d metricDef, a, b []run) (won, lost int, delta float64) {
	parent := map[uint64]float64{}
	for _, r := range a {
		parent[r.seed] = r.v
	}
	var deltas []float64
	for _, r := range b {
		pv, ok := parent[r.seed]
		if !ok || pv == 0 {
			continue
		}
		delete(parent, r.seed)
		x := (r.v - pv) / pv
		if d.Better == "higher" {
			x = -x
		}
		deltas = append(deltas, x)
		switch {
		case x < 0:
			won++
		case x > 0:
			lost++
		}
	}
	return won, lost, medianF(deltas)
}

// side is one record file, grouped for comparison.
type side struct {
	runs    map[string]map[string][]run // workload -> end-to-end metric -> untraced runs
	failed  map[string]int              // workload -> failed operations, traced runs included
	seconds map[float64]bool            // run lengths seen
}

func readSide(path string) (*side, error) {
	recs, err := readRecords(path)
	if err != nil {
		return nil, err
	}
	s := &side{runs: map[string]map[string][]run{}, failed: map[string]int{}, seconds: map[float64]bool{}}
	for _, r := range recs {
		if s.runs[r.Workload] == nil {
			s.runs[r.Workload] = map[string][]run{}
		}
		s.failed[r.Workload] += r.Result.Failed
		if !r.Result.Correct && r.Result.Failed == 0 {
			s.failed[r.Workload]++
		}
		s.seconds[r.Seconds] = true
		if r.Trace {
			continue
		}
		for name, v := range r.Result.Metrics {
			s.runs[r.Workload][name] = append(s.runs[r.Workload][name], run{r.Seed, v.Value})
		}
	}
	return s, nil
}

// compareFiles prints, for every workload either record file holds and
// every end-to-end metric, the parent's (a) and the change's (b) median,
// the delta against the metric's bound, the verdict, and what the pairs of
// equal seed say; and per workload the failed operations of each side. It
// returns 1 when a metric regressed or the change's runs hold a failed
// operation (a failed operation has no latency, so its run's numbers prove
// nothing), and otherwise 2 when the files cannot be compared: a workload
// or metric with fewer than two untraced runs on a side — what a run that
// crashed leaves behind —, runs of different lengths, or failed operations
// in the parent's records.
func compareFiles(stdout, stderr io.Writer, pathA, pathB string) int {
	a, err := readSide(pathA)
	if err != nil {
		fmt.Fprintf(stderr, "crowdbench: %v\n", err)
		return 2
	}
	b, err := readSide(pathB)
	if err != nil {
		fmt.Fprintf(stderr, "crowdbench: %v\n", err)
		return 2
	}
	regressed, incomparable, compared := false, false, 0
	lengths := map[float64]bool{}
	for s := range a.seconds {
		lengths[s] = true
	}
	for s := range b.seconds {
		lengths[s] = true
	}
	if len(lengths) > 1 {
		fmt.Fprintf(stderr, "crowdbench: the records were measured for different lengths: %v\n", lengths)
		incomparable = true
	}
	fmt.Fprintf(stdout, "%-13s %-14s %5s %12s %12s %8s %6s %8s %8s  %-11s %8s %9s\n",
		"workload", "metric", "runs", "parent", "change", "delta", "bound", "spreadA", "spreadB", "verdict", "paired", "won-lost")
	for _, w := range workloads {
		if a.runs[w.name] == nil && b.runs[w.name] == nil {
			continue
		}
		for _, d := range endToEnd {
			ra, rb := a.runs[w.name][d.Name], b.runs[w.name][d.Name]
			if len(ra) < 2 || len(rb) < 2 {
				incomparable = true
				fmt.Fprintf(stdout, "%-13s %-14s %2d/%-2d %66s  MISSING\n", w.name, d.Name, len(ra), len(rb), "")
				continue
			}
			compared++
			va, vb := values(ra), values(rb)
			v, delta, sa, sb := judge(d, va, vb)
			if v == verdictRegression {
				regressed = true
			}
			won, lost, pd := paired(d, ra, rb)
			fmt.Fprintf(stdout, "%-13s %-14s %2d/%-2d %12.5g %12.5g %+7.1f%% %5.0f%% %7.1f%% %7.1f%%  %-11s %+7.1f%% %6d-%-2d\n",
				w.name, d.Name, len(va), len(vb), medianF(va), medianF(vb), 100*delta, 100*d.Bound, 100*sa, 100*sb, v, 100*pd, won, lost)
		}
		fa, fb := a.failed[w.name], b.failed[w.name]
		v := verdictOK
		switch {
		case fb > 0:
			v, regressed = verdictRegression, true
		case fa > 0:
			v, incomparable = verdictUnresolved, true
		}
		fmt.Fprintf(stdout, "%-13s %-14s %5s %12d %12d %44s  %s\n", w.name, "ops_failed", "", fa, fb, "", v)
	}
	switch {
	case regressed:
		return 1
	case compared == 0:
		fmt.Fprintln(stderr, "crowdbench: the files share no workload with at least two untraced runs on each side")
		return 2
	case incomparable:
		fmt.Fprintln(stderr, "crowdbench: the files cannot be compared in full: see the MISSING and unresolved ops_failed rows")
		return 2
	}
	return 0
}
