// Package corr implements the correlation-analysis methodology of Section
// 4.2: cluster-level observations are split into two bins on a feature
// (at the median feature value, or zero-versus-positive for sparse
// features), the metric distributions of the bins are compared with
// Welch's t-test at p < 0.01, and paired CDFs are produced for
// visualization. It operates on plain vectors so any feature/metric pair
// from any assembly layer can be tested.
package corr

import (
	"fmt"
	"math"

	"crowdscope/internal/stats"
)

// Alpha is the significance threshold the paper uses (p < 0.01).
const Alpha = 0.01

// SplitKind selects the binning rule.
type SplitKind uint8

// Binning rules.
const (
	// SplitAtMedian bins clusters at the median feature value, balancing
	// ties (used for #words, #items).
	SplitAtMedian SplitKind = iota
	// SplitAtZero bins feature == 0 against feature > 0 (used for
	// #text-boxes, #examples, #images).
	SplitAtZero
)

// Result is the outcome of one {feature, metric} experiment.
type Result struct {
	Feature, Metric string
	Kind            SplitKind

	// SplitValue is the feature value separating the bins (the median for
	// SplitAtMedian, 0 for SplitAtZero).
	SplitValue float64

	// Bin1/Bin2 describe the low/zero and high/positive bins.
	Bin1, Bin2 Bin

	// TTest compares the metric samples of the bins (the paper's test).
	TTest stats.TTestResult

	// KS is a two-sample Kolmogorov-Smirnov cross-check: sensitive to any
	// CDF separation, matching the paper's CDF-plot methodology, where
	// the t-test only compares means.
	KS stats.KSTestResult
}

// Bin summarizes one side of the split.
type Bin struct {
	Label  string
	Count  int
	Median float64
	Mean   float64
	CDF    *stats.ECDF
}

// Significant reports whether the experiment found a statistically
// significant correlation at the paper's threshold.
func (r Result) Significant() bool { return r.TTest.Significant(Alpha) }

// String renders the result like a row of Tables 1-3.
func (r Result) String() string {
	return fmt.Sprintf("%s vs %s: %s (n=%d) median=%.4g | %s (n=%d) median=%.4g [p=%.2g]",
		r.Feature, r.Metric,
		r.Bin1.Label, r.Bin1.Count, r.Bin1.Median,
		r.Bin2.Label, r.Bin2.Count, r.Bin2.Median,
		r.TTest.P)
}

// Run executes one experiment over parallel feature/metric vectors.
// Observations with NaN metric values are dropped.
func Run(feature, metric string, kind SplitKind, featVals, metricVals []float64) Result {
	if len(featVals) != len(metricVals) {
		panic("corr: feature/metric length mismatch")
	}
	fv := make([]float64, 0, len(featVals))
	mv := make([]float64, 0, len(metricVals))
	for i := range featVals {
		if math.IsNaN(metricVals[i]) || math.IsNaN(featVals[i]) {
			continue
		}
		fv = append(fv, featVals[i])
		mv = append(mv, metricVals[i])
	}

	res := Result{Feature: feature, Metric: metric, Kind: kind}
	var low, high []float64
	switch kind {
	case SplitAtZero:
		res.SplitValue = 0
		for i, f := range fv {
			if f == 0 {
				low = append(low, mv[i])
			} else {
				high = append(high, mv[i])
			}
		}
		res.Bin1.Label = feature + " = 0"
		res.Bin2.Label = feature + " > 0"
	default:
		med := stats.Median(fv)
		res.SplitValue = med
		low, high = medianBalancedSplit(fv, mv, med)
		res.Bin1.Label = fmt.Sprintf("%s ≤ %.4g", feature, med)
		res.Bin2.Label = fmt.Sprintf("%s > %.4g", feature, med)
	}

	res.Bin1 = fillBin(res.Bin1, low)
	res.Bin2 = fillBin(res.Bin2, high)
	res.TTest = stats.WelchTTest(low, high)
	res.KS = stats.KSTest(low, high)
	return res
}

// medianBalancedSplit separates observations below/above the median;
// observations exactly at the median are distributed to keep the bins as
// balanced as possible (Section 4.2's tie rule).
func medianBalancedSplit(fv, mv []float64, med float64) (low, high []float64) {
	var ties []float64
	for i, f := range fv {
		switch {
		case f < med:
			low = append(low, mv[i])
		case f > med:
			high = append(high, mv[i])
		default:
			ties = append(ties, mv[i])
		}
	}
	for _, m := range ties {
		if len(low) <= len(high) {
			low = append(low, m)
		} else {
			high = append(high, m)
		}
	}
	return low, high
}

func fillBin(b Bin, vals []float64) Bin {
	b.Count = len(vals)
	b.Median = stats.Median(vals)
	b.Mean = stats.Mean(vals)
	b.CDF = stats.NewECDF(vals)
	return b
}

// Observation is one cluster-level row for the matrix runner.
type Observation struct {
	Features map[string]float64
	Metrics  map[string]float64
}

// Spec names one experiment for the matrix runner.
type Spec struct {
	Feature string
	Metric  string
	Kind    SplitKind
}

// RunMatrix executes a set of experiments over shared observations.
func RunMatrix(obs []Observation, specs []Spec) []Result {
	out := make([]Result, 0, len(specs))
	for _, sp := range specs {
		fv := make([]float64, len(obs))
		mv := make([]float64, len(obs))
		for i, o := range obs {
			f, okF := o.Features[sp.Feature]
			m, okM := o.Metrics[sp.Metric]
			if !okF {
				f = math.NaN()
			}
			if !okM {
				m = math.NaN()
			}
			fv[i], mv[i] = f, m
		}
		out = append(out, Run(sp.Feature, sp.Metric, sp.Kind, fv, mv))
	}
	return out
}

// MeanSplit is the ablation alternative to the median split: bins at the
// mean feature value. Heavy-tailed features (like #items) produce very
// unbalanced bins under it, which is why the paper splits at the median.
func MeanSplit(feature, metric string, featVals, metricVals []float64) Result {
	if len(featVals) != len(metricVals) {
		panic("corr: feature/metric length mismatch")
	}
	mean := stats.Mean(featVals)
	res := Result{Feature: feature, Metric: metric, Kind: SplitAtMedian, SplitValue: mean}
	var low, high []float64
	for i, f := range featVals {
		if math.IsNaN(metricVals[i]) {
			continue
		}
		if f <= mean {
			low = append(low, metricVals[i])
		} else {
			high = append(high, metricVals[i])
		}
	}
	res.Bin1 = fillBin(Bin{Label: fmt.Sprintf("%s ≤ mean %.4g", feature, mean)}, low)
	res.Bin2 = fillBin(Bin{Label: fmt.Sprintf("%s > mean %.4g", feature, mean)}, high)
	res.TTest = stats.WelchTTest(low, high)
	return res
}

// CDFSeries extracts up to n plot points from a result's two CDFs in the
// paper's layout: x = metric value, y = fraction of clusters at or below.
func CDFSeries(r Result, n int) (x1, y1, x2, y2 []float64) {
	x1, y1 = r.Bin1.CDF.Points(n)
	x2, y2 = r.Bin2.CDF.Points(n)
	return
}
