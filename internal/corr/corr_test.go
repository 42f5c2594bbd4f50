package corr

import (
	"math"
	"strings"
	"testing"

	"crowdscope/internal/rng"
)

// synthPair builds a feature vector and a metric that depends on it (high
// feature → low metric) plus noise.
func synthPair(n int, effect float64) (feat, metric []float64) {
	r := rng.New(71)
	feat = make([]float64, n)
	metric = make([]float64, n)
	for i := 0; i < n; i++ {
		feat[i] = r.LogNormalMedian(100, 1)
		base := 1.0
		if feat[i] > 100 {
			base = effect
		}
		metric[i] = base * r.LogNormalMedian(1, 0.2)
	}
	return feat, metric
}

func TestRunMedianSplitDetectsEffect(t *testing.T) {
	feat, metric := synthPair(2000, 0.6)
	res := Run("#words", "disagreement", SplitAtMedian, feat, metric)
	if !res.Significant() {
		t.Fatalf("clear effect not significant: p=%v", res.TTest.P)
	}
	if res.Bin2.Median >= res.Bin1.Median {
		t.Errorf("bin medians out of order: %v vs %v", res.Bin1.Median, res.Bin2.Median)
	}
	// Bins should be balanced.
	if d := res.Bin1.Count - res.Bin2.Count; d < -1 || d > 1 {
		t.Errorf("bins unbalanced: %d vs %d", res.Bin1.Count, res.Bin2.Count)
	}
	if !strings.Contains(res.Bin1.Label, "≤") {
		t.Errorf("bin1 label %q", res.Bin1.Label)
	}
}

func TestRunNullEffect(t *testing.T) {
	r := rng.New(72)
	n := 1000
	feat := make([]float64, n)
	metric := make([]float64, n)
	for i := 0; i < n; i++ {
		feat[i] = r.Float64() * 10
		metric[i] = r.Normal(5, 1)
	}
	res := Run("#fields", "task-time", SplitAtMedian, feat, metric)
	if res.Significant() {
		t.Errorf("independent feature flagged significant: p=%v", res.TTest.P)
	}
}

func TestRunZeroSplit(t *testing.T) {
	r := rng.New(73)
	n := 1500
	feat := make([]float64, n)
	metric := make([]float64, n)
	for i := 0; i < n; i++ {
		if r.Bool(0.4) {
			feat[i] = float64(1 + r.Intn(3))
		}
		base := 100.0
		if feat[i] > 0 {
			base = 250
		}
		metric[i] = r.LogNormalMedian(base, 0.3)
	}
	res := Run("#text-boxes", "task-time", SplitAtZero, feat, metric)
	if !res.Significant() {
		t.Fatalf("zero-split effect not significant: p=%v", res.TTest.P)
	}
	if res.Bin2.Median <= res.Bin1.Median {
		t.Error("positive bin should have larger metric")
	}
	if res.SplitValue != 0 {
		t.Errorf("split value %v", res.SplitValue)
	}
	if res.Bin1.Count+res.Bin2.Count != n {
		t.Error("observations lost")
	}
}

func TestRunDropsNaN(t *testing.T) {
	feat := []float64{1, 2, 3, 4, math.NaN(), 6}
	metric := []float64{1, 2, math.NaN(), 4, 5, 6}
	res := Run("f", "m", SplitAtMedian, feat, metric)
	if res.Bin1.Count+res.Bin2.Count != 4 {
		t.Errorf("NaN rows not dropped: %d obs", res.Bin1.Count+res.Bin2.Count)
	}
}

func TestMedianBalancedSplitTies(t *testing.T) {
	// All feature values identical: ties distribute evenly.
	feat := []float64{5, 5, 5, 5, 5, 5}
	metric := []float64{1, 2, 3, 4, 5, 6}
	res := Run("f", "m", SplitAtMedian, feat, metric)
	if d := res.Bin1.Count - res.Bin2.Count; d < -1 || d > 1 {
		t.Errorf("tie distribution unbalanced: %d vs %d", res.Bin1.Count, res.Bin2.Count)
	}
}

func TestRunMatrix(t *testing.T) {
	obs := []Observation{
		{Features: map[string]float64{"a": 1}, Metrics: map[string]float64{"m": 10}},
		{Features: map[string]float64{"a": 2}, Metrics: map[string]float64{"m": 20}},
		{Features: map[string]float64{"a": 3}, Metrics: map[string]float64{"m": 30}},
		{Features: map[string]float64{"a": 4}, Metrics: map[string]float64{"m": 40}},
	}
	rs := RunMatrix(obs, []Spec{{Feature: "a", Metric: "m", Kind: SplitAtMedian}, {Feature: "missing", Metric: "m", Kind: SplitAtMedian}})
	if len(rs) != 2 {
		t.Fatalf("results = %d", len(rs))
	}
	if rs[0].Bin1.Count != 2 || rs[0].Bin2.Count != 2 {
		t.Errorf("matrix bins %d/%d", rs[0].Bin1.Count, rs[0].Bin2.Count)
	}
	// The missing feature drops everything.
	if rs[1].Bin1.Count+rs[1].Bin2.Count != 0 {
		t.Error("missing feature rows should drop")
	}
}

func TestMeanSplitDiffersFromMedianOnSkew(t *testing.T) {
	// Heavy-tailed feature: mean ≫ median, so the mean split is
	// unbalanced — the ablation rationale.
	r := rng.New(74)
	n := 2000
	feat := make([]float64, n)
	metric := make([]float64, n)
	for i := 0; i < n; i++ {
		feat[i] = r.Pareto(1, 1.1)
		metric[i] = r.Float64()
	}
	med := Run("f", "m", SplitAtMedian, feat, metric)
	mean := MeanSplit("f", "m", feat, metric)
	balMed := math.Abs(float64(med.Bin1.Count - med.Bin2.Count))
	balMean := math.Abs(float64(mean.Bin1.Count - mean.Bin2.Count))
	if balMean <= balMed {
		t.Errorf("mean split should be less balanced: |Δ| median=%v mean=%v", balMed, balMean)
	}
}

func TestCDFSeries(t *testing.T) {
	feat, metric := synthPair(500, 0.5)
	res := Run("f", "m", SplitAtMedian, feat, metric)
	x1, y1, x2, y2 := CDFSeries(res, 40)
	if len(x1) != 40 || len(y1) != 40 || len(x2) != 40 || len(y2) != 40 {
		t.Fatalf("series lengths %d %d %d %d", len(x1), len(y1), len(x2), len(y2))
	}
	if y1[len(y1)-1] != 1 || y2[len(y2)-1] != 1 {
		t.Error("CDFs should end at 1")
	}
}

func TestResultString(t *testing.T) {
	feat, metric := synthPair(100, 0.5)
	res := Run("#items", "pickup-time", SplitAtMedian, feat, metric)
	s := res.String()
	if !strings.Contains(s, "#items") || !strings.Contains(s, "pickup-time") {
		t.Errorf("String = %q", s)
	}
}

func TestRunPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch should panic")
		}
	}()
	Run("f", "m", SplitAtMedian, []float64{1, 2}, []float64{1})
}

func TestRunIncludesKSCrossCheck(t *testing.T) {
	feat, metric := synthPair(2000, 0.6)
	res := Run("#words", "disagreement", SplitAtMedian, feat, metric)
	if !res.KS.Significant(0.01) {
		t.Errorf("KS cross-check missed a clear effect: p=%v", res.KS.P)
	}
	// Null case: KS should not fire.
	r := rng.New(76)
	nf := make([]float64, 1000)
	nm := make([]float64, 1000)
	for i := range nf {
		nf[i] = r.Float64()
		nm[i] = r.Normal(0, 1)
	}
	null := Run("f", "m", SplitAtMedian, nf, nm)
	if null.KS.Significant(0.001) {
		t.Errorf("KS false positive: p=%v", null.KS.P)
	}
}

func TestKSCatchesVarianceOnlyEffect(t *testing.T) {
	// A feature that changes metric *spread* but not its mean: the
	// paper's t-test misses it, the KS cross-check does not.
	r := rng.New(77)
	n := 3000
	feat := make([]float64, n)
	metric := make([]float64, n)
	for i := 0; i < n; i++ {
		feat[i] = r.Float64() * 10
		sd := 0.3
		if feat[i] > 5 {
			sd = 3
		}
		metric[i] = r.Normal(50, sd)
	}
	res := Run("f", "m", SplitAtMedian, feat, metric)
	if res.TTest.Significant(0.01) {
		t.Logf("note: t-test fired on variance-only effect (p=%v)", res.TTest.P)
	}
	if !res.KS.Significant(0.01) {
		t.Errorf("KS missed a variance-only effect: p=%v", res.KS.P)
	}
}
