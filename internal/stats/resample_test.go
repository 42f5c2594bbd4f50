package stats

import (
	"math"
	"testing"

	"crowdscope/internal/rng"
)

func TestBootstrapMedianCICoversTruth(t *testing.T) {
	r := rng.New(101)
	// Median of N(10, 2) is 10; the CI should cover it most of the time.
	covered := 0
	const trials = 60
	for trial := 0; trial < trials; trial++ {
		xs := make([]float64, 200)
		for i := range xs {
			xs[i] = r.Normal(10, 2)
		}
		ci := BootstrapCI(r, xs, Median, 0.95, 400)
		if ci.Contains(10) {
			covered++
		}
		if ci.Lo > ci.Point || ci.Hi < ci.Point {
			t.Fatalf("point %v outside [%v,%v]", ci.Point, ci.Lo, ci.Hi)
		}
	}
	if covered < trials*80/100 {
		t.Errorf("95%% CI covered truth only %d/%d times", covered, trials)
	}
}

func TestBootstrapCIWidthShrinksWithN(t *testing.T) {
	r := rng.New(102)
	width := func(n int) float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.Normal(0, 1)
		}
		return BootstrapCI(r, xs, Median, 0.95, 300).Width()
	}
	small := width(50)
	large := width(5000)
	if large >= small {
		t.Errorf("CI width should shrink: n=50 %.3f vs n=5000 %.3f", small, large)
	}
}

func TestBootstrapCIDegenerate(t *testing.T) {
	r := rng.New(103)
	ci := BootstrapCI(r, nil, Median, 0.95, 100)
	if !math.IsNaN(ci.Lo) {
		t.Error("empty sample should give NaN bounds")
	}
	ci = BootstrapCI(r, []float64{5, 5, 5}, Median, 0.95, 100)
	if ci.Lo != 5 || ci.Hi != 5 {
		t.Errorf("constant sample CI = [%v,%v]", ci.Lo, ci.Hi)
	}
	if BootstrapCI(r, []float64{1}, Median, 1.5, 100).Level != 1.5 {
		t.Error("invalid level recorded")
	}
}

func TestKSTestSameDistribution(t *testing.T) {
	r := rng.New(104)
	rejected := 0
	const trials = 100
	for trial := 0; trial < trials; trial++ {
		a := make([]float64, 120)
		b := make([]float64, 150)
		for i := range a {
			a[i] = r.Normal(3, 1)
		}
		for i := range b {
			b[i] = r.Normal(3, 1)
		}
		if KSTest(a, b).Significant(0.01) {
			rejected++
		}
	}
	if rejected > 8 {
		t.Errorf("KS rejected the null %d/%d times at alpha=0.01", rejected, trials)
	}
}

func TestKSTestSeparatedDistributions(t *testing.T) {
	r := rng.New(105)
	a := make([]float64, 200)
	b := make([]float64, 200)
	for i := range a {
		a[i] = r.Normal(0, 1)
		b[i] = r.Normal(1.2, 1)
	}
	res := KSTest(a, b)
	if !res.Significant(0.01) {
		t.Errorf("separated samples not rejected: D=%v p=%v", res.D, res.P)
	}
}

func TestKSTestDetectsVarianceShift(t *testing.T) {
	// Same mean, different spread: a t-test misses it, KS must not.
	r := rng.New(106)
	a := make([]float64, 400)
	b := make([]float64, 400)
	for i := range a {
		a[i] = r.Normal(0, 0.4)
		b[i] = r.Normal(0, 3)
	}
	ks := KSTest(a, b)
	tt := WelchTTest(a, b)
	if !ks.Significant(0.01) {
		t.Errorf("KS missed a variance shift: p=%v", ks.P)
	}
	if tt.Significant(0.01) {
		t.Logf("note: t-test also fired (p=%v) — unusual but possible", tt.P)
	}
}

func TestKSTestEmpty(t *testing.T) {
	res := KSTest(nil, []float64{1})
	if !math.IsNaN(res.P) || res.Significant(0.01) {
		t.Error("empty input should be NaN and not significant")
	}
}

func TestKSPValueBounds(t *testing.T) {
	for _, l := range []float64{0, 0.1, 0.5, 1, 2, 5} {
		p := ksPValue(l)
		if p < 0 || p > 1 {
			t.Errorf("ksPValue(%v) = %v", l, p)
		}
	}
	if ksPValue(0) != 1 {
		t.Error("lambda=0 should give p=1")
	}
	if ksPValue(3) > 1e-6 {
		t.Errorf("large lambda should vanish: %v", ksPValue(3))
	}
}
