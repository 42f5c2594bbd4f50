package stats

import (
	"math"
	"sort"

	"crowdscope/internal/rng"
)

// CI is a two-sided confidence interval around a point estimate.
type CI struct {
	Point    float64
	Lo, Hi   float64
	Level    float64 // e.g. 0.95
	Resample int     // bootstrap replicates used
}

// Contains reports whether v lies inside the interval.
func (c CI) Contains(v float64) bool { return v >= c.Lo && v <= c.Hi }

// Width returns Hi - Lo.
func (c CI) Width() float64 { return c.Hi - c.Lo }

// BootstrapCI estimates a confidence interval for statistic over xs by
// non-parametric bootstrap with the percentile method. The paper reports
// point medians only; the reproduction attaches uncertainty so
// paper-vs-measured comparisons can be judged.
func BootstrapCI(r *rng.Rand, xs []float64, statistic func([]float64) float64, level float64, replicates int) CI {
	n := len(xs)
	out := CI{Level: level, Resample: replicates, Point: statistic(xs), Lo: math.NaN(), Hi: math.NaN()}
	if n == 0 || replicates < 2 || level <= 0 || level >= 1 {
		return out
	}
	estimates := make([]float64, 0, replicates)
	buf := make([]float64, n)
	for rep := 0; rep < replicates; rep++ {
		for i := range buf {
			buf[i] = xs[r.Intn(n)]
		}
		if v := statistic(buf); !math.IsNaN(v) {
			estimates = append(estimates, v)
		}
	}
	if len(estimates) == 0 {
		return out
	}
	sort.Float64s(estimates)
	alpha := (1 - level) / 2
	out.Lo = QuantileSorted(estimates, alpha)
	out.Hi = QuantileSorted(estimates, 1-alpha)
	return out
}

// KSTestResult reports a two-sample Kolmogorov-Smirnov test.
type KSTestResult struct {
	D  float64 // the KS statistic
	P  float64 // asymptotic two-sided p-value
	NA int
	NB int
}

// Significant reports rejection at the given threshold.
func (k KSTestResult) Significant(alpha float64) bool {
	return !math.IsNaN(k.P) && k.P < alpha
}

// KSTest performs the two-sample Kolmogorov-Smirnov test: a
// distribution-shape-sensitive alternative to the t-test used by the
// binning ablation (the t-test compares means; KS catches any CDF
// separation, matching the paper's CDF-plot methodology).
func KSTest(a, b []float64) KSTestResult {
	res := KSTestResult{NA: len(a), NB: len(b), D: math.NaN(), P: math.NaN()}
	if len(a) == 0 || len(b) == 0 {
		return res
	}
	res.D = KSDistance(NewECDF(a), NewECDF(b))
	ne := float64(len(a)) * float64(len(b)) / float64(len(a)+len(b))
	res.P = ksPValue((math.Sqrt(ne) + 0.12 + 0.11/math.Sqrt(ne)) * res.D)
	return res
}

// ksPValue evaluates the Kolmogorov distribution's tail Q(λ) =
// 2 Σ (-1)^{j-1} e^{-2 j² λ²} (Numerical Recipes probks).
func ksPValue(lambda float64) float64 {
	if lambda <= 0 {
		return 1
	}
	const eps1, eps2 = 1e-3, 1e-8
	sum, prevTerm := 0.0, 0.0
	sign := 1.0
	for j := 1; j <= 100; j++ {
		term := sign * 2 * math.Exp(-2*float64(j)*float64(j)*lambda*lambda)
		sum += term
		at := math.Abs(term)
		if at <= eps1*prevTerm || at <= eps2*sum {
			if sum < 0 {
				return 0
			}
			if sum > 1 {
				return 1
			}
			return sum
		}
		sign = -sign
		prevTerm = at
	}
	return 1 // failed to converge: be conservative
}
