package stats

import (
	"cmp"
	"math"
	"slices"
)

// TTestResult reports a two-sample t-test. The correlation methodology of
// Section 4.2 accepts a feature→metric correlation only when the two
// median-split bins differ with p < 0.01.
type TTestResult struct {
	T  float64 // the t statistic
	DF float64 // degrees of freedom (Welch–Satterthwaite)
	P  float64 // two-sided p-value

	MeanA, MeanB float64
	NA, NB       int
}

// Significant reports whether the test rejects the null at the given
// threshold (the paper uses 0.01).
func (t TTestResult) Significant(alpha float64) bool {
	return !math.IsNaN(t.P) && t.P < alpha
}

// WelchTTest performs Welch's unequal-variance two-sample t-test between a
// and b. Samples with fewer than two observations or zero combined variance
// yield a NaN p-value (never significant).
func WelchTTest(a, b []float64) TTestResult {
	res := TTestResult{NA: len(a), NB: len(b), T: math.NaN(), DF: math.NaN(), P: math.NaN()}
	if len(a) < 2 || len(b) < 2 {
		res.MeanA, res.MeanB = Mean(a), Mean(b)
		return res
	}
	ma, mb := Mean(a), Mean(b)
	va, vb := Variance(a), Variance(b)
	na, nb := float64(len(a)), float64(len(b))
	res.MeanA, res.MeanB = ma, mb
	sa, sb := va/na, vb/nb
	se := sa + sb
	if se <= 0 {
		if ma == mb {
			res.T, res.P = 0, 1
		}
		return res
	}
	res.T = (ma - mb) / math.Sqrt(se)
	res.DF = se * se / (sa*sa/(na-1) + sb*sb/(nb-1))
	res.P = studentTTwoSidedP(res.T, res.DF)
	return res
}

// studentTTwoSidedP returns P(|T_df| >= |t|) for Student's t distribution
// via the regularized incomplete beta function:
//
//	p = I_{df/(df+t^2)}(df/2, 1/2)
func studentTTwoSidedP(t, df float64) float64 {
	if math.IsNaN(t) || math.IsNaN(df) || df <= 0 {
		return math.NaN()
	}
	x := df / (df + t*t)
	return RegIncBeta(df/2, 0.5, x)
}

// RegIncBeta computes the regularized incomplete beta function I_x(a, b)
// using the continued-fraction expansion from Numerical Recipes (Lentz's
// algorithm), with the symmetry transform for fast convergence.
func RegIncBeta(a, b, x float64) float64 {
	switch {
	case math.IsNaN(a) || math.IsNaN(b) || math.IsNaN(x):
		return math.NaN()
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	case a <= 0 || b <= 0:
		return math.NaN()
	}
	lbeta, _ := math.Lgamma(a + b)
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	front := math.Exp(lbeta - la - lb + a*math.Log(x) + b*math.Log(1-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

// betaCF evaluates the continued fraction for the incomplete beta function
// by the modified Lentz method.
func betaCF(a, b, x float64) float64 {
	const (
		maxIter = 300
		eps     = 3e-14
		fpmin   = 1e-300
	)
	qab := a + b
	qap := a + 1
	qam := a - 1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		mf := float64(m)
		m2 := 2 * mf
		aa := mf * (b - mf) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + mf) * (qab + mf) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

// PearsonCorr returns the Pearson correlation coefficient of paired samples
// x and y; NaN when fewer than two pairs or either sample is constant.
func PearsonCorr(x, y []float64) float64 {
	n := len(x)
	if n != len(y) || n < 2 {
		return math.NaN()
	}
	mx, my := Mean(x), Mean(y)
	var sxy, sxx, syy float64
	for i := 0; i < n; i++ {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return math.NaN()
	}
	return sxy / math.Sqrt(sxx*syy)
}

// SpearmanCorr returns Spearman's rank correlation of paired samples,
// with average ranks for ties.
func SpearmanCorr(x, y []float64) float64 {
	n := len(x)
	if n != len(y) || n < 2 {
		return math.NaN()
	}
	return PearsonCorr(Ranks(x), Ranks(y))
}

// Ranks returns 1-based fractional ranks of xs (ties get the average rank).
func Ranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(a, b int) int { return cmp.Compare(xs[a], xs[b]) })
	ranks := make([]float64, n)
	i := 0
	for i < n {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			ranks[idx[k]] = avg
		}
		i = j + 1
	}
	return ranks
}
