// Package stats implements the statistical toolkit the paper's analyses
// rely on: order statistics (median, arbitrary quantiles), descriptive
// moments, empirical CDFs, histograms, Welch's t-test with exact two-sided
// p-values via the regularized incomplete beta function, rank correlation,
// and concentration measures. Go's standard library has none of these, so
// they are implemented here from first principles with property tests.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by aggregations that need at least one observation.
var ErrEmpty = errors.New("stats: empty sample")

// Mean returns the arithmetic mean; NaN for an empty sample.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased (n-1) sample variance; NaN for fewer than
// two observations. A two-pass algorithm keeps it numerically stable.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	ss := 0.0
	comp := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
		comp += d
	}
	// Correct for rounding in the mean (Björck's compensated form).
	n := float64(len(xs))
	return (ss - comp*comp/n) / (n - 1)
}

// StdDev returns the sample standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Sum returns the sum of the sample.
func Sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// Min returns the smallest observation; NaN for an empty sample.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest observation; NaN for an empty sample.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Median returns the sample median without modifying xs. For even-length
// samples it averages the two central order statistics. It runs in expected
// linear time via quickselect.
func Median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	buf := make([]float64, n)
	copy(buf, xs)
	return MedianInPlace(buf)
}

// MedianInPlace returns the median, reordering xs. A slice holding a NaN
// or a -0 goes through selectKth, whose result such values decide; any
// other is totally ordered by <, and selectOrdered gives the same bits.
func MedianInPlace(xs []float64) float64 {
	for _, v := range xs {
		if v != v || math.Float64bits(v) == 1<<63 {
			return medianInPlace(xs, selectKth)
		}
	}
	return medianInPlace(xs, selectOrdered)
}

// medianInPlace takes the median of buf with kth, selectKth or
// selectOrdered.
func medianInPlace(buf []float64, kth func([]float64, int) float64) float64 {
	n := len(buf)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return kth(buf, n/2)
	}
	lo := kth(buf, n/2-1)
	// After selecting k, elements right of k are >= buf[k]; the (n/2)-th
	// order statistic is the minimum of that suffix.
	hi := buf[n/2]
	for _, v := range buf[n/2+1:] {
		if v < hi {
			hi = v
		}
	}
	return (lo + hi) / 2
}

// selectKth partially sorts buf so buf[k] holds the k-th order statistic
// (0-based) and returns it. Median-of-three pivoting with insertion sort on
// small ranges keeps adversarial inputs at bay.
func selectKth(buf []float64, k int) float64 {
	lo, hi := 0, len(buf)-1
	for {
		if hi-lo < 12 {
			insertionSort(buf[lo : hi+1])
			return buf[k]
		}
		p := medianOfThreePivot(buf, lo, hi)
		p = partition(buf, lo, hi, p)
		switch {
		case k == p:
			return buf[k]
		case k < p:
			hi = p - 1
		default:
			lo = p + 1
		}
	}
}

// selectOrdered is selectKth for a slice holding no NaN and no -0, whose
// values are totally ordered by <, so any correct selection leaves the
// same bits at buf[k]. It keeps selectKth's median-of-three pivot and
// insertion cutoff; its partitions take no data-dependent branch, and a
// pivot equal to the value just left of the range (which bounds the range
// from below) peels every copy of it off in one pass, so heavily
// duplicated samples stay linear.
func selectOrdered(buf []float64, k int) float64 {
	lo, hi := 0, len(buf)-1
	for {
		if hi-lo < 12 {
			insertionSort(buf[lo : hi+1])
			return buf[k]
		}
		p := medianOfThreePivot(buf, lo, hi)
		if lo > 0 && !(buf[lo-1] < buf[p]) {
			// The pivot is the range's minimum: move its copies left.
			if p = lo + partitionOrdered(buf[lo:hi+1], buf[p], false); k < p {
				return buf[k]
			}
			lo = p
			continue
		}
		pv := buf[p]
		buf[p], buf[hi] = buf[hi], pv
		p = lo + partitionOrdered(buf[lo:hi], pv, true)
		buf[p], buf[hi] = pv, buf[p]
		switch {
		case k == p:
			return buf[k]
		case k < p:
			hi = p - 1
		default:
			lo = p + 1
		}
	}
}

// partitionOrdered moves the values of xs below pv (less) or at most pv
// (!less) to its front, without a data-dependent branch (the step form of
// the compare becomes a SETcc), and returns how many there are.
func partitionOrdered(xs []float64, pv float64, less bool) int {
	store := 0
	if less {
		for i, v := range xs {
			xs[i], xs[store] = xs[store], v
			step := 0
			if v < pv {
				step = 1
			}
			store += step
		}
		return store
	}
	for i, v := range xs {
		xs[i], xs[store] = xs[store], v
		step := 0
		if v <= pv {
			step = 1
		}
		store += step
	}
	return store
}

func insertionSort(xs []float64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

func medianOfThreePivot(buf []float64, lo, hi int) int {
	mid := lo + (hi-lo)/2
	a, b, c := buf[lo], buf[mid], buf[hi]
	switch {
	case (a <= b && b <= c) || (c <= b && b <= a):
		return mid
	case (b <= a && a <= c) || (c <= a && a <= b):
		return lo
	default:
		return hi
	}
}

func partition(buf []float64, lo, hi, pivot int) int {
	pv := buf[pivot]
	buf[pivot], buf[hi] = buf[hi], buf[pivot]
	store := lo
	for i := lo; i < hi; i++ {
		if buf[i] < pv {
			buf[i], buf[store] = buf[store], buf[i]
			store++
		}
	}
	buf[store], buf[hi] = buf[hi], buf[store]
	return store
}

// Quantile returns the q-quantile (0 <= q <= 1) using linear interpolation
// between closest ranks (type-7, the R/NumPy default). xs is not modified.
func Quantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 || math.IsNaN(q) || q < 0 || q > 1 {
		return math.NaN()
	}
	buf := make([]float64, n)
	copy(buf, xs)
	sort.Float64s(buf)
	return quantileSorted(buf, q)
}

// QuantileSorted returns the q-quantile of an already ascending sample.
func QuantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 || q < 0 || q > 1 {
		return math.NaN()
	}
	return quantileSorted(sorted, q)
}

func quantileSorted(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Gini returns the Gini concentration coefficient of a non-negative sample:
// 0 for perfectly even, approaching 1 as a few observations dominate. The
// worker-workload analyses (top-10% doing >80% of tasks) use it as a
// summary of skew.
func Gini(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	buf := make([]float64, n)
	copy(buf, xs)
	sort.Float64s(buf)
	var cum, weighted float64
	for i, x := range buf {
		cum += x
		weighted += float64(i+1) * x
	}
	if cum == 0 {
		return 0
	}
	nf := float64(n)
	return (2*weighted - (nf+1)*cum) / (nf * cum)
}

// TopShare returns the fraction of the total held by the top `frac` share
// of observations (e.g. TopShare(loads, 0.10) = fraction of work done by
// the top 10%). It returns NaN for an empty sample.
func TopShare(xs []float64, frac float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	buf := make([]float64, n)
	copy(buf, xs)
	sort.Sort(sort.Reverse(sort.Float64Slice(buf)))
	k := int(math.Ceil(frac * float64(n)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	top := Sum(buf[:k])
	total := Sum(buf)
	if total == 0 {
		return 0
	}
	return top / total
}
