package stats

import (
	"math"
	"sort"
)

// ECDF is an empirical cumulative distribution function built from a
// sample. Every feature→metric comparison in Section 4 is visualized as a
// pair of CDFs; ECDF provides evaluation, inversion (quantiles) and
// sampling of plot points.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF from xs (copied and sorted; xs is untouched).
func NewECDF(xs []float64) *ECDF {
	buf := make([]float64, len(xs))
	copy(buf, xs)
	sort.Float64s(buf)
	return &ECDF{sorted: buf}
}

// N returns the sample size.
func (e *ECDF) N() int { return len(e.sorted) }

// At returns F(x) = P(X <= x).
func (e *ECDF) At(x float64) float64 {
	if len(e.sorted) == 0 {
		return math.NaN()
	}
	i := sort.SearchFloat64s(e.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(e.sorted))
}

// Quantile returns the q-quantile of the underlying sample.
func (e *ECDF) Quantile(q float64) float64 { return QuantileSorted(e.sorted, q) }

// Median returns the sample median.
func (e *ECDF) Median() float64 { return e.Quantile(0.5) }

// Min returns the smallest observation; NaN when empty.
func (e *ECDF) Min() float64 {
	if len(e.sorted) == 0 {
		return math.NaN()
	}
	return e.sorted[0]
}

// Max returns the largest observation; NaN when empty.
func (e *ECDF) Max() float64 {
	if len(e.sorted) == 0 {
		return math.NaN()
	}
	return e.sorted[len(e.sorted)-1]
}

// Points returns up to n (x, F(x)) pairs evenly spaced in rank order,
// suitable for plotting the CDF curve.
func (e *ECDF) Points(n int) (xs, ys []float64) {
	m := len(e.sorted)
	if m == 0 || n <= 0 {
		return nil, nil
	}
	if n > m {
		n = m
	}
	xs = make([]float64, n)
	ys = make([]float64, n)
	for i := 0; i < n; i++ {
		j := i * (m - 1) / maxInt(n-1, 1)
		xs[i] = e.sorted[j]
		ys[i] = float64(j+1) / float64(m)
	}
	return xs, ys
}

// KSDistance returns the Kolmogorov–Smirnov statistic between two ECDFs:
// the supremum of |F1(x) - F2(x)| over the pooled support.
func KSDistance(a, b *ECDF) float64 {
	if a.N() == 0 || b.N() == 0 {
		return math.NaN()
	}
	maxD := 0.0
	for _, x := range a.sorted {
		if d := math.Abs(a.At(x) - b.At(x)); d > maxD {
			maxD = d
		}
	}
	for _, x := range b.sorted {
		if d := math.Abs(a.At(x) - b.At(x)); d > maxD {
			maxD = d
		}
	}
	return maxD
}

// Histogram counts observations into fixed-width bins over [min, max].
type Histogram struct {
	MinValue, MaxValue float64
	Counts             []int
	Under, Over        int // observations outside [min, max]
}

// NewHistogram builds a histogram with n equal-width bins over [min, max].
func NewHistogram(min, max float64, n int) *Histogram {
	if n <= 0 || max <= min {
		panic("stats: invalid histogram bounds")
	}
	return &Histogram{MinValue: min, MaxValue: max, Counts: make([]int, n)}
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	switch {
	case x < h.MinValue:
		h.Under++
	case x > h.MaxValue:
		h.Over++
	default:
		i := int((x - h.MinValue) / (h.MaxValue - h.MinValue) * float64(len(h.Counts)))
		if i == len(h.Counts) {
			i--
		}
		h.Counts[i]++
	}
}

// AddAll records a sample.
func (h *Histogram) AddAll(xs []float64) {
	for _, x := range xs {
		h.Add(x)
	}
}

// Total returns the number of in-range observations.
func (h *Histogram) Total() int {
	t := 0
	for _, c := range h.Counts {
		t += c
	}
	return t
}

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.MaxValue - h.MinValue) / float64(len(h.Counts))
	return h.MinValue + (float64(i)+0.5)*w
}

// LogHistogram counts observations into logarithmically spaced bins; the
// paper's log-log distribution plots (cluster sizes, worker workloads) use
// powers-of-base buckets.
type LogHistogram struct {
	Base   float64
	Counts map[int]int
}

// NewLogHistogram creates a log histogram with the given base (>1).
func NewLogHistogram(base float64) *LogHistogram {
	if base <= 1 {
		panic("stats: log histogram base must exceed 1")
	}
	return &LogHistogram{Base: base, Counts: map[int]int{}}
}

// Add records one positive observation; non-positive values are ignored.
func (h *LogHistogram) Add(x float64) {
	if x <= 0 {
		return
	}
	// A tiny epsilon guards against log(base^k)/log(base) landing just
	// below the integer k from floating-point rounding.
	h.Counts[int(math.Floor(math.Log(x)/math.Log(h.Base)+1e-9))]++
}

// Buckets returns the occupied bucket exponents in ascending order.
func (h *LogHistogram) Buckets() []int {
	out := make([]int, 0, len(h.Counts))
	for k := range h.Counts {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// Lower returns the lower bound of bucket k.
func (h *LogHistogram) Lower(k int) float64 { return math.Pow(h.Base, float64(k)) }

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
