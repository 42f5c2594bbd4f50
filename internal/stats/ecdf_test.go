package stats

import (
	"math"
	"testing"

	"crowdscope/internal/rng"
)

func TestECDFAt(t *testing.T) {
	e := NewECDF([]float64{1, 2, 3, 4})
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {2.5, 0.5}, {4, 1}, {10, 1},
	}
	for _, c := range cases {
		if got := e.At(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("F(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestECDFEmptyAndSingleton(t *testing.T) {
	if !math.IsNaN(NewECDF(nil).At(1)) {
		t.Error("empty ECDF should be NaN")
	}
	e := NewECDF([]float64{5})
	if e.At(4.99) != 0 || e.At(5) != 1 {
		t.Error("singleton ECDF step wrong")
	}
	if e.Median() != 5 {
		t.Error("singleton median wrong")
	}
}

func TestECDFMonotoneProperty(t *testing.T) {
	r := rng.New(51)
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = r.Normal(0, 3)
	}
	e := NewECDF(xs)
	prev := -1.0
	for x := -10.0; x <= 10; x += 0.1 {
		v := e.At(x)
		if v < prev-1e-12 {
			t.Fatalf("ECDF decreased at %v", x)
		}
		prev = v
	}
	if e.At(e.Max()) != 1 {
		t.Error("F(max) != 1")
	}
}

func TestECDFQuantileRoundTrip(t *testing.T) {
	r := rng.New(52)
	xs := make([]float64, 1001)
	for i := range xs {
		xs[i] = r.Float64() * 100
	}
	e := NewECDF(xs)
	for _, q := range []float64{0.1, 0.25, 0.5, 0.9} {
		x := e.Quantile(q)
		got := e.At(x)
		if math.Abs(got-q) > 0.01 {
			t.Errorf("F(Q(%v)) = %v", q, got)
		}
	}
}

func TestECDFPoints(t *testing.T) {
	e := NewECDF([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	xs, ys := e.Points(5)
	if len(xs) != 5 || len(ys) != 5 {
		t.Fatalf("Points returned %d/%d", len(xs), len(ys))
	}
	for i := 1; i < len(xs); i++ {
		if xs[i] < xs[i-1] || ys[i] < ys[i-1] {
			t.Fatal("Points not monotone")
		}
	}
	if ys[len(ys)-1] != 1 {
		t.Errorf("last point y = %v", ys[len(ys)-1])
	}
	if x, y := e.Points(0); x != nil || y != nil {
		t.Error("Points(0) should be nil")
	}
}

func TestKSDistance(t *testing.T) {
	a := NewECDF([]float64{1, 2, 3})
	b := NewECDF([]float64{1, 2, 3})
	if d := KSDistance(a, b); d != 0 {
		t.Errorf("KS of identical samples = %v", d)
	}
	c := NewECDF([]float64{10, 11, 12})
	if d := KSDistance(a, c); math.Abs(d-1) > 1e-12 {
		t.Errorf("KS of disjoint samples = %v, want 1", d)
	}
}

func TestHistogramBinning(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	h.AddAll([]float64{0, 1.9, 2, 5, 9.99, 10})
	if h.Counts[0] != 2 { // 0 and 1.9
		t.Errorf("bin0 = %d", h.Counts[0])
	}
	if h.Counts[1] != 1 { // 2
		t.Errorf("bin1 = %d", h.Counts[1])
	}
	if h.Counts[4] != 2 { // 9.99 and 10 (right edge closed)
		t.Errorf("bin4 = %d", h.Counts[4])
	}
	if h.Total() != 6 {
		t.Errorf("total = %d", h.Total())
	}
}

func TestHistogramOutOfRange(t *testing.T) {
	h := NewHistogram(0, 1, 2)
	h.Add(-5)
	h.Add(2)
	if h.Under != 1 || h.Over != 1 || h.Total() != 0 {
		t.Errorf("under/over/total = %d/%d/%d", h.Under, h.Over, h.Total())
	}
}

func TestHistogramBinCenter(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	if got := h.BinCenter(0); got != 1 {
		t.Errorf("center0 = %v", got)
	}
	if got := h.BinCenter(4); got != 9 {
		t.Errorf("center4 = %v", got)
	}
}

func TestLogHistogram(t *testing.T) {
	h := NewLogHistogram(10)
	for _, v := range []float64{1, 5, 9.9, 10, 55, 999, 1000} {
		h.Add(v)
	}
	h.Add(0)              // ignored
	h.Add(-3)             // ignored
	if h.Counts[0] != 3 { // [1,10)
		t.Errorf("decade 0 = %d", h.Counts[0])
	}
	if h.Counts[1] != 2 { // [10,100)
		t.Errorf("decade 1 = %d", h.Counts[1])
	}
	if h.Counts[2] != 1 { // [100,1000)
		t.Errorf("decade 2 = %d", h.Counts[2])
	}
	if h.Counts[3] != 1 { // [1000,10000)
		t.Errorf("decade 3 = %d", h.Counts[3])
	}
	buckets := h.Buckets()
	if len(buckets) != 4 || buckets[0] != 0 || buckets[3] != 3 {
		t.Errorf("buckets = %v", buckets)
	}
	if h.Lower(2) != 100 {
		t.Errorf("Lower(2) = %v", h.Lower(2))
	}
}

// BenchmarkMedian times the median of 100,000 values: distinct uniform
// floats, and duration-shaped ones — lognormal whole seconds (median
// ~90 s), where most values repeat, as a worker's task times do.
func BenchmarkMedian(b *testing.B) {
	r := rng.New(1)
	uniform, durations := make([]float64, 100000), make([]float64, 100000)
	for i := range uniform {
		uniform[i] = r.Float64()
		durations[i] = math.Round(math.Exp(r.Normal(4.5, 1.2)))
	}
	for _, c := range []struct {
		name string
		xs   []float64
	}{{"uniform", uniform}, {"duration", durations}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Median(c.xs)
			}
		})
	}
}

func BenchmarkWelchTTest(b *testing.B) {
	r := rng.New(2)
	x := make([]float64, 1500)
	y := make([]float64, 1500)
	for i := range x {
		x[i] = r.Normal(0, 1)
		y[i] = r.Normal(0.1, 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		WelchTTest(x, y)
	}
}
