package rng

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical draws", same)
	}
}

func TestZeroSeedValid(t *testing.T) {
	r := New(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 90 {
		t.Fatalf("zero seed generator looks degenerate: %d distinct of 100", len(seen))
	}
}

func TestSplitIndependence(t *testing.T) {
	root := New(7)
	a := root.Split(1)
	b := root.Split(2)
	same := 0
	for i := 0; i < 200; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("split streams collided %d times", same)
	}
}

func TestSplitReproducible(t *testing.T) {
	mk := func() []uint64 {
		root := New(99)
		s := root.Split(5)
		out := make([]uint64, 10)
		for i := range out {
			out[i] = s.Uint64()
		}
		return out
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("split stream not reproducible at %d", i)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	if err := quick.Check(func(_ int) bool {
		f := r.Float64()
		return f >= 0 && f < 1
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnRange(t *testing.T) {
	r := New(4)
	for n := 1; n < 100; n++ {
		for i := 0; i < 20; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nUniform(t *testing.T) {
	r := New(5)
	const n = 10
	counts := make([]int, n)
	const draws = 100000
	for i := 0; i < draws; i++ {
		counts[r.Uint64n(n)]++
	}
	want := draws / n
	for i, c := range counts {
		if math.Abs(float64(c-want)) > 4*math.Sqrt(float64(want)) {
			t.Errorf("bucket %d: %d draws, want ~%d", i, c, want)
		}
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(6)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		x := r.NormFloat64()
		sum += x
		sumsq += x * x
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %.4f, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("normal variance = %.4f, want ~1", variance)
	}
}

func TestLogNormalMedian(t *testing.T) {
	r := New(7)
	const n = 100001
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.LogNormalMedian(120, 0.8)
	}
	med := medianOf(xs)
	if math.Abs(med-120)/120 > 0.05 {
		t.Errorf("log-normal median = %.1f, want ~120", med)
	}
}

func TestParetoTail(t *testing.T) {
	r := New(8)
	const n = 100000
	over := 0
	for i := 0; i < n; i++ {
		x := r.Pareto(1, 1.5)
		if x < 1 {
			t.Fatalf("Pareto below xm: %f", x)
		}
		if x > 10 {
			over++
		}
	}
	// P(X > 10) = 10^-1.5 ≈ 0.0316
	got := float64(over) / n
	if math.Abs(got-0.0316) > 0.005 {
		t.Errorf("Pareto tail mass = %.4f, want ~0.0316", got)
	}
}

func TestPoissonMean(t *testing.T) {
	r := New(9)
	for _, lambda := range []float64{0.5, 3, 20, 200} {
		const n = 50000
		sum := 0
		for i := 0; i < n; i++ {
			sum += r.Poisson(lambda)
		}
		mean := float64(sum) / n
		if math.Abs(mean-lambda)/lambda > 0.05 {
			t.Errorf("Poisson(%g) mean = %.3f", lambda, mean)
		}
	}
}

func TestPoissonZeroLambda(t *testing.T) {
	r := New(10)
	if got := r.Poisson(0); got != 0 {
		t.Fatalf("Poisson(0) = %d", got)
	}
	if got := r.Poisson(-1); got != 0 {
		t.Fatalf("Poisson(-1) = %d", got)
	}
}

func TestBetaWithMean(t *testing.T) {
	r := New(11)
	for _, mean := range []float64{0.2, 0.5, 0.9} {
		const n = 50000
		sum := 0.0
		for i := 0; i < n; i++ {
			x := r.BetaWithMean(mean, 30)
			if x < 0 || x > 1 {
				t.Fatalf("Beta variate out of [0,1]: %f", x)
			}
			sum += x
		}
		got := sum / n
		if math.Abs(got-mean) > 0.01 {
			t.Errorf("BetaWithMean(%g) mean = %.4f", mean, got)
		}
	}
}

func TestBetaWithMeanEdges(t *testing.T) {
	r := New(12)
	if got := r.BetaWithMean(0, 10); got != 0 {
		t.Errorf("BetaWithMean(0) = %f", got)
	}
	if got := r.BetaWithMean(1, 10); got != 1 {
		t.Errorf("BetaWithMean(1) = %f", got)
	}
}

func TestGammaMean(t *testing.T) {
	r := New(13)
	for _, shape := range []float64{0.5, 1, 4.5} {
		const n = 80000
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += r.Gamma(shape)
		}
		got := sum / n
		if math.Abs(got-shape)/shape > 0.05 {
			t.Errorf("Gamma(%g) mean = %.3f", shape, got)
		}
	}
}

func TestExpMean(t *testing.T) {
	r := New(15)
	const n = 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Exp(2)
	}
	if got := sum / n; math.Abs(got-0.5) > 0.01 {
		t.Errorf("Exp(2) mean = %.4f, want ~0.5", got)
	}
}

func medianOf(xs []float64) float64 {
	buf := append([]float64(nil), xs...)
	sort.Float64s(buf)
	return buf[len(buf)/2]
}
