package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"crowdscope/internal/rng"
)

func TestMeanBasics(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("Mean = %v", got)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("Mean of empty should be NaN")
	}
}

func TestVarianceKnown(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	// Sum of squared deviations = 32; n-1 = 7.
	want := 32.0 / 7.0
	if got := Variance(xs); math.Abs(got-want) > 1e-12 {
		t.Errorf("Variance = %v, want %v", got, want)
	}
	if !math.IsNaN(Variance([]float64{1})) {
		t.Error("Variance of single element should be NaN")
	}
}

func TestMedianOddEven(t *testing.T) {
	if got := Median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if got := Median([]float64{7}); got != 7 {
		t.Errorf("singleton median = %v", got)
	}
	if !math.IsNaN(Median(nil)) {
		t.Error("empty median should be NaN")
	}
}

func TestMedianDoesNotMutate(t *testing.T) {
	xs := []float64{9, 1, 5, 3, 7}
	Median(xs)
	want := []float64{9, 1, 5, 3, 7}
	for i := range xs {
		if xs[i] != want[i] {
			t.Fatalf("Median mutated input at %d", i)
		}
	}
}

func TestMedianMatchesSortProperty(t *testing.T) {
	r := rng.New(31)
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.Intn(200)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.Float64()*2000 - 1000
		}
		got := Median(xs)
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		var want float64
		if n%2 == 1 {
			want = sorted[n/2]
		} else {
			want = (sorted[n/2-1] + sorted[n/2]) / 2
		}
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: Median = %v, want %v (n=%d)", trial, got, want, n)
		}
	}
}

// TestSelectMatchesSort: the branch-free selection finds what a sorted
// copy holds, for every rank of every size 1-64 and the median of 10^5
// values, over heavy-duplicate integers, all-equal, sorted, reversed and
// lognormal whole-second inputs; and a slice holding a NaN or a -0 gets
// today's selectKth result bit for bit.
func TestSelectMatchesSort(t *testing.T) {
	r := rng.New(45)
	shapes := map[string]func(n int) []float64{
		"duplicates": func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64(r.Intn(4))
			}
			return xs
		},
		"all-equal": func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = 7
			}
			return xs
		},
		"sorted": func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64(i / 3)
			}
			return xs
		},
		"reversed": func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64(n - i)
			}
			return xs
		},
		"durations": func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = math.Round(math.Exp(r.Normal(4.5, 1.2)))
			}
			return xs
		},
		"infinities": func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = []float64{math.Inf(-1), 0, 1, 2.5, math.Inf(1)}[r.Intn(5)]
			}
			return xs
		},
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	median := func(sorted []float64) float64 {
		n := len(sorted)
		if n%2 == 1 {
			return sorted[n/2]
		}
		return (sorted[n/2-1] + sorted[n/2]) / 2
	}
	sizes := []int{100000}
	for n := 1; n <= 64; n++ {
		sizes = append(sizes, n)
	}
	for name, draw := range shapes {
		for _, n := range sizes {
			xs := draw(n)
			sorted := append([]float64(nil), xs...)
			sort.Float64s(sorted)
			if got, want := MedianInPlace(append([]float64(nil), xs...)), median(sorted); !same(got, want) {
				t.Fatalf("%s, n=%d: MedianInPlace = %v, sorted copy %v", name, n, got, want)
			}
			if got, want := Median(xs), median(sorted); !same(got, want) {
				t.Fatalf("%s, n=%d: Median = %v, sorted copy %v", name, n, got, want)
			}
			if n > 64 {
				continue
			}
			for k := 0; k < n; k++ {
				buf := append([]float64(nil), xs...)
				if got := selectOrdered(buf, k); !same(got, sorted[k]) {
					t.Fatalf("%s, n=%d: rank %d = %v, sorted copy %v", name, n, k, got, sorted[k])
				}
				for i, v := range buf {
					if i < k && v > buf[k] || i > k && v < buf[k] {
						t.Fatalf("%s, n=%d, rank %d: %v at %d is on the wrong side of %v", name, n, k, v, i, buf[k])
					}
				}
			}
		}
	}

	// NaN and -0: MedianInPlace keeps today's selection.
	specials := []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), 1, -1, 0.5}
	for _, n := range sizes {
		for trial := 0; trial < 4; trial++ {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = specials[r.Intn(len(specials))]
			}
			xs[r.Intn(n)] = specials[r.Intn(2)] // at least one NaN or -0
			got := MedianInPlace(append([]float64(nil), xs...))
			if want := medianInPlace(append([]float64(nil), xs...), selectKth); !same(got, want) {
				t.Fatalf("n=%d with NaN/-0: MedianInPlace = %v, selectKth %v", n, got, want)
			}
		}
	}
}

func TestMedianWithDuplicates(t *testing.T) {
	xs := []float64{5, 5, 5, 5, 5, 5}
	if got := Median(xs); got != 5 {
		t.Errorf("duplicate median = %v", got)
	}
}

func TestQuantileEndpoints(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	if got := Quantile(xs, 0); got != 10 {
		t.Errorf("q0 = %v", got)
	}
	if got := Quantile(xs, 1); got != 40 {
		t.Errorf("q1 = %v", got)
	}
	if got := Quantile(xs, 0.5); got != 25 {
		t.Errorf("q0.5 = %v", got)
	}
}

func TestQuantileInterpolation(t *testing.T) {
	xs := []float64{0, 10}
	if got := Quantile(xs, 0.25); got != 2.5 {
		t.Errorf("q0.25 = %v, want 2.5", got)
	}
}

func TestQuantileInvalid(t *testing.T) {
	if !math.IsNaN(Quantile(nil, 0.5)) || !math.IsNaN(Quantile([]float64{1}, -0.1)) || !math.IsNaN(Quantile([]float64{1}, 1.1)) {
		t.Error("invalid quantile inputs should yield NaN")
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	r := rng.New(32)
	if err := quick.Check(func(seed uint64) bool {
		rr := rng.New(seed)
		n := 2 + rr.Intn(50)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rr.Float64() * 100
		}
		q1 := r.Float64()
		q2 := r.Float64()
		if q1 > q2 {
			q1, q2 = q2, q1
		}
		return Quantile(xs, q1) <= Quantile(xs, q2)+1e-12
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMinMaxSum(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if Min(xs) != -1 || Max(xs) != 7 || Sum(xs) != 11 {
		t.Errorf("Min/Max/Sum = %v/%v/%v", Min(xs), Max(xs), Sum(xs))
	}
	if !math.IsNaN(Min(nil)) || !math.IsNaN(Max(nil)) {
		t.Error("empty Min/Max should be NaN")
	}
}

func TestGiniUniformAndSkewed(t *testing.T) {
	even := []float64{5, 5, 5, 5}
	if g := Gini(even); math.Abs(g) > 1e-12 {
		t.Errorf("Gini of equal sample = %v", g)
	}
	skewed := []float64{0, 0, 0, 100}
	if g := Gini(skewed); g < 0.7 {
		t.Errorf("Gini of concentrated sample = %v, want high", g)
	}
	if Gini([]float64{0, 0}) != 0 {
		t.Error("Gini of zero sample should be 0")
	}
}

func TestGiniBounds(t *testing.T) {
	r := rng.New(33)
	for trial := 0; trial < 100; trial++ {
		n := 2 + r.Intn(100)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.Float64() * 50
		}
		g := Gini(xs)
		if g < -1e-9 || g > 1 {
			t.Fatalf("Gini out of [0,1]: %v", g)
		}
	}
}

func TestTopShare(t *testing.T) {
	xs := []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 91}
	got := TopShare(xs, 0.10)
	if math.Abs(got-0.91) > 1e-12 {
		t.Errorf("TopShare = %v, want 0.91", got)
	}
	if got := TopShare(xs, 1.0); math.Abs(got-1) > 1e-12 {
		t.Errorf("TopShare(1.0) = %v", got)
	}
	if !math.IsNaN(TopShare(nil, 0.1)) {
		t.Error("empty TopShare should be NaN")
	}
}

func TestTopShareMonotone(t *testing.T) {
	r := rng.New(34)
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = r.Pareto(1, 1.2)
	}
	prev := 0.0
	for _, f := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 1.0} {
		s := TopShare(xs, f)
		if s < prev-1e-12 {
			t.Fatalf("TopShare not monotone at %v: %v < %v", f, s, prev)
		}
		prev = s
	}
}

func TestRanksWithTies(t *testing.T) {
	xs := []float64{10, 20, 20, 30}
	ranks := Ranks(xs)
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if math.Abs(ranks[i]-want[i]) > 1e-12 {
			t.Fatalf("Ranks = %v, want %v", ranks, want)
		}
	}
}

// TestRanksMatchReference: Ranks equals the O(n²) definition — one plus
// the values below, plus half the other values equal — on random inputs
// of 0 to 300 values drawn from few distinct values, so ties are heavy;
// the sizes cover short inputs and long ones alike.
func TestRanksMatchReference(t *testing.T) {
	r := rng.New(5)
	for trial := 0; trial < 400; trial++ {
		n := trial % 20
		if trial%2 == 1 {
			n = r.Intn(301)
		}
		distinct := 1 + r.Intn(8)
		if trial%5 == 0 {
			distinct = n + 1
		}
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(r.Intn(distinct)) - 2.5
		}
		got := Ranks(xs)
		for i, x := range xs {
			less, equal := 0, 0
			for _, y := range xs {
				if y < x {
					less++
				} else if y == x {
					equal++
				}
			}
			if want := 1 + float64(less) + float64(equal-1)/2; got[i] != want {
				t.Fatalf("n=%d: rank of xs[%d]=%v is %v, want %v", n, i, x, got[i], want)
			}
		}
	}
}

func TestSpearmanPerfect(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{10, 100, 1000, 10000, 100000}
	if got := SpearmanCorr(x, y); math.Abs(got-1) > 1e-12 {
		t.Errorf("Spearman of monotone pair = %v", got)
	}
	yRev := []float64{5, 4, 3, 2, 1}
	if got := SpearmanCorr(x, yRev); math.Abs(got+1) > 1e-12 {
		t.Errorf("Spearman of reversed pair = %v", got)
	}
}

func TestPearsonKnown(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{2, 4, 6}
	if got := PearsonCorr(x, y); math.Abs(got-1) > 1e-12 {
		t.Errorf("Pearson = %v", got)
	}
	if !math.IsNaN(PearsonCorr(x, []float64{1, 1, 1})) {
		t.Error("Pearson with constant sample should be NaN")
	}
	if !math.IsNaN(PearsonCorr(x, []float64{1, 2})) {
		t.Error("Pearson with mismatched lengths should be NaN")
	}
}
