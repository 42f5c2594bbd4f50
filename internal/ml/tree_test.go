package ml

import (
	"math"
	"slices"
	"sort"
	"testing"

	"crowdscope/internal/rng"
)

func TestTreeLearnsAxisSplit(t *testing.T) {
	// Class = 1 iff x0 > 0.5: a single split suffices.
	r := rng.New(81)
	var X [][]float64
	var y []int
	for i := 0; i < 500; i++ {
		x := []float64{r.Float64(), r.Float64()}
		c := 0
		if x[0] > 0.5 {
			c = 1
		}
		X = append(X, x)
		y = append(y, c)
	}
	tree := Train(X, y, 2, DefaultTreeOptions())
	errs := 0
	for i := range X {
		if tree.Predict(X[i]) != y[i] {
			errs++
		}
	}
	if errs > 5 {
		t.Errorf("training errors = %d on a separable problem", errs)
	}
	if tree.Depth() > 4 {
		t.Errorf("depth = %d for single-split problem", tree.Depth())
	}
}

func TestTreeLearnsXor(t *testing.T) {
	// XOR needs depth >= 2; a stump cannot express it.
	r := rng.New(82)
	var X [][]float64
	var y []int
	for i := 0; i < 800; i++ {
		a, b := r.Float64(), r.Float64()
		c := 0
		if (a > 0.5) != (b > 0.5) {
			c = 1
		}
		X = append(X, []float64{a, b})
		y = append(y, c)
	}
	tree := Train(X, y, 2, DefaultTreeOptions())
	errs := 0
	for i := range X {
		if tree.Predict(X[i]) != y[i] {
			errs++
		}
	}
	if frac := float64(errs) / float64(len(X)); frac > 0.05 {
		t.Errorf("XOR training error = %.3f", frac)
	}
}

func TestTreeConstantLabels(t *testing.T) {
	X := [][]float64{{1}, {2}, {3}, {4}, {5}, {6}, {7}, {8}, {9}, {10}}
	y := []int{3, 3, 3, 3, 3, 3, 3, 3, 3, 3}
	tree := Train(X, y, 5, DefaultTreeOptions())
	if tree.NumNodes() != 1 {
		t.Errorf("pure labels grew %d nodes", tree.NumNodes())
	}
	if tree.Predict([]float64{42}) != 3 {
		t.Error("constant tree mispredicts")
	}
}

func TestTreeRespectsMinLeaf(t *testing.T) {
	r := rng.New(83)
	var X [][]float64
	var y []int
	for i := 0; i < 200; i++ {
		x := r.Float64()
		c := 0
		if x > 0.5 {
			c = 1
		}
		// 5% label noise.
		if r.Bool(0.05) {
			c = 1 - c
		}
		X = append(X, []float64{x})
		y = append(y, c)
	}
	opts := TreeOptions{MaxDepth: 20, MinLeaf: 50, MinImpurity: 1e-9}
	tree := Train(X, y, 2, opts)
	if tree.Depth() > 2 {
		t.Errorf("MinLeaf=50 but depth = %d", tree.Depth())
	}
}

func TestTrainPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty training data should panic")
		}
	}()
	Train(nil, nil, 2, DefaultTreeOptions())
}

func TestByRangeBuckets(t *testing.T) {
	b := ByRange([]float64{0, 10}, 5)
	cases := []struct {
		v    float64
		want int
	}{{0, 0}, {1.9, 0}, {2, 0}, {2.1, 1}, {9.99, 4}, {10, 4}, {11, 4}, {-5, 0}}
	for _, c := range cases {
		if got := b.Bucket(c.v); got != c.want {
			t.Errorf("Bucket(%v) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestByRangeDegenerateConstant(t *testing.T) {
	b := ByRange([]float64{7, 7, 7}, 10)
	if got := b.Bucket(7); got < 0 || got >= 10 {
		t.Errorf("constant-sample bucket = %d", got)
	}
}

func TestByPercentileBalance(t *testing.T) {
	r := rng.New(84)
	vals := make([]float64, 3000)
	for i := range vals {
		vals[i] = r.LogNormalMedian(100, 2)
	}
	b := ByPercentile(vals, 10)
	counts := b.Counts(vals)
	for i, c := range counts {
		if c < 200 || c > 400 {
			t.Errorf("percentile bucket %d holds %d of 3000", i, c)
		}
	}
}

func TestByRangeSkewConcentrates(t *testing.T) {
	// With a heavy-tailed metric, range bucketization puts nearly all
	// mass in bucket 0 — exactly the skew Section 4.9 reports.
	r := rng.New(85)
	vals := make([]float64, 3000)
	for i := range vals {
		vals[i] = r.Pareto(1, 0.9)
	}
	b := ByRange(vals, 10)
	counts := b.Counts(vals)
	if frac := float64(counts[0]) / 3000; frac < 0.9 {
		t.Errorf("bucket-0 mass = %.2f, expected ≥0.9 for Pareto values", frac)
	}
}

func TestBucketizerApply(t *testing.T) {
	b := ByRange([]float64{0, 100}, 4)
	out := b.Apply([]float64{10, 60, 99})
	want := []int{0, 2, 3}
	for i := range want {
		if out[i] != want[i] {
			t.Errorf("Apply[%d] = %d, want %d", i, out[i], want[i])
		}
	}
}

func TestCrossValidatePredictable(t *testing.T) {
	r := rng.New(86)
	var X [][]float64
	var y []int
	for i := 0; i < 600; i++ {
		a := r.Float64()
		b := r.Float64()
		c := 0
		if a > 0.66 {
			c = 2
		} else if a > 0.33 {
			c = 1
		}
		X = append(X, []float64{a, b})
		y = append(y, c)
	}
	res := CrossValidate(X, y, 3, 5, DefaultTreeOptions())
	if res.Folds != 5 {
		t.Errorf("Folds = %d", res.Folds)
	}
	if res.Accuracy < 0.9 {
		t.Errorf("CV accuracy = %.3f on a separable problem", res.Accuracy)
	}
	if res.WithinOne < res.Accuracy {
		t.Error("±1 accuracy cannot be below exact accuracy")
	}
}

func TestCrossValidateRandomLabels(t *testing.T) {
	r := rng.New(87)
	var X [][]float64
	var y []int
	for i := 0; i < 400; i++ {
		X = append(X, []float64{r.Float64()})
		y = append(y, r.Intn(10))
	}
	res := CrossValidate(X, y, 10, 5, DefaultTreeOptions())
	// Random 10-class labels: accuracy should hover near 10%.
	if res.Accuracy > 0.25 {
		t.Errorf("CV accuracy = %.3f on random labels", res.Accuracy)
	}
}

func TestCrossValidatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("k=1 should panic")
		}
	}()
	CrossValidate([][]float64{{1}}, []int{0}, 2, 1, DefaultTreeOptions())
}

func TestWithinOneSemantics(t *testing.T) {
	// Construct a problem where the tree is usually one bucket off:
	// labels follow floor(10x) but training sees noisy features.
	r := rng.New(88)
	var X [][]float64
	var y []int
	for i := 0; i < 1000; i++ {
		x := r.Float64()
		bucket := int(x * 10)
		if bucket > 9 {
			bucket = 9
		}
		noisy := x + r.Normal(0, 0.05)
		X = append(X, []float64{noisy})
		y = append(y, bucket)
	}
	res := CrossValidate(X, y, 10, 5, DefaultTreeOptions())
	if res.WithinOne < res.Accuracy+0.1 {
		t.Errorf("±1 tolerance should add substantial accuracy here: exact=%.3f ±1=%.3f",
			res.Accuracy, res.WithinOne)
	}
	if math.IsNaN(res.Accuracy) {
		t.Fatal("NaN accuracy")
	}
}

func BenchmarkTrain(b *testing.B) {
	r := rng.New(89)
	var X [][]float64
	var y []int
	for i := 0; i < 3000; i++ {
		x := []float64{r.Float64() * 100, float64(r.Intn(3)), r.Float64(), float64(r.Intn(5))}
		y = append(y, int(x[0]/10))
		X = append(X, x)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Train(X, y, 10, DefaultTreeOptions())
	}
}

// bruteTree is the split search with nothing clever in it: at every node,
// every feature, every midpoint between two neighbouring distinct values,
// with both sides' class counts taken by walking the node's rows. Same
// stopping rules, same impurity arithmetic and the same first-best-wins
// order as Train, so the two must grow the same tree.
type bruteTree struct {
	feature     int // -1 for a leaf
	threshold   float64
	label       int
	left, right *bruteTree
}

func bruteTrain(X [][]float64, y []int, idx []int, classes, depth int, opts TreeOptions) *bruteTree {
	counts := make([]int, classes)
	for _, i := range idx {
		counts[y[i]]++
	}
	label, impurity := majorityAndGini(counts, len(idx))
	nd := &bruteTree{feature: -1, label: label}
	if depth >= opts.MaxDepth || len(idx) < 2*opts.MinLeaf || impurity <= opts.MinImpurity {
		return nd
	}
	feat, thr, gain := -1, 0.0, 0.0
	for f := range X[idx[0]] {
		var distinct []float64
		for _, i := range idx {
			distinct = append(distinct, X[i][f])
		}
		sort.Float64s(distinct)
		distinct = slices.Compact(distinct)
		for d := 0; d+1 < len(distinct); d++ {
			lc, rc := make([]int, classes), make([]int, classes)
			nl, nr := 0, 0
			for _, i := range idx {
				if X[i][f] <= distinct[d] {
					lc[y[i]]++
					nl++
				} else {
					rc[y[i]]++
					nr++
				}
			}
			if nl < opts.MinLeaf || nr < opts.MinLeaf {
				continue
			}
			if improvement := impurity - weightedGini(lc, nl, rc, nr); improvement > gain {
				feat, thr, gain = f, (distinct[d]+distinct[d+1])/2, improvement
			}
		}
	}
	if gain <= 0 {
		return nd
	}
	var left, right []int
	for _, i := range idx {
		if X[i][feat] <= thr {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < opts.MinLeaf || len(right) < opts.MinLeaf {
		return nd
	}
	nd.feature, nd.threshold = feat, thr
	nd.left = bruteTrain(X, y, left, classes, depth+1, opts)
	nd.right = bruteTrain(X, y, right, classes, depth+1, opts)
	return nd
}

func (b *bruteTree) predict(x []float64) int {
	for b.feature >= 0 {
		if x[b.feature] <= b.threshold {
			b = b.left
		} else {
			b = b.right
		}
	}
	return b.label
}

func (b *bruteTree) size() int {
	if b.feature < 0 {
		return 1
	}
	return 1 + b.left.size() + b.right.size()
}

// TestTreeMatchesBruteForceOnTies: bestSplit sorts (value, class) pairs
// with an unstable sort and leaves ties in whatever order it put them. On
// data that is mostly ties — small integer features, as the design
// features of Section 4.9 are, with noisy labels so the tree grows deep —
// every prediction and the node count must match the brute-force search,
// which never orders anything.
func TestTreeMatchesBruteForceOnTies(t *testing.T) {
	r := rng.New(4949)
	for _, shape := range []struct{ n, feats, levels, classes int }{
		{600, 4, 3, 3},  // three values per feature: almost nothing but ties
		{400, 3, 7, 5},  // more classes than fit a clean split
		{250, 2, 40, 2}, // some runs of distinct values between the ties
		{60, 5, 2, 4},   // small: MinLeaf bites
	} {
		X := make([][]float64, shape.n)
		y := make([]int, shape.n)
		for i := range X {
			X[i] = make([]float64, shape.feats)
			sum := 0
			for f := range X[i] {
				v := r.Intn(shape.levels)
				X[i][f] = float64(v)
				sum += v * (f + 1)
			}
			y[i] = sum % shape.classes
			if r.Intn(4) == 0 {
				y[i] = r.Intn(shape.classes) // noise: equal rows with different labels
			}
		}
		idx := make([]int, shape.n)
		for i := range idx {
			idx[i] = i
		}
		opts := DefaultTreeOptions()
		tree := Train(X, y, shape.classes, opts)
		brute := bruteTrain(X, y, idx, shape.classes, 0, opts)
		if tree.NumNodes() != brute.size() {
			t.Errorf("%+v: %d nodes, brute force %d", shape, tree.NumNodes(), brute.size())
		}
		for i := range X {
			if got, want := tree.Predict(X[i]), brute.predict(X[i]); got != want {
				t.Fatalf("%+v: row %d predicted %d, brute force %d", shape, i, got, want)
			}
		}
	}
}
