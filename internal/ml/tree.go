// Package ml implements the predictive setting of Section 4.9: a CART
// decision-tree classifier over small design-feature sets, metric
// bucketization by range and by percentile, and k-fold cross-validation
// with exact and ±1-bucket accuracies. The standard library has no ML
// support, so the classifier is built here.
package ml

import (
	"math"
	"slices"
	"sort"
)

// TreeOptions bound tree growth.
type TreeOptions struct {
	MaxDepth    int
	MinLeaf     int // minimum samples per leaf
	MinImpurity float64
}

// DefaultTreeOptions mirrors a shallow sklearn-style default adequate for
// 3-4 feature problems.
func DefaultTreeOptions() TreeOptions {
	return TreeOptions{MaxDepth: 12, MinLeaf: 5, MinImpurity: 1e-7}
}

// Tree is a trained decision tree classifier.
type Tree struct {
	nodes []node
	// Classes is the number of distinct class labels.
	Classes int
}

// splitScratch is what bestSplit reuses across the features of a node and
// the nodes of a tree: the (value, class) pairs it sorts and the class
// counts on either side of a candidate threshold.
type splitScratch struct {
	pairs       []valueClass
	left, right []int
}

type valueClass struct {
	v     float64
	class int
}

type node struct {
	feature   int     // split feature; -1 for leaf
	threshold float64 // go left when x[feature] <= threshold
	left      int32
	right     int32
	label     int // majority class at this node
}

// Train fits a CART tree with Gini impurity on rows X (each a feature
// vector) and integer class labels y in [0, classes).
func Train(X [][]float64, y []int, classes int, opts TreeOptions) *Tree {
	if len(X) == 0 || len(X) != len(y) {
		panic("ml: empty or mismatched training data")
	}
	if opts.MaxDepth <= 0 {
		opts = DefaultTreeOptions()
	}
	t := &Tree{Classes: classes}
	idx := make([]int, len(X))
	for i := range idx {
		idx[i] = i
	}
	sc := &splitScratch{
		pairs: make([]valueClass, len(X)),
		left:  make([]int, classes),
		right: make([]int, classes),
	}
	t.grow(X, y, idx, 0, opts, sc)
	return t
}

// grow builds the subtree over the sample subset idx and returns its node
// position.
func (t *Tree) grow(X [][]float64, y []int, idx []int, depth int, opts TreeOptions, sc *splitScratch) int32 {
	pos := int32(len(t.nodes))
	counts := make([]int, t.Classes)
	for _, i := range idx {
		counts[y[i]]++
	}
	label, impurity := majorityAndGini(counts, len(idx))
	t.nodes = append(t.nodes, node{feature: -1, label: label})

	if depth >= opts.MaxDepth || len(idx) < 2*opts.MinLeaf || impurity <= opts.MinImpurity {
		return pos
	}
	feat, thr, gain := bestSplit(X, y, idx, impurity, opts, sc)
	if gain <= 0 {
		return pos
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
		return pos
	}
	l := t.grow(X, y, left, depth+1, opts, sc)
	r := t.grow(X, y, right, depth+1, opts, sc)
	t.nodes[pos].feature = feat
	t.nodes[pos].threshold = thr
	t.nodes[pos].left = l
	t.nodes[pos].right = r
	return pos
}

// bestSplit scans every feature for the Gini-optimal threshold. Per
// feature it sorts the node's (value, class) pairs by value; candidate
// thresholds fall only between distinct values, where the class counts on
// either side do not depend on how ties were ordered, so any sort finds
// the same split.
func bestSplit(X [][]float64, y []int, idx []int, parentGini float64, opts TreeOptions, sc *splitScratch) (feat int, thr, gain float64) {
	feat = -1
	nFeat := len(X[idx[0]])
	n := len(idx)

	pairs := sc.pairs[:n]
	for f := 0; f < nFeat; f++ {
		clear(sc.left)
		clear(sc.right)
		for k, i := range idx {
			pairs[k] = valueClass{X[i][f], y[i]}
			sc.right[y[i]]++
		}
		slices.SortFunc(pairs, func(a, b valueClass) int {
			if a.v < b.v {
				return -1
			}
			if a.v > b.v {
				return 1
			}
			return 0
		})
		for k := 0; k < n-1; k++ {
			sc.left[pairs[k].class]++
			sc.right[pairs[k].class]--
			if pairs[k].v == pairs[k+1].v {
				continue // can't split between equal values
			}
			nl, nr := k+1, n-k-1
			if nl < opts.MinLeaf || nr < opts.MinLeaf {
				continue
			}
			g := weightedGini(sc.left, nl, sc.right, nr)
			if improvement := parentGini - g; improvement > gain {
				gain = improvement
				feat = f
				thr = (pairs[k].v + pairs[k+1].v) / 2
			}
		}
	}
	return feat, thr, gain
}

func majorityAndGini(counts []int, n int) (label int, gini float64) {
	best := -1
	sumsq := 0.0
	for c, cnt := range counts {
		if cnt > best {
			best = cnt
			label = c
		}
		p := float64(cnt) / float64(n)
		sumsq += p * p
	}
	return label, 1 - sumsq
}

func weightedGini(lc []int, nl int, rc []int, nr int) float64 {
	_, gl := majorityAndGini(lc, nl)
	_, gr := majorityAndGini(rc, nr)
	n := float64(nl + nr)
	return float64(nl)/n*gl + float64(nr)/n*gr
}

// Predict returns the class of one feature vector.
func (t *Tree) Predict(x []float64) int {
	pos := int32(0)
	for {
		nd := &t.nodes[pos]
		if nd.feature < 0 {
			return nd.label
		}
		if x[nd.feature] <= nd.threshold {
			pos = nd.left
		} else {
			pos = nd.right
		}
	}
}

// Depth returns the tree's maximum depth (0 for a lone leaf).
func (t *Tree) Depth() int { return t.depth(0) }

func (t *Tree) depth(pos int32) int {
	nd := &t.nodes[pos]
	if nd.feature < 0 {
		return 0
	}
	l, r := t.depth(nd.left), t.depth(nd.right)
	if l > r {
		return l + 1
	}
	return r + 1
}

// NumNodes returns the node count.
func (t *Tree) NumNodes() int { return len(t.nodes) }

// Bucketizer maps a continuous metric to one of n buckets by upper bounds.
type Bucketizer struct {
	// Bounds are ascending inclusive upper bounds; values above the last
	// bound clamp into the final bucket.
	Bounds []float64
}

// ByRange divides [min,max] of the values into n equal-width buckets
// (Section 4.9's "bucketization by range").
func ByRange(values []float64, n int) Bucketizer {
	lo, hi := values[0], values[0]
	for _, v := range values {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi == lo {
		hi = lo + 1
	}
	b := Bucketizer{Bounds: make([]float64, n)}
	for i := 0; i < n; i++ {
		b.Bounds[i] = lo + (hi-lo)*float64(i+1)/float64(n)
	}
	return b
}

// ByPercentile divides the values into n equal-count buckets (Section
// 4.9's "bucketization by percentiles").
func ByPercentile(values []float64, n int) Bucketizer {
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	b := Bucketizer{Bounds: make([]float64, n)}
	for i := 0; i < n; i++ {
		q := float64(i+1) / float64(n)
		pos := int(math.Ceil(q*float64(len(sorted)))) - 1
		if pos < 0 {
			pos = 0
		}
		if pos >= len(sorted) {
			pos = len(sorted) - 1
		}
		b.Bounds[i] = sorted[pos]
	}
	return b
}

// Bucket maps a value to its bucket index in [0, len(Bounds)).
func (b Bucketizer) Bucket(v float64) int {
	i := sort.SearchFloat64s(b.Bounds, v)
	if i >= len(b.Bounds) {
		i = len(b.Bounds) - 1
	}
	return i
}

// Apply bucketizes a whole vector.
func (b Bucketizer) Apply(values []float64) []int {
	out := make([]int, len(values))
	for i, v := range values {
		out[i] = b.Bucket(v)
	}
	return out
}

// Counts returns the bucket occupancy of values.
func (b Bucketizer) Counts(values []float64) []int {
	out := make([]int, len(b.Bounds))
	for _, v := range values {
		out[b.Bucket(v)]++
	}
	return out
}

// CVResult reports cross-validated accuracies.
type CVResult struct {
	// Accuracy is the exact-bucket hit rate.
	Accuracy float64
	// WithinOne tolerates being one bucket off (the paper's ±1 metric).
	WithinOne float64
	// Folds is the number of folds evaluated.
	Folds int
}

// CrossValidate runs k-fold cross-validation of a tree classifier over X
// and integer labels y, reporting mean exact and ±1-bucket accuracy. The
// fold assignment is deterministic (round-robin) so results are
// reproducible.
func CrossValidate(X [][]float64, y []int, classes, k int, opts TreeOptions) CVResult {
	if k < 2 || len(X) < k {
		panic("ml: bad cross-validation setup")
	}
	var accSum, tolSum float64
	for fold := 0; fold < k; fold++ {
		var trX [][]float64
		var trY []int
		var teX [][]float64
		var teY []int
		for i := range X {
			if i%k == fold {
				teX = append(teX, X[i])
				teY = append(teY, y[i])
			} else {
				trX = append(trX, X[i])
				trY = append(trY, y[i])
			}
		}
		tree := Train(trX, trY, classes, opts)
		hit, tol := 0, 0
		for i := range teX {
			p := tree.Predict(teX[i])
			if p == teY[i] {
				hit++
			}
			if p-teY[i] <= 1 && teY[i]-p <= 1 {
				tol++
			}
		}
		accSum += float64(hit) / float64(len(teX))
		tolSum += float64(tol) / float64(len(teX))
	}
	return CVResult{Accuracy: accSum / float64(k), WithinOne: tolSum / float64(k), Folds: k}
}
