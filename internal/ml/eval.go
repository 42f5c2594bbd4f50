package ml

import (
	"fmt"
	"strings"
)

// ConfusionMatrix counts predicted-vs-true class pairs; rows are truth,
// columns are predictions.
type ConfusionMatrix struct {
	Classes int
	Counts  [][]int
}

// NewConfusionMatrix allocates a matrix for n classes.
func NewConfusionMatrix(n int) *ConfusionMatrix {
	m := &ConfusionMatrix{Classes: n, Counts: make([][]int, n)}
	for i := range m.Counts {
		m.Counts[i] = make([]int, n)
	}
	return m
}

// Add records one (truth, predicted) observation.
func (m *ConfusionMatrix) Add(truth, predicted int) {
	if truth >= 0 && truth < m.Classes && predicted >= 0 && predicted < m.Classes {
		m.Counts[truth][predicted]++
	}
}

// Total returns the number of recorded observations.
func (m *ConfusionMatrix) Total() int {
	t := 0
	for _, row := range m.Counts {
		for _, c := range row {
			t += c
		}
	}
	return t
}

// Accuracy returns the diagonal mass fraction.
func (m *ConfusionMatrix) Accuracy() float64 {
	total := m.Total()
	if total == 0 {
		return 0
	}
	diag := 0
	for i := 0; i < m.Classes; i++ {
		diag += m.Counts[i][i]
	}
	return float64(diag) / float64(total)
}

// WithinOne returns the near-diagonal mass fraction (|pred-truth| <= 1),
// the paper's ±1-bucket tolerance.
func (m *ConfusionMatrix) WithinOne() float64 {
	total := m.Total()
	if total == 0 {
		return 0
	}
	near := 0
	for i := 0; i < m.Classes; i++ {
		for j := 0; j < m.Classes; j++ {
			if j-i <= 1 && i-j <= 1 {
				near += m.Counts[i][j]
			}
		}
	}
	return float64(near) / float64(total)
}

// String renders the matrix compactly.
func (m *ConfusionMatrix) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "confusion (%d classes, acc %.3f, ±1 %.3f)\n", m.Classes, m.Accuracy(), m.WithinOne())
	for i, row := range m.Counts {
		fmt.Fprintf(&b, "  t%-2d |", i)
		for _, c := range row {
			fmt.Fprintf(&b, " %5d", c)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// FeatureImportance sums the Gini impurity decrease contributed by each
// feature across the tree's internal splits, normalized to sum to 1.
// Section 4.9's small feature sets make this directly interpretable: it
// ranks which design parameters the predictor actually uses.
func (t *Tree) FeatureImportance(nFeatures int) []float64 {
	imp := make([]float64, nFeatures)
	t.accumulateImportance(0, 1.0, imp)
	total := 0.0
	for _, v := range imp {
		total += v
	}
	if total > 0 {
		for i := range imp {
			imp[i] /= total
		}
	}
	return imp
}

// accumulateImportance walks the tree, crediting each split node's feature
// with the node's weight. Exact per-node impurity decreases are not stored
// at training time, so node weight (share of the tree's split mass,
// halving with depth) is the proxy: splits near the root matter most.
func (t *Tree) accumulateImportance(pos int32, weight float64, imp []float64) {
	nd := &t.nodes[pos]
	if nd.feature < 0 {
		return
	}
	if nd.feature < len(imp) {
		imp[nd.feature] += weight
	}
	t.accumulateImportance(nd.left, weight/2, imp)
	t.accumulateImportance(nd.right, weight/2, imp)
}
