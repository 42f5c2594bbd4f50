package ml

import (
	"math"
	"strings"
	"testing"

	"crowdscope/internal/rng"
)

func TestConfusionMatrixBasics(t *testing.T) {
	m := NewConfusionMatrix(3)
	m.Add(0, 0)
	m.Add(0, 0)
	m.Add(1, 1)
	m.Add(2, 1) // one bucket off
	m.Add(2, 0) // two buckets off
	if m.Total() != 5 {
		t.Errorf("Total = %d", m.Total())
	}
	if got := m.Accuracy(); math.Abs(got-0.6) > 1e-12 {
		t.Errorf("Accuracy = %v", got)
	}
	if got := m.WithinOne(); math.Abs(got-0.8) > 1e-12 {
		t.Errorf("WithinOne = %v", got)
	}
	if !strings.Contains(m.String(), "acc") {
		t.Error("String() missing summary")
	}
}

func TestConfusionMatrixIgnoresOutOfRange(t *testing.T) {
	m := NewConfusionMatrix(2)
	m.Add(-1, 0)
	m.Add(0, 5)
	if m.Total() != 0 {
		t.Errorf("out-of-range observations counted: %d", m.Total())
	}
	if m.Accuracy() != 0 || m.WithinOne() != 0 {
		t.Error("empty matrix rates should be 0")
	}
}

func TestEvaluateFold(t *testing.T) {
	r := rng.New(111)
	var X [][]float64
	var y []int
	for i := 0; i < 600; i++ {
		v := r.Float64()
		X = append(X, []float64{v})
		y = append(y, int(v*3))
	}
	tree := Train(X[:400], y[:400], 4, DefaultTreeOptions())
	m := NewConfusionMatrix(4)
	for i := 400; i < len(X); i++ {
		m.Add(y[i], tree.Predict(X[i]))
	}
	if m.Accuracy() < 0.9 {
		t.Errorf("fold accuracy = %v on separable data", m.Accuracy())
	}
	if m.WithinOne() < m.Accuracy() {
		t.Error("±1 below exact")
	}
}

func TestFeatureImportanceIdentifiesSignal(t *testing.T) {
	r := rng.New(112)
	var X [][]float64
	var y []int
	for i := 0; i < 1200; i++ {
		signal := r.Float64()
		noiseA := r.Float64()
		noiseB := r.Float64()
		X = append(X, []float64{noiseA, signal, noiseB})
		c := 0
		if signal > 0.5 {
			c = 1
		}
		y = append(y, c)
	}
	tree := Train(X, y, 2, DefaultTreeOptions())
	imp := tree.FeatureImportance(3)
	total := imp[0] + imp[1] + imp[2]
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("importances sum to %v", total)
	}
	if imp[1] < imp[0] || imp[1] < imp[2] {
		t.Errorf("signal feature not ranked first: %v", imp)
	}
	if imp[1] < 0.5 {
		t.Errorf("signal importance = %v, want dominant", imp[1])
	}
}

func TestFeatureImportanceLeafOnly(t *testing.T) {
	X := [][]float64{{1}, {2}, {3}, {4}, {5}, {6}, {7}, {8}, {9}, {10}}
	y := []int{0, 0, 0, 0, 0, 0, 0, 0, 0, 0}
	tree := Train(X, y, 2, DefaultTreeOptions())
	imp := tree.FeatureImportance(1)
	if imp[0] != 0 {
		t.Errorf("pure tree importance = %v, want 0", imp[0])
	}
}
