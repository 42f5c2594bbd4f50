package cluster

import (
	"math"
	"testing"
)

// mkClustering builds a Clustering directly from assignment vectors.
func mkClustering(assign []int) *Clustering {
	c := &Clustering{ClusterOf: assign}
	members := map[int][]int{}
	maxC := -1
	for i, a := range assign {
		members[a] = append(members[a], i)
		if a > maxC {
			maxC = a
		}
		c.IDs = append(c.IDs, uint32(i))
	}
	c.Members = make([][]int, maxC+1)
	for a, m := range members {
		c.Members[a] = m
	}
	return c
}

func TestEvaluatePerfect(t *testing.T) {
	assign := []int{0, 0, 1, 1, 2, 2}
	q := Evaluate(mkClustering(assign), assign)
	if q.Purity != 1 {
		t.Errorf("purity = %v", q.Purity)
	}
	if math.Abs(q.ARI-1) > 1e-12 {
		t.Errorf("ARI = %v", q.ARI)
	}
	if q.Clusters != 3 || q.TrueClasses != 3 {
		t.Errorf("counts = %d/%d", q.Clusters, q.TrueClasses)
	}
}

func TestEvaluateLabelPermutationInvariant(t *testing.T) {
	// The same partition under renamed cluster IDs scores identically.
	truth := []int{0, 0, 1, 1, 2, 2}
	q1 := Evaluate(mkClustering([]int{0, 0, 1, 1, 2, 2}), truth)
	q2 := Evaluate(mkClustering([]int{2, 2, 0, 0, 1, 1}), truth)
	if q1.Purity != q2.Purity || math.Abs(q1.ARI-q2.ARI) > 1e-12 {
		t.Errorf("renaming changed quality: %+v vs %+v", q1, q2)
	}
}

func TestEvaluateMerged(t *testing.T) {
	// Two true classes merged into one cluster: purity 50% on the merged
	// part, ARI well below 1.
	truth := []int{0, 0, 1, 1}
	q := Evaluate(mkClustering([]int{0, 0, 0, 0}), truth)
	if q.Purity != 0.5 {
		t.Errorf("purity = %v, want 0.5", q.Purity)
	}
	if q.ARI > 0.01 {
		t.Errorf("ARI = %v, want ~0", q.ARI)
	}
}

func TestEvaluateOversplit(t *testing.T) {
	// Each batch its own cluster: purity 1 (vacuously) but ARI 0.
	truth := []int{0, 0, 0, 1, 1, 1}
	q := Evaluate(mkClustering([]int{0, 1, 2, 3, 4, 5}), truth)
	if q.Purity != 1 {
		t.Errorf("purity = %v", q.Purity)
	}
	if q.ARI > 0.05 {
		t.Errorf("oversplit ARI = %v, want ~0", q.ARI)
	}
}

func TestEvaluateRandomNearZeroARI(t *testing.T) {
	// A fixed pseudo-random assignment against alternating truth.
	truth := make([]int, 200)
	assign := make([]int, 200)
	for i := range truth {
		truth[i] = i % 4
		assign[i] = (i * 7) % 5
	}
	q := Evaluate(mkClustering(assign), truth)
	if math.Abs(q.ARI) > 0.1 {
		t.Errorf("random ARI = %v, want ~0", q.ARI)
	}
}

func TestEvaluateEmpty(t *testing.T) {
	q := Evaluate(&Clustering{}, nil)
	if q.Purity != 0 || q.ARI != 0 {
		t.Errorf("empty quality = %+v", q)
	}
	// Length mismatch.
	q = Evaluate(mkClustering([]int{0, 0}), []int{0})
	if q.Purity != 0 {
		t.Error("mismatched truth should give zero quality")
	}
}

func TestEvaluateOnRealClustering(t *testing.T) {
	ids, html, truthMap := fakeCorpus(10, 6)
	c := Batches(ids, lookup(html), DefaultOptions())
	truth := make([]int, len(ids))
	for i, id := range ids {
		truth[i] = truthMap[id]
	}
	q := Evaluate(c, truth)
	if q.Purity < 0.99 {
		t.Errorf("purity on separable corpus = %v", q.Purity)
	}
	if q.ARI < 0.99 {
		t.Errorf("ARI on separable corpus = %v", q.ARI)
	}
}

func TestSweepThreshold(t *testing.T) {
	ids, html, truthMap := fakeCorpus(8, 5)
	truth := make([]int, len(ids))
	for i, id := range ids {
		truth[i] = truthMap[id]
	}
	s := SketchPages(ids, lookup(html), DefaultOptions())
	qs := SweepThreshold(ids, s.Sigs, truth, []float64{0.05, 0.7, 1.01})
	if len(qs) != 3 {
		t.Fatalf("sweep returned %d results", len(qs))
	}
	// A near-zero threshold can only merge pairs that LSH banding
	// surfaces as candidates; with well-separated tasks it stays correct
	// (never better than the tuned default).
	if qs[0].ARI > qs[1].ARI {
		t.Errorf("threshold 0.05 beat the tuned default: %v vs %v", qs[0].ARI, qs[1].ARI)
	}
	// The tuned default (0.7) recovers the corpus perfectly.
	if qs[1].ARI < 0.99 {
		t.Errorf("threshold 0.7 ARI = %v", qs[1].ARI)
	}
	// An unreachable threshold oversplits everything into singletons.
	if qs[2].ARI > 0.05 {
		t.Errorf("threshold 1.01 should oversplit: ARI %v", qs[2].ARI)
	}
	if qs[2].Clusters != len(ids) {
		t.Errorf("threshold 1.01 clusters = %d, want %d singletons", qs[2].Clusters, len(ids))
	}
}
