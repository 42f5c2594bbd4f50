package cluster

// Quality evaluation of a clustering against ground-truth labels. The
// paper "tuned the threshold of a match to ensure that tasks that on
// inspection look very similar ... are actually clustered together" —
// eyeball tuning. With the simulator the true distinct-task identity of
// every batch is known, so threshold tuning becomes measurable: purity
// and the adjusted Rand index quantify how faithfully Section 3.3's
// clustering recovers distinct tasks.

// Quality summarizes agreement between a clustering and ground truth.
type Quality struct {
	// Purity is the fraction of batches whose cluster's majority truth
	// label matches their own.
	Purity float64
	// ARI is the adjusted Rand index: 1 for perfect recovery, ~0 for
	// random assignment.
	ARI float64
	// Clusters and TrueClasses are the respective group counts.
	Clusters    int
	TrueClasses int
}

// Evaluate compares the clustering against truth, where truth[i] labels
// the i-th input batch (parallel to c.IDs).
func Evaluate(c *Clustering, truth []int) Quality {
	n := len(c.ClusterOf)
	if n == 0 || len(truth) != n {
		return Quality{}
	}
	// Contingency table.
	type cell struct{ cluster, class int }
	contingency := map[cell]int{}
	clusterSize := map[int]int{}
	classSize := map[int]int{}
	for i := 0; i < n; i++ {
		contingency[cell{c.ClusterOf[i], truth[i]}]++
		clusterSize[c.ClusterOf[i]]++
		classSize[truth[i]]++
	}

	// Purity: sum of per-cluster majority counts.
	majority := map[int]int{}
	for cc, cnt := range contingency {
		if cnt > majority[cc.cluster] {
			majority[cc.cluster] = cnt
		}
	}
	pure := 0
	for _, m := range majority {
		pure += m
	}

	// Adjusted Rand index.
	var sumComb, sumA, sumB float64
	for _, cnt := range contingency {
		sumComb += comb2(cnt)
	}
	for _, s := range clusterSize {
		sumA += comb2(s)
	}
	for _, s := range classSize {
		sumB += comb2(s)
	}
	total := comb2(n)
	expected := sumA * sumB / total
	maxIndex := (sumA + sumB) / 2
	ari := 0.0
	if denom := maxIndex - expected; denom != 0 {
		ari = (sumComb - expected) / denom
	} else if sumComb == maxIndex {
		ari = 1
	}

	return Quality{
		Purity:      float64(pure) / float64(n),
		ARI:         ari,
		Clusters:    len(clusterSize),
		TrueClasses: len(classSize),
	}
}

func comb2(n int) float64 {
	if n < 2 {
		return 0
	}
	return float64(n) * float64(n-1) / 2
}

// SweepThreshold evaluates the clustering quality across candidate
// Jaccard thresholds, returning the per-threshold quality. The best
// threshold is the data-driven replacement for the paper's manual tuning.
// The threshold only affects the merge step, so the sweep takes
// signatures already built — Sketches.Sigs or a prefix of it, parallel to
// ids and truth — and re-runs only the cheap LSH + union-find tail per
// candidate. Candidate pairs are verified on the signature estimate,
// which is all that signatures without their shingle sets allow.
func SweepThreshold(ids []uint32, sigs [][]uint64, truth []int, thresholds []float64) []Quality {
	out := make([]Quality, len(thresholds))
	for i, th := range thresholds {
		out[i] = Evaluate(mergeSignatures(ids, nil, sigs, Options{Threshold: th}), truth)
	}
	return out
}
