package corr

import (
	"fmt"
	"math"

	"crowdscope/internal/stats"
)

// InteractionResult measures how the effect of one feature on a metric
// changes across strata of a second feature — the "interplay between
// various task parameters" the paper's Section 7 lists as future work.
// The primary feature's median-split effect is evaluated separately
// within the low and high strata of the moderator.
type InteractionResult struct {
	Feature   string
	Moderator string
	Metric    string

	// Low and High are the primary-feature results within the moderator's
	// low and high strata.
	Low, High Result

	// EffectLow and EffectHigh are the bin2/bin1 median ratios in each
	// stratum (1 = no effect).
	EffectLow, EffectHigh float64
}

// String summarizes the interaction.
func (r InteractionResult) String() string {
	return fmt.Sprintf("%s→%s within %s strata: effect %.3f (low) vs %.3f (high)",
		r.Feature, r.Metric, r.Moderator, r.EffectLow, r.EffectHigh)
}

// Interaction runs the stratified analysis over parallel vectors: feat is
// the primary feature, mod the moderator, metricVals the outcome.
func Interaction(feature, moderator, metric string, feat, mod, metricVals []float64) InteractionResult {
	if len(feat) != len(mod) || len(feat) != len(metricVals) {
		panic("corr: interaction length mismatch")
	}
	// Stratify at the moderator's median.
	modClean := make([]float64, 0, len(mod))
	for _, v := range mod {
		if !math.IsNaN(v) {
			modClean = append(modClean, v)
		}
	}
	cut := stats.Median(modClean)

	var loF, loM, hiF, hiM []float64
	for i := range feat {
		if math.IsNaN(mod[i]) {
			continue
		}
		if mod[i] <= cut {
			loF = append(loF, feat[i])
			loM = append(loM, metricVals[i])
		} else {
			hiF = append(hiF, feat[i])
			hiM = append(hiM, metricVals[i])
		}
	}
	res := InteractionResult{Feature: feature, Moderator: moderator, Metric: metric}
	res.Low = Run(feature, metric, SplitAtMedian, loF, loM)
	res.High = Run(feature, metric, SplitAtMedian, hiF, hiM)
	res.EffectLow = res.Low.Bin2.Median / res.Low.Bin1.Median
	res.EffectHigh = res.High.Bin2.Median / res.High.Bin1.Median
	return res
}
