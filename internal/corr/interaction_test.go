package corr

import (
	"math"
	"testing"

	"crowdscope/internal/rng"
)

// TestInteractionDetectsModeration: construct data where feature A only
// matters when moderator B is high.
func TestInteractionDetectsModeration(t *testing.T) {
	r := rng.New(91)
	n := 4000
	feat := make([]float64, n)
	mod := make([]float64, n)
	metric := make([]float64, n)
	for i := 0; i < n; i++ {
		feat[i] = r.Float64() * 10
		mod[i] = r.Float64() * 10
		base := 100.0
		if mod[i] > 5 && feat[i] > 5 {
			base = 40 // the effect only exists in the high-moderator stratum
		}
		metric[i] = r.LogNormalMedian(base, 0.15)
	}
	res := Interaction("A", "B", "m", feat, mod, metric)
	if !res.High.Significant() {
		t.Errorf("high-stratum effect not significant: p=%v", res.High.TTest.P)
	}
	if res.Low.Significant() {
		t.Errorf("low-stratum effect should be null: p=%v", res.Low.TTest.P)
	}
	if res.EffectHigh > 0.8 {
		t.Errorf("high-stratum effect ratio = %.3f, want well below 1", res.EffectHigh)
	}
}

// TestInteractionNull: independent features show no amplification.
func TestInteractionNull(t *testing.T) {
	r := rng.New(92)
	n := 3000
	feat := make([]float64, n)
	mod := make([]float64, n)
	metric := make([]float64, n)
	for i := 0; i < n; i++ {
		feat[i] = r.Float64()
		mod[i] = r.Float64()
		metric[i] = r.Normal(10, 1)
	}
	res := Interaction("A", "B", "m", feat, mod, metric)
	if res.Low.Significant() || res.High.Significant() {
		t.Error("null strata flagged significant")
	}
}

// TestInteractionUniformEffect: a feature effect present in both strata
// shows similar ratios.
func TestInteractionUniformEffect(t *testing.T) {
	r := rng.New(93)
	n := 4000
	feat := make([]float64, n)
	mod := make([]float64, n)
	metric := make([]float64, n)
	for i := 0; i < n; i++ {
		feat[i] = r.Float64() * 10
		mod[i] = r.Float64() * 10
		base := 100.0
		if feat[i] > 5 {
			base = 60
		}
		metric[i] = r.LogNormalMedian(base, 0.15)
	}
	res := Interaction("A", "B", "m", feat, mod, metric)
	if !res.Low.Significant() || !res.High.Significant() {
		t.Error("uniform effect should be significant in both strata")
	}
	if math.Abs(res.EffectLow-res.EffectHigh) > 0.15 {
		t.Errorf("uniform effect differs across strata: %.3f vs %.3f", res.EffectLow, res.EffectHigh)
	}
}

// TestInteractionNaNModeratorDropped: NaN moderator rows drop out.
func TestInteractionNaNModeratorDropped(t *testing.T) {
	feat := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	mod := []float64{1, 1, math.NaN(), 2, 2, math.NaN(), 1, 2}
	metric := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	res := Interaction("A", "B", "m", feat, mod, metric)
	total := res.Low.Bin1.Count + res.Low.Bin2.Count + res.High.Bin1.Count + res.High.Bin2.Count
	if total != 6 {
		t.Errorf("NaN moderator rows not dropped: %d observations", total)
	}
}

func TestInteractionPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch should panic")
		}
	}()
	Interaction("a", "b", "m", []float64{1}, []float64{1, 2}, []float64{1})
}
