package experiments

import (
	"fmt"
	"math"
	"strings"

	"crowdscope/internal/cluster"
	"crowdscope/internal/core"
	"crowdscope/internal/corr"
	"crowdscope/internal/model"
	"crowdscope/internal/report"
	"crowdscope/internal/stats"
	"crowdscope/internal/synth"
	"crowdscope/internal/timeseries"
)

// The paper's Section 7 lists the follow-up work these experiments
// implement: the interplay between task parameters (ext1) and causal
// confirmation of the correlational claims via A/B testing (ext2).

func init() {
	register(Experiment{ID: "ext1", Paper: "Section 7 (ext)", Title: "Feature-interaction analysis (parameter interplay)", Run: runExt1})
	register(Experiment{ID: "ext2", Paper: "Section 7 (ext)", Title: "A/B causal confirmation of the design effects", Run: runExt2})
	register(Experiment{ID: "ext3", Paper: "Section 3.2 (ext)", Title: "Task arrivals overlaid with internal vs external workloads", Run: runExt3})
	register(Experiment{ID: "ext4", Paper: "Section 3.3 (ext)", Title: "Clustering threshold sweep against ground truth", Run: runExt4})
}

// runExt4 replaces the paper's manual clustering-threshold tuning ("tuned
// the threshold of a match to ensure that tasks that on inspection look
// very similar ... are actually clustered together") with a measured
// sweep: the simulator knows each batch's true distinct task, so purity
// and adjusted Rand index are computable per threshold.
func runExt4(ctx *Context) *Outcome {
	a := ctx.A
	// Sweep over a subsample to keep the experiment quick, re-merging the
	// signatures the analysis already built for it.
	ids := a.SampledIDs
	if len(ids) > 2500 {
		ids = ids[:2500]
	}
	truth := make([]int, len(ids))
	for i, bid := range ids {
		truth[i] = int(a.DS.Batches[bid].TaskType)
	}
	thresholds := []float64{0.3, 0.5, 0.7, 0.9}
	qualities := cluster.SweepThreshold(ids, a.Signatures[:len(ids)], truth, thresholds)

	out := &Outcome{}
	tbl := report.NewTable("Clustering quality by Jaccard threshold", "threshold", "purity", "ARI", "clusters", "true tasks")
	tsv := report.NewTSV("threshold", "purity", "ari", "clusters")
	bestARI := 0.0
	for i, q := range qualities {
		tbl.AddRow(thresholds[i], q.Purity, q.ARI, q.Clusters, q.TrueClasses)
		tsv.Add(thresholds[i], q.Purity, q.ARI, float64(q.Clusters))
		if q.ARI > bestARI {
			bestARI = q.ARI
		}
	}
	out.addSeries("ext4", tsv)
	out.check("best threshold ARI", math.NaN(), bestARI, "ari",
		"ground-truth replacement for the paper's eyeball threshold tuning")
	out.Text = tbl.String()
	return out
}

// runExt3 completes the overlay the paper's Section 3.2 sketches but never
// shows ("task arrival overlay with internal and external"): weekly task
// volume split between the marketplace's internal worker pool and the
// external labor sources.
func runExt3(ctx *Context) *Outcome {
	a := ctx.A
	var internalSrc uint16
	for i, s := range a.DS.Sources {
		if s.Name == "internal" {
			internalSrc = uint16(i)
		}
	}
	st := a.DS.Store
	starts := st.Starts()
	wcol := st.Workers()
	internal := timeseries.NewWeekly()
	external := timeseries.NewWeekly()
	for i := range starts {
		if a.DS.Workers[wcol[i]].Source == internalSrc {
			internal.IncrAt(starts[i])
		} else {
			external.IncrAt(starts[i])
		}
	}

	out := &Outcome{}
	tsv := report.NewTSV("week", "internal_tasks", "external_tasks")
	for w := 0; w < internal.Len(); w++ {
		tsv.Add(float64(w), internal.At(w), external.At(w))
	}
	out.addSeries("ext3", tsv)

	share := internal.Total() / (internal.Total() + external.Total())
	out.check("internal worker task share", 0.02, share, "fraction",
		"paper: internal workers account for a very small fraction of tasks (484k of 27M)")
	// The flux lands on external workers: during the busiest external
	// weeks, internal volume barely moves.
	_, peakWeek := external.Max()
	peakInternal := internal.At(peakWeek)
	medInternal := stats.Median(internal.Slice(int(model.PostBoomWeek), internal.Len()).NonZero())
	ratio := 0.0
	if medInternal > 0 {
		ratio = peakInternal / medInternal
	}
	out.check("internal volume at external peak vs its median", math.NaN(), ratio, "x",
		"the dedicated pool is not the flux absorber")

	out.Text = fmt.Sprintf("Internal pool: %.1f%% of tasks; at the external peak week its volume is %.1fx its own median — spikes are absorbed by the freelance sources.\n",
		share*100, ratio)
	return out
}

func runExt1(ctx *Context) *Outcome {
	obs := ctx.A.Observations(true)
	out := &Outcome{}
	var b strings.Builder

	pull := func(name string, get func(corr.Observation) (float64, bool)) []float64 {
		vals := make([]float64, len(obs))
		for i, o := range obs {
			v, ok := get(o)
			if !ok {
				v = math.NaN()
			}
			vals[i] = v
		}
		_ = name
		return vals
	}
	feat := func(name string) []float64 {
		return pull(name, func(o corr.Observation) (float64, bool) { v, ok := o.Features[name]; return v, ok })
	}
	metric := func(name string) []float64 {
		return pull(name, func(o corr.Observation) (float64, bool) { v, ok := o.Metrics[name]; return v, ok })
	}

	// Does the instruction-length effect on disagreement deepen for
	// bigger tasks (more items to get wrong)? And does the text-box cost
	// in task time deepen with more instructions to read?
	cases := []struct {
		feature, moderator, metric string
	}{
		{core.FeatWords, core.FeatItems, core.MetricDisagreement},
		{core.FeatItems, core.FeatWords, core.MetricDisagreement},
		{core.FeatTextBoxes, core.FeatItems, core.MetricTaskTime},
		{core.FeatImages, core.FeatItems, core.MetricPickupTime},
	}
	for _, c := range cases {
		res := corr.Interaction(c.feature, c.moderator, c.metric,
			feat(c.feature), feat(c.moderator), metric(c.metric))
		fmt.Fprintf(&b, "%s\n", res.String())
		out.check(fmt.Sprintf("%s→%s effect ratio, low %s", c.feature, c.metric, c.moderator),
			math.NaN(), res.EffectLow, "ratio", "")
		out.check(fmt.Sprintf("%s→%s effect ratio, high %s", c.feature, c.metric, c.moderator),
			math.NaN(), res.EffectHigh, "ratio", "stratified extension of Section 4.2")
	}
	out.Text = b.String()
	return out
}

func runExt2(ctx *Context) *Outcome {
	out := &Outcome{}
	var b strings.Builder
	labels := model.Labels{
		Goals:     model.GoalSet(0).With(model.GoalLU),
		Operators: model.OpSet(0).With(model.OpFilter),
		Data:      model.DataSet(0).With(model.DataText),
	}
	base := model.DesignParams{Words: 400, TextBoxes: 0, Items: 40, Fields: 6}

	withText := base
	withText.TextBoxes = 2
	withText.Fields += 2
	withEx := base
	withEx.Examples = 2

	seedBase := ctx.A.DS.Cfg.Seed

	resText := synth.RunAB(synth.ABConfig{Seed: seedBase + 101, Labels: labels, DesignA: base, DesignB: withText})
	fmt.Fprintf(&b, "A/B text boxes: task-time %.0fs→%.0fs (p=%.1e), disagreement %.3f→%.3f (p=%.1e)\n",
		resText.A.MedianTaskTime, resText.B.MedianTaskTime, resText.TaskTime.P,
		resText.A.MedianDisagreement, resText.B.MedianDisagreement, resText.Disagreement.P)
	out.check("A/B text-box task-time ratio", 285.7/119.0, resText.B.MedianTaskTime/resText.A.MedianTaskTime, "ratio",
		"causal analogue of Table 2's correlation")
	out.check("A/B text-box effect significant", 1, b2f(resText.TaskTime.Significant(0.01)), "bool", "")

	resEx := synth.RunAB(synth.ABConfig{Seed: seedBase + 102, Labels: labels, DesignA: base, DesignB: withEx})
	fmt.Fprintf(&b, "A/B examples: pickup %.0fs→%.0fs (p=%.1e), disagreement %.3f→%.3f (p=%.1e)\n",
		resEx.A.MedianPickupTime, resEx.B.MedianPickupTime, resEx.PickupTime.P,
		resEx.A.MedianDisagreement, resEx.B.MedianDisagreement, resEx.Disagreement.P)
	out.check("A/B examples pickup ratio", 1353.0/6303.0, resEx.B.MedianPickupTime/resEx.A.MedianPickupTime, "ratio",
		"causal analogue of Table 3's correlation")
	out.check("A/B examples effect significant", 1, b2f(resEx.PickupTime.Significant(0.01)), "bool", "")

	// A/A control must stay null.
	resNull := synth.RunAB(synth.ABConfig{Seed: seedBase + 103, Labels: labels, DesignA: base, DesignB: base})
	fmt.Fprintf(&b, "A/A control: task-time p=%.2g, pickup p=%.2g, disagreement p=%.2g (all expected > 0.01)\n",
		resNull.TaskTime.P, resNull.PickupTime.P, resNull.Disagreement.P)
	out.check("A/A control stays null", 0, b2f(resNull.TaskTime.Significant(0.01) ||
		resNull.PickupTime.Significant(0.01) || resNull.Disagreement.Significant(0.01)), "bool", "")

	out.Text = b.String()
	return out
}
