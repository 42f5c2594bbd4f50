package experiments

import (
	"math"
	"strings"
	"testing"

	"crowdscope/internal/core"
	"crowdscope/internal/synth"
)

var testCtx = NewContext(core.New(synth.Generate(synth.Config{Seed: 1701, Scale: 0.02}), core.DefaultOptions()))

func TestRegistryComplete(t *testing.T) {
	// Every paper artifact must be present.
	want := []string{
		"fig1", "fig2a", "fig2b", "fig3", "fig4", "fig5a", "fig5b",
		"fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
		"fig13", "fig14", "fig15to24", "fig25", "fig26", "fig27", "fig28", "fig29",
		"fig30", "tab1", "tab2", "tab3", "tab4", "sec49", "ext1", "ext2", "ext3", "ext4",
	}
	for _, id := range want {
		if _, ok := Lookup(id); !ok {
			t.Errorf("experiment %s not registered", id)
		}
	}
	if len(All()) != len(want) {
		t.Errorf("registry holds %d experiments, want %d", len(All()), len(want))
	}
}

func TestRegistryOrder(t *testing.T) {
	ids := IDs()
	// Figures come before tables before sections, numerically.
	pos := map[string]int{}
	for i, id := range ids {
		pos[id] = i
	}
	if !(pos["fig1"] < pos["fig2a"] && pos["fig2a"] < pos["fig2b"] && pos["fig9"] < pos["fig10"]) {
		t.Errorf("figure order wrong: %v", ids)
	}
	if !(pos["fig30"] < pos["tab1"] && pos["tab4"] < pos["sec49"]) {
		t.Errorf("kind order wrong: %v", ids)
	}
}

func TestLookupMissing(t *testing.T) {
	if _, ok := Lookup("fig99"); ok {
		t.Error("lookup of unknown ID succeeded")
	}
}

// TestAllExperimentsRun executes every experiment once and validates the
// artifact contract: non-empty text, well-formed series, finite measured
// checks.
func TestAllExperimentsRun(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			out := e.Run(testCtx)
			if out == nil {
				t.Fatal("nil outcome")
			}
			if strings.TrimSpace(out.Text) == "" {
				t.Error("empty text artifact")
			}
			for name, tsv := range out.Series {
				if tsv.Len() == 0 {
					t.Errorf("series %s is empty", name)
				}
			}
			for _, c := range out.Checks {
				if math.IsNaN(c.Measured) {
					t.Errorf("check %q has NaN measurement", c.Name)
				}
				if math.IsInf(c.Measured, 0) {
					t.Errorf("check %q is infinite", c.Name)
				}
			}
		})
	}
}

func TestFig3WeekendEffect(t *testing.T) {
	out := runFig3(testCtx)
	for _, c := range out.Checks {
		if c.Name == "weekday/weekend load ratio" {
			if c.Measured < 1.2 || c.Measured > 3.5 {
				t.Errorf("weekday/weekend = %.2f, want ~2", c.Measured)
			}
			return
		}
	}
	t.Fatal("ratio check missing")
}

func TestFig5bTopWorkerShare(t *testing.T) {
	out := runFig5b(testCtx)
	for _, c := range out.Checks {
		if c.Name == "top-10% worker share of tasks" {
			if c.Measured < 0.70 {
				t.Errorf("top-10%% share = %.2f", c.Measured)
			}
			return
		}
	}
	t.Fatal("share check missing")
}

func TestFig7MegaClusters(t *testing.T) {
	out := runFig7(testCtx)
	for _, c := range out.Checks {
		if c.Name == "clusters with >1M task instances" {
			if c.Measured < 1 || c.Measured > 6 {
				t.Errorf("mega clusters = %.0f, want ~3", c.Measured)
			}
		}
		if c.Name == "median tasks per cluster" {
			if c.Measured < 100 || c.Measured > 2500 {
				t.Errorf("median cluster volume = %.0f, want ~400", c.Measured)
			}
		}
	}
}

func TestTable1ReproducesDirections(t *testing.T) {
	out := runTable1(testCtx)
	ratios := map[string]float64{}
	for _, c := range out.Checks {
		if strings.HasSuffix(c.Name, "ratio") {
			ratios[c.Name] = c.Measured
			// Direction must match the paper's.
			if (c.Paper < 1) != (c.Measured < 1) {
				t.Errorf("%s: measured %.3f vs paper %.3f — wrong direction", c.Name, c.Measured, c.Paper)
			}
		}
	}
	if len(ratios) != 4 {
		t.Errorf("expected 4 ratio checks, got %d", len(ratios))
	}
}

func TestTables23Directions(t *testing.T) {
	for _, out := range []*Outcome{runTable2(testCtx), runTable3(testCtx)} {
		for _, c := range out.Checks {
			if strings.HasSuffix(c.Name, "ratio") {
				if (c.Paper < 1) != (c.Measured < 1) {
					t.Errorf("%s: measured %.3f vs paper %.3f — wrong direction", c.Name, c.Measured, c.Paper)
				}
			}
		}
	}
}

func TestSec49BeatsBaseline(t *testing.T) {
	out := runSec49(testCtx)
	for _, c := range out.Checks {
		if strings.Contains(c.Name, "percentile-bucketization accuracy") && !strings.Contains(c.Name, "±1") {
			// Random baseline over 10 buckets is 10%.
			if c.Measured < 0.10 {
				t.Errorf("%s = %.3f, below random baseline", c.Name, c.Measured)
			}
		}
		if strings.Contains(c.Name, "range-bucketization accuracy") && !strings.Contains(c.Name, "±1") {
			// Range bucketization is dominated by the skewed bucket 0.
			if c.Measured < 0.30 {
				t.Errorf("%s = %.3f, want high like the paper's 0.39-0.98", c.Name, c.Measured)
			}
		}
	}
}

func TestSec49ToleranceAboveExact(t *testing.T) {
	out := runSec49(testCtx)
	exact := map[string]float64{}
	for _, c := range out.Checks {
		if strings.HasSuffix(c.Name, "accuracy") && !strings.Contains(c.Name, "±1") {
			exact[c.Name] = c.Measured
		}
	}
	for _, c := range out.Checks {
		if strings.Contains(c.Name, "±1") {
			base := strings.Replace(c.Name, " ±1", "", 1)
			if e, ok := exact[base]; ok && c.Measured < e {
				t.Errorf("±1 accuracy %.3f below exact %.3f for %s", c.Measured, e, base)
			}
		}
	}
}

func TestFig30EngagementChecks(t *testing.T) {
	out := runFig30(testCtx)
	byName := map[string]Check{}
	for _, c := range out.Checks {
		byName[c.Name] = c
	}
	if c := byName["one-day-lifetime worker share"]; c.Measured < 0.35 || c.Measured > 0.70 {
		t.Errorf("one-day share = %.2f, paper 0.527", c.Measured)
	}
	if c := byName["active workers' task share"]; c.Measured < 0.55 {
		t.Errorf("active task share = %.2f, paper 0.83", c.Measured)
	}
	if c := byName["one-day workers' task share"]; c.Measured > 0.15 {
		t.Errorf("one-day task share = %.2f, paper 0.024", c.Measured)
	}
}

func TestFig28Geography(t *testing.T) {
	out := runFig28(testCtx)
	for _, c := range out.Checks {
		if c.Name == "top-5 country worker share" {
			if c.Measured < 0.35 || c.Measured > 0.75 {
				t.Errorf("top-5 share = %.2f, paper ~0.5", c.Measured)
			}
		}
	}
}

func TestFig27SourceQuality(t *testing.T) {
	out := runFig27(testCtx)
	byName := map[string]Check{}
	for _, c := range out.Checks {
		byName[c.Name] = c
	}
	if c, ok := byName["top-10 source task share"]; ok && c.Measured < 0.85 {
		t.Errorf("top-10 task share = %.2f", c.Measured)
	}
	if c, ok := byName["amt mean relative task time"]; ok && c.Measured < 2 {
		t.Errorf("amt relative task time = %.1f, paper >5", c.Measured)
	}
}

func TestContextMemoizesWorkers(t *testing.T) {
	c := NewContext(testCtx.A)
	w1 := c.Workers()
	w2 := c.Workers()
	if &w1[0] != &w2[0] {
		t.Error("worker table rebuilt")
	}
}

// TestFig26LowEngagementThreshold: the low-engagement share counts the
// sources whose workers average at most the paper's 20 tasks, at every
// generation scale — not a threshold rescaled by it, which read 40 at
// scale 0.01, 10 at 0.04 and 0.4 at the paper's own scale.
func TestFig26LowEngagementThreshold(t *testing.T) {
	for _, scale := range []float64{0.01, 0.04} {
		c := NewContext(core.New(synth.Generate(synth.Config{Seed: 1701, Scale: scale}), core.DefaultOptions()))
		sources := c.A.SourceTable(c.Workers())
		low := 0
		for _, s := range sources {
			if s.AvgTasksPerWorker <= 20 {
				low++
			}
		}
		want := float64(low) / float64(len(sources))
		found := false
		for _, ch := range runFig26(c).Checks {
			if strings.HasPrefix(ch.Name, "sources with ≤20 tasks/worker") {
				found = true
				if ch.Measured != want {
					t.Errorf("scale %g: share %.3f, want %.3f (sources averaging at most 20 tasks)", scale, ch.Measured, want)
				}
			}
		}
		if !found {
			t.Fatal("fig26 reports no low-engagement share")
		}
	}
}
