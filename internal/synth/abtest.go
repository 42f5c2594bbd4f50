package synth

import (
	"math"

	"crowdscope/internal/metrics"
	"crowdscope/internal/model"
	"crowdscope/internal/rng"
	"crowdscope/internal/stats"
)

// The paper's Section 7 names full-fledged A/B testing as the way to turn
// its correlational findings into causal ones. ABTest provides that
// harness over the simulator: the same unit of work is issued under two
// interface designs to the same worker pool over the same days, so any
// metric difference between the arms is caused by the design.

// The experiment's size is fixed: abArmBatches batches per design of
// abBatchItems items, abRedundancy answers per item, served by a pool
// of abWorkers workers.
const (
	abArmBatches = 40
	abBatchItems = 30
	abRedundancy = 5
	abWorkers    = 800
)

// ABConfig configures a randomized controlled design experiment.
type ABConfig struct {
	// Seed drives the whole experiment deterministically.
	Seed uint64
	// DesignA and DesignB are the two interface variants under test.
	DesignA, DesignB model.DesignParams
	// Labels is the shared task classification (goal/operator/data).
	Labels model.Labels
}

// ABArm holds one arm's per-batch metric samples and medians.
type ABArm struct {
	Design model.DesignParams

	// Per-batch samples (the unit of statistical comparison).
	Disagreements []float64
	TaskTimes     []float64
	PickupTimes   []float64

	// Medians across batches.
	MedianDisagreement float64
	MedianTaskTime     float64
	MedianPickupTime   float64
}

// ABResult compares the two arms with Welch t-tests per metric.
type ABResult struct {
	A, B ABArm

	Disagreement stats.TTestResult
	TaskTime     stats.TTestResult
	PickupTime   stats.TTestResult
}

// RunAB executes the experiment: a shared worker pool serves interleaved
// batches of both designs over the same day range, and per-batch metrics
// are compared across arms.
func RunAB(cfg ABConfig) ABResult {
	root := rng.New(cfg.Seed)

	sources := BuildSources()
	workers := BuildWorkers(root.Split(1), sources, abWorkers)
	// Pin every worker's window to the experiment span so the pool is
	// identical for both arms.
	startDay := model.PostBoomWeek * 7
	spanDays := int32(28)
	for i := range workers {
		workers[i].FirstDay = startDay
		workers[i].LastDay = startDay + spanDays - 1
	}
	quota := workloadWeights(root.Split(2), workers)
	pools := newDayPools(workers, quota)

	// Build the two latent task types from the designs through the same
	// causal model the marketplace uses.
	mkType := func(id uint32, d model.DesignParams) model.TaskType {
		tt := model.TaskType{ID: id, Labels: cfg.Labels, Design: d}
		applyMetricModelDeterministic(&tt, primaryGoal(cfg.Labels.Goals))
		return tt
	}
	ttA := mkType(0, cfg.DesignA)
	ttB := mkType(1, cfg.DesignB)

	totalDraws := float64(2 * abArmBatches * abBatchItems * abRedundancy)
	totalQuota := 0.0
	for _, q := range quota {
		totalQuota += q
	}
	spend := totalQuota / totalDraws

	// Issue the interleaved arm batches through the same two-phase
	// pipeline the marketplace generator uses: parallel prep, sequential
	// pool assignment, parallel segment render.
	batchID := uint32(2 * abArmBatches)
	stubs := make([]batchStub, 0, batchID)
	sampled := make([]bool, 0, batchID)
	for b := 0; b < abArmBatches; b++ {
		for arm := 0; arm < 2; arm++ {
			tt := &ttA
			if arm == 1 {
				tt = &ttB
			}
			day := startDay + int32(b)%spanDays
			stubs = append(stubs, batchStub{
				taskType:      tt.ID,
				day:           day,
				createdSec:    model.DayUnix(day) + 8*3600,
				declaredItems: abBatchItems,
				redundancy:    abRedundancy,
				pickupMedian:  tt.BasePickupSecs,
			})
			sampled = append(sampled, true)
		}
	}

	ds := &Dataset{
		Cfg:       Config{Seed: cfg.Seed, Scale: 1},
		Workers:   workers,
		TaskTypes: []model.TaskType{ttA, ttB},
	}
	seedBase := root.Split(3).Uint64()
	assignRand := root.Split(4)
	plans := prepPlans(ds, stubs, sampled, seedBase)
	assignWorkers(assignRand, ds, pools, plans, spend)
	st := renderPlans(ds, plans, len(stubs))

	res := ABResult{A: ABArm{Design: cfg.DesignA}, B: ABArm{Design: cfg.DesignB}}
	for id := uint32(0); id < batchID; id++ {
		bm := metrics.ComputeBatch(st, id)
		if !bm.Valid() {
			continue
		}
		arm := &res.A
		if id%2 == 1 {
			arm = &res.B
		}
		if bm.Pairs > 0 && !math.IsNaN(bm.Disagreement) {
			arm.Disagreements = append(arm.Disagreements, bm.Disagreement)
		}
		arm.TaskTimes = append(arm.TaskTimes, bm.TaskTime)
		arm.PickupTimes = append(arm.PickupTimes, bm.PickupTime)
	}
	for _, arm := range []*ABArm{&res.A, &res.B} {
		arm.MedianDisagreement = stats.Median(arm.Disagreements)
		arm.MedianTaskTime = stats.Median(arm.TaskTimes)
		arm.MedianPickupTime = stats.Median(arm.PickupTimes)
	}
	res.Disagreement = stats.WelchTTest(res.A.Disagreements, res.B.Disagreements)
	res.TaskTime = stats.WelchTTest(res.A.TaskTimes, res.B.TaskTimes)
	res.PickupTime = stats.WelchTTest(res.A.PickupTimes, res.B.PickupTimes)
	return res
}

// applyMetricModelDeterministic maps a design to its latent metric levels
// without sampling noise: in an A/B test the design is the only treatment,
// so the arms differ exactly by the causal effect sizes.
func applyMetricModelDeterministic(tt *model.TaskType, g model.Goal) {
	d := tt.Design

	dis := disagreeBase * ambiguityByGoal[g]
	dis *= math.Pow(float64(maxI(d.Words, 1))/wordsMedian, disagreeWordsExp)
	dis *= math.Pow(float64(maxI(d.Items, 1))/itemsMedian, disagreeItemsExp)
	if d.TextBoxes > 0 {
		dis *= disagreeTextBoxF
	}
	if d.Examples > 0 {
		dis *= disagreeExampleF
	}
	tt.Ambiguity = clampFloat(dis, 0.002, 0.72)

	tsecs := taskTimeBaseSecs
	tsecs *= math.Pow(float64(maxI(d.Items, 1))/itemsMedian, taskTimeItemsExp)
	if d.TextBoxes > 0 {
		tsecs *= taskTimeTextBoxF
	}
	if d.Images > 0 {
		tsecs *= taskTimeImageF
	}
	tt.BaseTaskSecs = clampFloat(tsecs, 3, 9000)

	psecs := pickupBaseSecs
	psecs *= math.Pow(float64(maxI(d.Items, 1))/itemsMedian, pickupItemsExp)
	if d.Examples > 0 {
		psecs *= pickupExampleF
	}
	if d.Images > 0 {
		psecs *= pickupImageF
	}
	tt.BasePickupSecs = clampFloat(psecs, 10, 1.6e7)
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}
