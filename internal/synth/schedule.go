package synth

import (
	"math"
	"slices"

	"crowdscope/internal/model"
	"crowdscope/internal/rng"
)

// Arrival calibration (Section 3.1). All volumes are *declared* instances
// across the full 58k-batch marketplace; the 12k-batch sample carries
// roughly a fifth of them, landing the sample's post-2015 median daily
// load near the paper's ~30k instances/day.
const (
	// NumBatchesFull is the full-scale batch count (~58k, Section 2.2).
	NumBatchesFull = 58000
	// SampledBatchesFull is the fully visible sample (~12k).
	SampledBatchesFull = 12000
	// sampledTypeFrac is the share of distinct tasks with at least one
	// sampled batch (5,000 of 6,600 ≈ 76%).
	sampledTypeFrac = 0.76

	// postBoomWeeklyMedian is the median declared-instance volume per
	// post-2015 week, full marketplace.
	postBoomWeeklyMedian = 0.62e6
	// preBoomWeeklyMedian is the sparse pre-2015 weekly volume.
	preBoomWeeklyMedian = 2.4e4
	// burstProb is the chance a post-2015 week is a burst week; burst
	// weeks run an order of magnitude or more above the median, producing
	// the up-to-30x daily peaks of Figure 2a.
	burstProb = 0.055
	// quietProb is the chance a post-2015 week nearly empties out,
	// producing the 0.0004x-of-median lightest days.
	quietProb = 0.04
)

// weekdayFactor shapes within-week load: Monday is the heaviest day and
// load decays across the week, with weekends at roughly half of weekday
// levels (Figure 3).
var weekdayFactor = [7]float64{1.45, 1.30, 1.18, 1.08, 0.99, 0.66, 0.60}

// weeklyBudgets draws the declared-instance budget for every week of the
// span. Bursts and quiet weeks only appear once the marketplace takes off
// in January 2015.
func weeklyBudgets(r *rng.Rand) []float64 {
	out := make([]float64, model.NumWeeks)
	post := int(model.PostBoomWeek)
	rampStart := post - 30 // activity thickens through late 2014 (Figure 2a)
	for w := range out {
		switch {
		case w < rampStart:
			// Sparse early period: many near-empty weeks.
			if r.Bool(0.45) {
				out[w] = preBoomWeeklyMedian * r.LogNormalMedian(1, 0.8)
			} else {
				out[w] = preBoomWeeklyMedian * 0.05 * r.Float64()
			}
		case w < post:
			// Ramp toward the boom.
			frac := float64(w-rampStart) / float64(post-rampStart)
			out[w] = preBoomWeeklyMedian + frac*frac*(postBoomWeeklyMedian*0.35)*r.LogNormalMedian(1, 0.5)
		default:
			base := postBoomWeeklyMedian * r.LogNormalMedian(1, 0.4)
			switch {
			case r.Bool(burstProb):
				base *= 3 + r.Pareto(1, 1.6)*2
				if base > postBoomWeeklyMedian*10 {
					base = postBoomWeeklyMedian * 10
				}
			case r.Bool(quietProb):
				base *= 0.0004 + 0.005*r.Float64()
			}
			out[w] = base
		}
	}
	return out
}

// dailyBudget splits a weekly budget across its days with the weekday
// profile plus noise.
func dailyBudget(r *rng.Rand, weekly float64, weekday int) float64 {
	return weekly / 7 * weekdayFactor[weekday] * r.LogNormalMedian(1, 0.3)
}

// pickupLoadFactors converts weekly budgets into the load-coupled pickup
// multiplier: during heavy weeks the marketplace moves faster (Section 3.2
// observes pickup dips at load peaks), so pickup time scales with
// (load/median)^-exp.
func pickupLoadFactors(weekly []float64) []float64 {
	// Median over post-boom weeks.
	post := weekly[model.PostBoomWeek:]
	buf := append([]float64(nil), post...)
	slices.Sort(buf)
	med := buf[len(buf)/2]
	if med <= 0 {
		med = 1
	}
	out := make([]float64, len(weekly))
	for w, v := range weekly {
		if v <= 0 {
			out[w] = 1
			continue
		}
		f := math.Pow(v/med, -0.35)
		if f > 6 {
			f = 6
		}
		if f < 0.12 {
			f = 0.12
		}
		out[w] = f
	}
	return out
}

// batchStub is an un-materialized batch: enough to build the Batch table
// and decide sampling, before instances exist.
type batchStub struct {
	taskType      uint32
	day           int32
	createdSec    int64
	declaredItems int32
	redundancy    int16
	pickupMedian  float64 // per-batch median pickup seconds, load-adjusted
}

// typeScheduler picks an eligible task type for a batch arriving in a
// given week, weighted by type popularity. Eligible lists and alias tables
// are built lazily per week.
type typeScheduler struct {
	types      []model.TaskType
	popularity []float64
	eligible   [][]int
	pickers    []*rng.Categorical
}

func newTypeScheduler(r *rng.Rand, types []model.TaskType) *typeScheduler {
	s := &typeScheduler{
		types:      types,
		popularity: typePopularity(r, types),
		eligible:   make([][]int, model.NumWeeks),
		pickers:    make([]*rng.Categorical, model.NumWeeks),
	}
	for i := range types {
		for w := types[i].FirstWeek; w <= types[i].LastWeek && w < int32(model.NumWeeks); w++ {
			s.eligible[w] = append(s.eligible[w], i)
		}
	}
	return s
}

// pick returns a task type index active in the week, or -1 when none is.
func (s *typeScheduler) pick(r *rng.Rand, week int32) int {
	if week < 0 || int(week) >= len(s.eligible) || len(s.eligible[week]) == 0 {
		return -1
	}
	if s.pickers[week] == nil {
		ws := make([]float64, len(s.eligible[week]))
		for i, ti := range s.eligible[week] {
			ws[i] = s.popularity[ti]
		}
		s.pickers[week] = rng.NewCategorical(ws)
	}
	return s.eligible[week][s.pickers[week].Sample(r)]
}

// buildSchedule generates all batch stubs across the span by spending each
// day's declared-instance budget on batches of types active that week.
func buildSchedule(r *rng.Rand, types []model.TaskType) ([]batchStub, []float64) {
	weekly := weeklyBudgets(r)
	loadFactor := pickupLoadFactors(weekly)
	sched := newTypeScheduler(r, types)

	var stubs []batchStub
	for day := int32(0); day < int32(model.NumDays); day++ {
		week := day / 7
		budget := dailyBudget(r, weekly[week], int(day)%7)
		guard := 0
		for budget > 0 && guard < 4000 {
			guard++
			ti := sched.pick(r, week)
			if ti < 0 {
				break
			}
			tt := &types[ti]
			items := int32(r.LogNormalMedian(float64(tt.Design.Items), 0.5))
			if items < 1 {
				items = 1
			}
			red := redundancyDraw(r)
			declared := float64(items) * float64(red)
			// Batch creation time within working hours of the day.
			created := model.DayUnix(day) + int64(6*3600) + r.Int63n(14*3600)
			pickup := r.LogNormalMedian(tt.BasePickupSecs, 0.55) * loadFactor[week]
			stubs = append(stubs, batchStub{
				taskType:      uint32(ti),
				day:           day,
				createdSec:    created,
				declaredItems: items,
				redundancy:    red,
				pickupMedian:  pickup,
			})
			budget -= declared
		}
	}
	return stubs, weekly
}

// redundancyDraw picks how many workers answer each item: 3-7, centered
// on 5.
func redundancyDraw(r *rng.Rand) int16 {
	switch v := r.Float64(); {
	case v < 0.20:
		return 3
	case v < 0.45:
		return 4
	case v < 0.80:
		return 5
	case v < 0.93:
		return 6
	default:
		return 7
	}
}

// chooseSampled selects ~12k batches into the fully visible sample,
// stratified so ~76% of distinct tasks are represented (Section 2.2): one
// batch from each represented type, then a uniform fill.
func chooseSampled(r *rng.Rand, stubs []batchStub, types []model.TaskType, target int) []bool {
	sampled := make([]bool, len(stubs))
	byType := make([][]int, len(types))
	for i := range stubs {
		byType[stubs[i].taskType] = append(byType[stubs[i].taskType], i)
	}
	// Which task types are represented at all.
	represented := make([]bool, len(types))
	for ti := range types {
		if len(byType[ti]) == 0 {
			continue
		}
		// Heavy hitters are always represented; others with probability
		// sampledTypeFrac.
		if types[ti].HeavyHitter || r.Bool(sampledTypeFrac) {
			represented[ti] = true
		}
	}
	count := 0
	for ti, ok := range represented {
		if !ok || count >= target {
			continue
		}
		pick := byType[ti][r.Intn(len(byType[ti]))]
		if !sampled[pick] {
			sampled[pick] = true
			count++
		}
	}
	// Uniform fill over batches of represented types.
	var candidates []int
	for i := range stubs {
		if !sampled[i] && represented[stubs[i].taskType] {
			candidates = append(candidates, i)
		}
	}
	r.Shuffle(len(candidates), func(a, b int) { candidates[a], candidates[b] = candidates[b], candidates[a] })
	for _, i := range candidates {
		if count >= target {
			break
		}
		sampled[i] = true
		count++
	}
	return sampled
}
