package core

import (
	"math"
	"sort"

	"crowdscope/internal/model"
)

// WorkerStats aggregates one worker's observed activity (Section 5).
type WorkerStats struct {
	ID      uint32
	Source  uint16
	Country uint16
	Class   model.EngagementClass

	// Tasks is the number of task instances completed.
	Tasks int
	// WorkingDays is the number of distinct days with activity.
	WorkingDays int
	// Lifetime is days between first and last activity, inclusive.
	Lifetime int32
	// TotalSecs is the summed task time.
	TotalSecs float64
	// MeanTrust averages the instance trust scores.
	MeanTrust float64
	// MeanRelTime averages task time relative to each batch's median
	// (Figure 27's second quality metric).
	MeanRelTime float64
}

// HoursTotal returns the lifetime hours spent on tasks.
func (w WorkerStats) HoursTotal() float64 { return w.TotalSecs / 3600 }

// HoursPerWorkingDay returns average daily hours on working days.
func (w WorkerStats) HoursPerWorkingDay() float64 {
	if w.WorkingDays == 0 {
		return 0
	}
	return w.TotalSecs / 3600 / float64(w.WorkingDays)
}

// Active reports whether the worker belongs to the paper's "active"
// population: more than 10 distinct working days (Section 5.3).
func (w WorkerStats) Active() bool { return w.WorkingDays > 10 }

// WorkerTable computes per-worker aggregates from the instance log.
// Workers without instances are absent. Rows are sorted by descending
// task count (the Figure 29a rank order).
func (a *Analysis) WorkerTable() []WorkerStats {
	st := a.DS.Store
	starts := st.Starts()
	durs := st.Durations()
	trusts := st.Trusts()
	batches := st.Batches()

	var out []WorkerStats
	st.EachWorker(func(id uint32, rows []int32) {
		w := &a.DS.Workers[id]
		ws := WorkerStats{ID: id, Source: w.Source, Country: w.Country, Class: w.Class}
		days := map[int32]struct{}{}
		first, last := int32(math.MaxInt32), int32(-1)
		var trustSum, relSum float64
		rel := 0
		for _, r := range rows {
			ws.Tasks++
			dur := float64(durs[r])
			ws.TotalSecs += dur
			trustSum += float64(trusts[r])
			day := model.DayOfUnix(starts[r])
			days[day] = struct{}{}
			if day < first {
				first = day
			}
			if day > last {
				last = day
			}
			if bm := a.BatchMetrics[batches[r]]; bm.TaskTime > 0 {
				relSum += dur / bm.TaskTime
				rel++
			}
		}
		ws.WorkingDays = len(days)
		ws.Lifetime = last - first + 1
		ws.MeanTrust = trustSum / float64(ws.Tasks)
		if rel > 0 {
			ws.MeanRelTime = relSum / float64(rel)
		}
		out = append(out, ws)
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Tasks > out[j].Tasks })
	return out
}

// SourceStats aggregates Figure 26/27's per-source view.
type SourceStats struct {
	Source      uint16
	Name        string
	Workers     int
	Tasks       int
	MeanTrust   float64
	MeanRelTime float64
	// AvgTasksPerWorker is Tasks / Workers.
	AvgTasksPerWorker float64
}

// SourceTable reduces the worker table by source. Sources without observed
// workers are omitted. Rows sort by descending task count, ties by
// ascending source ID.
func (a *Analysis) SourceTable(workers []WorkerStats) []SourceStats {
	agg := map[uint16]*SourceStats{}
	for i := range workers {
		w := &workers[i]
		s, ok := agg[w.Source]
		if !ok {
			s = &SourceStats{Source: w.Source, Name: a.DS.Sources[w.Source].Name}
			agg[w.Source] = s
		}
		s.Workers++
		s.Tasks += w.Tasks
		s.MeanTrust += w.MeanTrust * float64(w.Tasks)
		s.MeanRelTime += w.MeanRelTime * float64(w.Tasks)
	}
	out := make([]SourceStats, 0, len(agg))
	for _, s := range agg {
		if s.Tasks > 0 {
			s.MeanTrust /= float64(s.Tasks)
			s.MeanRelTime /= float64(s.Tasks)
			s.AvgTasksPerWorker = float64(s.Tasks) / float64(s.Workers)
		}
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Tasks != out[j].Tasks {
			return out[i].Tasks > out[j].Tasks
		}
		return out[i].Source < out[j].Source
	})
	return out
}

// CountryStats is the Figure 28 geographic rollup.
type CountryStats struct {
	Country uint16
	Name    string
	Workers int
}

// CountryTable counts observed workers per country, sorted descending,
// ties by ascending country ID.
func (a *Analysis) CountryTable(workers []WorkerStats) []CountryStats {
	counts := map[uint16]int{}
	for i := range workers {
		counts[workers[i].Country]++
	}
	out := make([]CountryStats, 0, len(counts))
	for c, n := range counts {
		out = append(out, CountryStats{Country: c, Name: a.DS.Countries[c], Workers: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Workers != out[j].Workers {
			return out[i].Workers > out[j].Workers
		}
		return out[i].Country < out[j].Country
	})
	return out
}
