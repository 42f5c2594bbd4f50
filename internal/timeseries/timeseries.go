// Package timeseries provides weekly and daily bucketed series over the
// dataset's 2012–2016 span, plus the series algebra the paper's time plots
// need: accumulation, overlays, per-weekday folding, and peak/median load
// ratios.
package timeseries

import (
	"fmt"
	"math"
	"time"

	"crowdscope/internal/model"
	"crowdscope/internal/stats"
)

// Series is a fixed-resolution time series indexed from the dataset epoch.
type Series struct {
	// Step is the bucket width.
	Step time.Duration
	// Values holds one bucket per step from the epoch.
	Values []float64
}

// NewWeekly returns an all-zero weekly series covering the dataset span.
func NewWeekly() *Series {
	return &Series{Step: 7 * 24 * time.Hour, Values: make([]float64, model.NumWeeks)}
}

// NewDaily returns an all-zero daily series covering the dataset span.
func NewDaily() *Series {
	return &Series{Step: 24 * time.Hour, Values: make([]float64, model.NumDays)}
}

// Len returns the number of buckets.
func (s *Series) Len() int { return len(s.Values) }

// AddAt accumulates v into the bucket containing unix second sec; samples
// outside the span are dropped.
func (s *Series) AddAt(sec int64, v float64) {
	i := s.indexOf(sec)
	if i >= 0 && i < len(s.Values) {
		s.Values[i] += v
	}
}

// IncrAt adds one to the bucket containing unix second sec.
func (s *Series) IncrAt(sec int64) { s.AddAt(sec, 1) }

func (s *Series) indexOf(sec int64) int {
	delta := sec - model.Epoch.Unix()
	if delta < 0 {
		return -1 // Go integer division truncates toward zero; pre-epoch must not land in bucket 0
	}
	return int(delta / int64(s.Step/time.Second))
}

// At returns bucket i's value (0 outside the range).
func (s *Series) At(i int) float64 {
	if i < 0 || i >= len(s.Values) {
		return 0
	}
	return s.Values[i]
}

// Total returns the sum of all buckets.
func (s *Series) Total() float64 {
	t := 0.0
	for _, v := range s.Values {
		t += v
	}
	return t
}

// Max returns the largest bucket value and its index (-1 when empty).
func (s *Series) Max() (float64, int) {
	if len(s.Values) == 0 {
		return math.NaN(), -1
	}
	best, arg := s.Values[0], 0
	for i, v := range s.Values[1:] {
		if v > best {
			best, arg = v, i+1
		}
	}
	return best, arg
}

// Cumulative returns a new series where bucket i holds the running total of
// buckets 0..i (the paper's Figures 8 and 12 plot cumulative counts).
func (s *Series) Cumulative() *Series {
	out := &Series{Step: s.Step, Values: make([]float64, len(s.Values))}
	run := 0.0
	for i, v := range s.Values {
		run += v
		out.Values[i] = run
	}
	return out
}

// Minus returns a new series holding s - o per bucket (o clamped to s's
// length); the complement of a cohort series given the totals.
func (s *Series) Minus(o *Series) *Series {
	out := &Series{Step: s.Step, Values: make([]float64, len(s.Values))}
	for i, v := range s.Values {
		out.Values[i] = v - o.At(i)
	}
	return out
}

// Slice returns the sub-series covering buckets [from, to).
func (s *Series) Slice(from, to int) *Series {
	if from < 0 {
		from = 0
	}
	if to > len(s.Values) {
		to = len(s.Values)
	}
	if from > to {
		from = to
	}
	return &Series{Step: s.Step, Values: append([]float64(nil), s.Values[from:to]...)}
}

// NonZero returns the values of all non-zero buckets; load-statistics
// (median daily load, peak ratios) are computed over days with activity.
func (s *Series) NonZero() []float64 {
	out := make([]float64, 0, len(s.Values))
	for _, v := range s.Values {
		if v != 0 {
			out = append(out, v)
		}
	}
	return out
}

// String summarizes the series.
func (s *Series) String() string {
	max, _ := s.Max()
	return fmt.Sprintf("Series{step=%v, buckets=%d, total=%.0f, max=%.0f}", s.Step, len(s.Values), s.Total(), max)
}

// WeekdayFold sums a daily series by weekday, returning totals indexed
// Monday..Sunday as in the paper's Figure 3.
func WeekdayFold(daily *Series) [7]float64 {
	var out [7]float64
	for i, v := range daily.Values {
		day := int32(i)
		wd := model.Weekday(day)
		// Re-index so Monday is position 0, Sunday position 6.
		pos := (int(wd) + 6) % 7
		out[pos] += v
	}
	return out
}

// WeekdayNames are the labels for WeekdayFold output.
var WeekdayNames = [7]string{"Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun"}

// LoadStats summarizes the distribution of per-bucket load.
type LoadStats struct {
	Median      float64
	Max         float64
	Min         float64 // smallest non-zero bucket
	PeakRatio   float64 // Max / Median
	TroughRatio float64 // Min / Median
}

// SummarizeLoad computes LoadStats over the non-zero buckets of s.
func SummarizeLoad(s *Series) LoadStats {
	nz := s.NonZero()
	if len(nz) == 0 {
		return LoadStats{Median: math.NaN(), Max: math.NaN(), Min: math.NaN(), PeakRatio: math.NaN(), TroughRatio: math.NaN()}
	}
	med := stats.Median(nz)
	mn, mx := nz[0], nz[0]
	for _, v := range nz[1:] {
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	return LoadStats{Median: med, Max: mx, Min: mn, PeakRatio: mx / med, TroughRatio: mn / med}
}

// GroupedSeries buckets a statistic per (week, group) pair — e.g. the
// median pickup time per week, or tasks done per week by a worker decile.
type GroupedSeries struct {
	step    time.Duration
	buckets map[int][]float64
}

// NewWeeklyGrouped returns an empty weekly grouped series.
func NewWeeklyGrouped() *GroupedSeries {
	return &GroupedSeries{step: 7 * 24 * time.Hour, buckets: map[int][]float64{}}
}

// Observe appends one observation at unix second sec; pre-epoch samples
// are dropped.
func (g *GroupedSeries) Observe(sec int64, v float64) {
	delta := sec - model.Epoch.Unix()
	if delta < 0 {
		return
	}
	i := int(delta / int64(g.step/time.Second))
	g.buckets[i] = append(g.buckets[i], v)
}

// Median returns a Series of per-bucket medians (NaN buckets are zeroed).
func (g *GroupedSeries) Median() *Series {
	n := model.NumWeeks
	out := &Series{Step: g.step, Values: make([]float64, n)}
	for i, vs := range g.buckets {
		if i < n && len(vs) > 0 {
			out.Values[i] = stats.Median(vs)
		}
	}
	return out
}

// Count returns a Series of per-bucket observation counts.
func (g *GroupedSeries) Count() *Series {
	n := model.NumWeeks
	out := &Series{Step: g.step, Values: make([]float64, n)}
	for i, vs := range g.buckets {
		if i < n {
			out.Values[i] = float64(len(vs))
		}
	}
	return out
}

// DistinctCounter counts distinct uint32 keys per weekly bucket — e.g.
// distinct active workers per week (Figure 4) or distinct tasks per week
// (Figure 1).
type DistinctCounter struct {
	sets []map[uint32]struct{}
}

// NewWeeklyDistinct returns a distinct counter over the dataset's weeks.
func NewWeeklyDistinct() *DistinctCounter {
	return &DistinctCounter{sets: make([]map[uint32]struct{}, model.NumWeeks)}
}

// Observe records key as active in the week containing unix second sec.
func (d *DistinctCounter) Observe(sec int64, key uint32) {
	i := int(model.WeekOfUnix(sec))
	if i < 0 || i >= len(d.sets) {
		return
	}
	if d.sets[i] == nil {
		d.sets[i] = map[uint32]struct{}{}
	}
	d.sets[i][key] = struct{}{}
}

// Series returns the weekly distinct counts.
func (d *DistinctCounter) Series() *Series {
	out := NewWeekly()
	for i, set := range d.sets {
		out.Values[i] = float64(len(set))
	}
	return out
}
