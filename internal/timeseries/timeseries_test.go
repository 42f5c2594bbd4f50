package timeseries

import (
	"math"
	"testing"
	"time"

	"crowdscope/internal/model"
)

func TestWeeklyBucketing(t *testing.T) {
	s := NewWeekly()
	base := model.Epoch.Unix()
	s.IncrAt(base)              // week 0
	s.IncrAt(base + 6*86400)    // still week 0
	s.IncrAt(base + 7*86400)    // week 1
	s.AddAt(base+20*86400, 2.5) // week 2
	if s.At(0) != 2 || s.At(1) != 1 || s.At(2) != 2.5 {
		t.Errorf("buckets = %v %v %v", s.At(0), s.At(1), s.At(2))
	}
	if s.Total() != 5.5 {
		t.Errorf("total = %v", s.Total())
	}
}

func TestOutOfRangeDropped(t *testing.T) {
	s := NewWeekly()
	s.IncrAt(model.Epoch.Unix() - 1)
	s.IncrAt(model.Horizon.Unix() + 365*86400)
	if s.Total() != 0 {
		t.Errorf("out-of-range samples counted: %v", s.Total())
	}
	if s.At(-1) != 0 || s.At(len(s.Values)+5) != 0 {
		t.Error("At out of range should be 0")
	}
}

func TestCumulative(t *testing.T) {
	s := &Series{Step: time.Hour, Values: []float64{1, 0, 2, 3}}
	c := s.Cumulative()
	want := []float64{1, 1, 3, 6}
	for i := range want {
		if c.Values[i] != want[i] {
			t.Errorf("cumulative[%d] = %v, want %v", i, c.Values[i], want[i])
		}
	}
	// Original untouched.
	if s.Values[1] != 0 {
		t.Error("Cumulative mutated source")
	}
}

func TestMinus(t *testing.T) {
	s := &Series{Step: time.Hour, Values: []float64{5, 3, 2, 7}}
	o := &Series{Step: time.Hour, Values: []float64{1, 3, 2}} // shorter: missing buckets read as 0
	d := s.Minus(o)
	want := []float64{4, 0, 0, 7}
	for i := range want {
		if d.Values[i] != want[i] {
			t.Errorf("minus[%d] = %v, want %v", i, d.Values[i], want[i])
		}
	}
	if s.Values[0] != 5 || o.Values[0] != 1 {
		t.Error("Minus mutated an operand")
	}
}

func TestMaxAndSlice(t *testing.T) {
	s := &Series{Step: time.Hour, Values: []float64{1, 9, 2}}
	v, i := s.Max()
	if v != 9 || i != 1 {
		t.Errorf("Max = %v@%d", v, i)
	}
	sub := s.Slice(1, 3)
	if sub.Len() != 2 || sub.Values[0] != 9 {
		t.Errorf("Slice = %v", sub.Values)
	}
	clamped := s.Slice(-5, 99)
	if clamped.Len() != 3 {
		t.Errorf("clamped slice len = %d", clamped.Len())
	}
	empty := &Series{Step: time.Hour}
	if v, i := empty.Max(); !math.IsNaN(v) || i != -1 {
		t.Error("empty Max should be NaN,-1")
	}
}

func TestNonZero(t *testing.T) {
	s := &Series{Step: time.Hour, Values: []float64{0, 3, 0, 5}}
	nz := s.NonZero()
	if len(nz) != 2 || nz[0] != 3 || nz[1] != 5 {
		t.Errorf("NonZero = %v", nz)
	}
}

func TestWeekdayFold(t *testing.T) {
	d := NewDaily()
	// Day 0 is Monday: add 10 to the first Monday, 4 to the first Saturday.
	d.Values[0] = 10
	d.Values[7] = 10 // second Monday
	d.Values[5] = 4  // Saturday
	d.Values[6] = 2  // Sunday
	fold := WeekdayFold(d)
	if fold[0] != 20 {
		t.Errorf("Monday total = %v", fold[0])
	}
	if fold[5] != 4 || fold[6] != 2 {
		t.Errorf("weekend totals = %v %v", fold[5], fold[6])
	}
	if fold[1] != 0 {
		t.Errorf("Tuesday total = %v", fold[1])
	}
}

func TestSummarizeLoad(t *testing.T) {
	s := &Series{Step: time.Hour, Values: []float64{0, 10, 30, 20, 0, 900}}
	ls := SummarizeLoad(s)
	if ls.Median != 25 { // nonzero: 10,30,20,900 → median (20+30)/2
		t.Errorf("median = %v", ls.Median)
	}
	if ls.Max != 900 || ls.Min != 10 {
		t.Errorf("max/min = %v/%v", ls.Max, ls.Min)
	}
	if math.Abs(ls.PeakRatio-36) > 1e-12 {
		t.Errorf("peak ratio = %v", ls.PeakRatio)
	}
	if math.Abs(ls.TroughRatio-0.4) > 1e-12 {
		t.Errorf("trough ratio = %v", ls.TroughRatio)
	}
	empty := SummarizeLoad(&Series{Step: time.Hour, Values: []float64{0, 0}})
	if !math.IsNaN(empty.Median) {
		t.Error("all-zero load should summarize to NaN")
	}
}

func TestGroupedSeriesMedian(t *testing.T) {
	g := NewWeeklyGrouped()
	base := model.Epoch.Unix()
	g.Observe(base, 10)
	g.Observe(base+3600, 30)
	g.Observe(base+7200, 20)
	g.Observe(base+8*86400, 5)
	med := g.Median()
	if med.At(0) != 20 {
		t.Errorf("week0 median = %v", med.At(0))
	}
	if med.At(1) != 5 {
		t.Errorf("week1 median = %v", med.At(1))
	}
	cnt := g.Count()
	if cnt.At(0) != 3 || cnt.At(1) != 1 {
		t.Errorf("counts = %v %v", cnt.At(0), cnt.At(1))
	}
}

func TestGroupedSeriesIgnoresPreEpoch(t *testing.T) {
	g := NewWeeklyGrouped()
	g.Observe(model.Epoch.Unix()-100, 1)
	if g.Count().Total() != 0 {
		t.Error("pre-epoch observation counted")
	}
}

func TestDistinctCounter(t *testing.T) {
	d := NewWeeklyDistinct()
	base := model.Epoch.Unix()
	d.Observe(base, 1)
	d.Observe(base+3600, 1) // same worker, same week → still 1
	d.Observe(base+7200, 2)
	d.Observe(base+10*86400, 1) // week 1
	s := d.Series()
	if s.At(0) != 2 {
		t.Errorf("week0 distinct = %v", s.At(0))
	}
	if s.At(1) != 1 {
		t.Errorf("week1 distinct = %v", s.At(1))
	}
	// Out of range observations are dropped.
	d.Observe(base-1000, 9)
	if d.Series().At(0) != 2 {
		t.Error("pre-epoch observation leaked in")
	}
}

func TestSeriesString(t *testing.T) {
	s := &Series{Step: time.Hour, Values: []float64{1, 2}}
	if got := s.String(); got == "" {
		t.Error("String should be non-empty")
	}
}
