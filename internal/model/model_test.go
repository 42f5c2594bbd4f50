package model

import (
	"testing"
	"time"
)

func TestSimpleClasses(t *testing.T) {
	// Paper Section 3.5: simple goals = {ER, SA, QA}; simple ops =
	// {filter, rate}; simple data = {text}.
	simpleGoals := map[Goal]bool{GoalER: true, GoalSA: true, GoalQA: true}
	for i := 0; i < NumGoals; i++ {
		g := Goal(i)
		if g.Simple() != simpleGoals[g] {
			t.Errorf("Goal %v Simple() = %v", g, g.Simple())
		}
	}
	simpleOps := map[Operator]bool{OpFilter: true, OpRate: true}
	for i := 0; i < NumOperators; i++ {
		o := Operator(i)
		if o.Simple() != simpleOps[o] {
			t.Errorf("Operator %v Simple() = %v", o, o.Simple())
		}
	}
	for i := 0; i < NumDataTypes; i++ {
		d := DataType(i)
		if d.Simple() != (d == DataText) {
			t.Errorf("DataType %v Simple() = %v", d, d.Simple())
		}
	}
}

func TestGoalSetOperations(t *testing.T) {
	var s GoalSet
	s = s.With(GoalER).With(GoalLU)
	if !s.Has(GoalER) || !s.Has(GoalLU) || s.Has(GoalSA) {
		t.Errorf("set membership wrong: %v", s)
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d", s.Len())
	}
	if got := s.String(); got != "ER|LU" {
		t.Errorf("String = %q", got)
	}
	slice := s.Slice()
	if len(slice) != 2 || slice[0] != GoalER || slice[1] != GoalLU {
		t.Errorf("Slice = %v", slice)
	}
	var empty GoalSet
	if empty.String() != "∅" || empty.Len() != 0 {
		t.Error("empty set rendering wrong")
	}
}

func TestOpSetAndDataSet(t *testing.T) {
	var ops OpSet
	ops = ops.With(OpFilter).With(OpExtract)
	if ops.Len() != 2 || !ops.Has(OpExtract) {
		t.Errorf("OpSet wrong: %v", ops)
	}
	var data DataSet
	data = data.With(DataText).With(DataImage).With(DataWeb)
	if data.Len() != 3 || !data.Has(DataWeb) || data.Has(DataAudio) {
		t.Errorf("DataSet wrong: %v", data)
	}
	if got := data.String(); got != "Text|Image|Web" {
		t.Errorf("DataSet string = %q", got)
	}
}

func TestLabelsSimpleClassification(t *testing.T) {
	l := Labels{
		Goals:     GoalSet(0).With(GoalER),
		Operators: OpSet(0).With(OpFilter).With(OpRate),
		Data:      DataSet(0).With(DataText),
	}
	if !l.SimpleGoal() || !l.SimpleOperator() || !l.SimpleData() {
		t.Error("all-simple labels misclassified")
	}
	l2 := Labels{
		Goals:     GoalSet(0).With(GoalER).With(GoalT),
		Operators: OpSet(0).With(OpFilter).With(OpGather),
		Data:      DataSet(0).With(DataText).With(DataImage),
	}
	if l2.SimpleGoal() || l2.SimpleOperator() || l2.SimpleData() {
		t.Error("mixed labels should classify complex")
	}
	var empty Labels
	if empty.SimpleGoal() || empty.SimpleOperator() || empty.SimpleData() {
		t.Error("empty labels should not be simple")
	}
}

func TestTimeIndexing(t *testing.T) {
	if DayIndex(Epoch) != 0 {
		t.Errorf("DayIndex(Epoch) = %d", DayIndex(Epoch))
	}
	if WeekIndex(Epoch.AddDate(0, 0, 13)) != 1 {
		t.Errorf("week of day 13 = %d", WeekIndex(Epoch.AddDate(0, 0, 13)))
	}
	if WeekTime(2) != Epoch.AddDate(0, 0, 14) {
		t.Error("WeekTime round trip failed")
	}
}

func TestUnixConversions(t *testing.T) {
	day := int32(100)
	sec := DayUnix(day)
	if DayOfUnix(sec) != day {
		t.Errorf("DayOfUnix(DayUnix(%d)) = %d", day, DayOfUnix(sec))
	}
	if DayOfUnix(sec+86399) != day {
		t.Error("end of day maps to wrong day")
	}
	if DayOfUnix(sec+86400) != day+1 {
		t.Error("start of next day maps to wrong day")
	}
	if WeekOfUnix(DayUnix(14)) != 2 {
		t.Errorf("WeekOfUnix = %d", WeekOfUnix(DayUnix(14)))
	}
}

func TestWeekday(t *testing.T) {
	// The epoch (2012-07-02) is a Monday.
	if Epoch.Weekday() != time.Monday {
		t.Fatalf("epoch is %v, expected Monday", Epoch.Weekday())
	}
	if Weekday(0) != time.Monday {
		t.Errorf("Weekday(0) = %v", Weekday(0))
	}
	if Weekday(5) != time.Saturday {
		t.Errorf("Weekday(5) = %v", Weekday(5))
	}
	if Weekday(6) != time.Sunday {
		t.Errorf("Weekday(6) = %v", Weekday(6))
	}
	if Weekday(7) != time.Monday {
		t.Errorf("Weekday(7) = %v", Weekday(7))
	}
	// Cross-check against time package over a long span.
	for day := int32(0); day < 1400; day += 13 {
		if want := Epoch.AddDate(0, 0, int(day)).Weekday(); Weekday(day) != want {
			t.Fatalf("Weekday(%d) = %v, time says %v", day, Weekday(day), want)
		}
	}
}

func TestSpanConstants(t *testing.T) {
	if NumDays < 1400 || NumDays > 1600 {
		t.Errorf("NumDays = %d, expected ~1490 for Jul 2012-Jul 2016", NumDays)
	}
	if NumWeeks != (NumDays+6)/7 {
		t.Errorf("NumWeeks inconsistent: %d", NumWeeks)
	}
	if PostBoomWeek <= 0 || PostBoomWeek >= int32(NumWeeks) {
		t.Errorf("PostBoomWeek = %d out of range", PostBoomWeek)
	}
}

func TestBatchInstances(t *testing.T) {
	b := Batch{Items: 100, Redundancy: 3}
	if b.Instances() != 300 {
		t.Errorf("Instances = %d", b.Instances())
	}
}

func TestWorkerLifetime(t *testing.T) {
	w := Worker{FirstDay: 10, LastDay: 10}
	if w.Lifetime() != 1 {
		t.Errorf("one-day lifetime = %d", w.Lifetime())
	}
	w = Worker{FirstDay: 10, LastDay: 109}
	if w.Lifetime() != 100 {
		t.Errorf("lifetime = %d", w.Lifetime())
	}
}

func TestFormatWeek(t *testing.T) {
	got := FormatWeek(0)
	if got != "Jul'12" {
		t.Errorf("FormatWeek(0) = %q", got)
	}
}

func TestEngagementClassNames(t *testing.T) {
	names := map[EngagementClass]string{
		ClassOneDay: "one-day", ClassCasual: "casual",
		ClassActive: "active", ClassSuper: "super",
	}
	for c, want := range names {
		if c.String() != want {
			t.Errorf("%d.String() = %q", c, c.String())
		}
	}
}
