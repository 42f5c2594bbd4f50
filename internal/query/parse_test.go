package query

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"crowdscope/internal/model"
	"crowdscope/internal/query/lang"
)

// parsePredicate compiles one predicate the way crowdquery -q and /query
// do — lang.Parse of a where stage, then Compile — and requires a query of
// that where stage alone, holding a single leaf.
func parsePredicate(s string) (Predicate, error) {
	lq, err := lang.Parse("where " + s)
	if err != nil {
		return Predicate{}, err
	}
	if !reflect.DeepEqual(lq, &lang.Query{Where: lq.Where}) {
		return Predicate{}, fmt.Errorf("%q is more than a where stage", s)
	}
	q, err := Compile(lq)
	if err != nil {
		return Predicate{}, err
	}
	if len(q.Where) != 1 || len(q.Or) != 0 {
		return Predicate{}, fmt.Errorf("%q is not a single predicate", s)
	}
	return q.Where[0], nil
}

func TestParsePredicate(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Predicate
	}{
		{"worker == 123", Eq(ColWorker, 123)},
		{"worker=123", Eq(ColWorker, 123)},
		{"  tasktype  in  {3, 1, 2, 3}  ", In(ColTaskType, 1, 2, 3)},
		{"batch in [4, 6)", Predicate{Col: ColBatch, Lo: 4, Hi: 5}},
		{"item in [4, 6]", Predicate{Col: ColItem, Lo: 4, Hi: 6}},
		{"worker >= 10", Predicate{Col: ColWorker, Lo: 10, Hi: math.MaxUint32}},
		{"worker > 10", Predicate{Col: ColWorker, Lo: 11, Hi: math.MaxUint32}},
		{"worker <= 10", Predicate{Col: ColWorker, Lo: 0, Hi: 10}},
		{"worker < 10", Predicate{Col: ColWorker, Lo: 0, Hi: 9}},
		{"worker < 0", Predicate{Col: ColWorker, Lo: 1, Hi: 0}},
		{"start in [1400000000, 1400003600)", Predicate{Col: ColStart, Lo: 1400000000, Hi: 1400003599}},
		{"start in [week:10, week:12)", Predicate{Col: ColStart, Lo: model.DayUnix(70), Hi: model.DayUnix(84) - 1}},
		{"end >= day:100", Predicate{Col: ColEnd, Lo: model.DayUnix(100), Hi: math.MaxInt64}},
		{"start < 0", Predicate{Col: ColStart, Lo: math.MinInt64, Hi: -1}},
		{"trust >= 0.8", Predicate{Col: ColTrust, FLo: 0.8, FHi: math.Inf(1)}},
		{"trust == 0.5", Predicate{Col: ColTrust, FLo: 0.5, FHi: 0.5}},
		{"trust in [0.5, 0.9]", Predicate{Col: ColTrust, FLo: 0.5, FHi: 0.9}},
		{"trust in [0.5, 0.9)", Predicate{Col: ColTrust, FLo: 0.5, FHi: math.Nextafter(0.9, 0)}},
		{"trust < 0.9", Predicate{Col: ColTrust, FLo: math.Inf(-1), FHi: math.Nextafter(0.9, 0)}},
	} {
		got, err := parsePredicate(tc.in)
		if err != nil {
			t.Errorf("parsePredicate(%q): %v", tc.in, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parsePredicate(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
}

func TestParsePredicateErrors(t *testing.T) {
	for _, in := range []string{
		"",
		"bogus == 1",
		"worker",
		"worker !!",
		"worker ==",
		"worker == x",
		"worker == -1",
		"worker == 4294967296",
		"worker in {}",
		"worker in {1, }",
		"worker in {1, x}",
		"worker in [1)",
		"worker in [1, 2, 3)",
		"worker in (1, 2)",
		"start in {1, 2}",
		"trust in {1}",
		"trust == nan",
		"start == week:x",
		"Worker == 1",
		"worker == 1 extra",
		"start >= week:306783379",  // week*7 would wrap int32
		"start >= week:-306783379", // and in the negative direction
	} {
		if p, err := parsePredicate(in); err == nil {
			t.Errorf("parsePredicate(%q) = %+v, want error", in, p)
		}
	}
}

// TestParseStringRoundTrip: the canonical rendering reparses to the same
// predicate (the property the fuzz target generalizes).
func TestParseStringRoundTrip(t *testing.T) {
	for _, in := range []string{
		"worker == 123",
		"worker <= 10",
		"worker > 10",
		"tasktype in {1, 2, 3}",
		"batch in [4, 6)",
		"start in [week:10, week:12)",
		"start < 0",
		"trust >= 0.8",
		"trust in [0.5, 0.9)",
		"trust == 0.25",
	} {
		p, err := parsePredicate(in)
		if err != nil {
			t.Fatalf("parse %q: %v", in, err)
		}
		back, err := parsePredicate(p.String())
		if err != nil {
			t.Errorf("reparse %q (from %q): %v", p.String(), in, err)
			continue
		}
		if !reflect.DeepEqual(p, back) {
			t.Errorf("round trip %q -> %q: %+v vs %+v", in, p.String(), p, back)
		}
	}
}

func TestParseNames(t *testing.T) {
	if c, err := parseColumn("worker"); err != nil || c != ColWorker {
		t.Errorf("parseColumn(worker) = %v, %v", c, err)
	}
	if _, err := parseColumn("none"); err == nil {
		t.Error("parseColumn(none) should fail")
	}
	if g, err := parseGroupBy("week"); err != nil || g != GroupWeek {
		t.Errorf("parseGroupBy(week) = %v, %v", g, err)
	}
	if v, err := parseValue("duration"); err != nil || v != ValueDuration {
		t.Errorf("parseValue(duration) = %v, %v", v, err)
	}
	for _, bad := range []string{"", "xyzzy"} {
		if _, err := parseGroupBy(bad); err == nil {
			t.Errorf("parseGroupBy(%q) should fail", bad)
		}
		if _, err := parseValue(bad); err == nil {
			t.Errorf("parseValue(%q) should fail", bad)
		}
	}
}
