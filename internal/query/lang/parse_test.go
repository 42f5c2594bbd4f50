package lang

import (
	"reflect"
	"strings"
	"testing"
)

func mustParse(t *testing.T, s string) *Query {
	t.Helper()
	q, err := Parse(s)
	if err != nil {
		t.Fatalf("Parse(%q): %v", s, err)
	}
	return q
}

func TestParsePipeline(t *testing.T) {
	q := mustParse(t, "where trust >= 0.8 and (worker.class == super or tasktype in {1, 2}) | group week, worker.class | value duration | p50 | distinct worker | sort count | top 10")
	if q.Where == nil {
		t.Fatal("no where expr")
	}
	and, ok := q.Where.(*And)
	if !ok || len(and.X) != 2 {
		t.Fatalf("where = %#v, want 2-ary And", q.Where)
	}
	if _, ok := and.X[1].(*Or); !ok {
		t.Fatalf("second conjunct = %#v, want Or", and.X[1])
	}
	if !reflect.DeepEqual(q.Group, []string{"week", "worker.class"}) {
		t.Errorf("group = %v", q.Group)
	}
	if q.Value != "duration" || !q.P50 || q.Distinct != "worker" || q.Sort != "count" || !q.HasTop || q.Top != 10 {
		t.Errorf("stages = %+v", q)
	}
}

func TestParseStageOrderIrrelevant(t *testing.T) {
	a := mustParse(t, "group week | where worker == 3 | value trust")
	b := mustParse(t, "where worker == 3 | value trust | group week")
	if !reflect.DeepEqual(a, b) {
		t.Errorf("stage order changed the AST: %#v vs %#v", a, b)
	}
	if a.String() != b.String() {
		t.Errorf("canonical forms differ: %q vs %q", a.String(), b.String())
	}
}

func TestParseValueKinds(t *testing.T) {
	cases := []struct {
		in   string
		want Value
	}{
		{"worker == 42", Value{Kind: VInt, Int: 42}},
		{"worker == -7", Value{Kind: VInt, Int: -7}},
		{"trust == 0.8", Value{Kind: VFloat, Float: 0.8}},
		{"trust == 1e-3", Value{Kind: VFloat, Float: 1e-3}},
		{"start == week:130", Value{Kind: VWeek, Int: 130}},
		{"start == day:-2", Value{Kind: VDay, Int: -2}},
		{"worker.class == super", Value{Kind: VWord, Word: "super"}},
		{"batch.sampled == true", Value{Kind: VWord, Word: "true"}},
		{"trust == nan", Value{Kind: VWord, Word: "nan"}}, // NaN never classifies as a float
	}
	for _, c := range cases {
		q, err := Parse("where " + c.in)
		if err != nil {
			t.Errorf("Parse(where %s): %v", c.in, err)
			continue
		}
		p := q.Where.(*Pred)
		if !reflect.DeepEqual(p.Arg, c.want) {
			t.Errorf("Parse(where %s): Arg = %#v, want %#v", c.in, p.Arg, c.want)
		}
	}
}

func TestParseExprShapes(t *testing.T) {
	// and binds tighter than or; parens override.
	e := mustParse(t, "where worker == 1 and trust >= 0.5 or tasktype == 2").Where
	or, ok := e.(*Or)
	if !ok || len(or.X) != 2 {
		t.Fatalf("expr = %#v, want top-level Or", e)
	}
	if _, ok := or.X[0].(*And); !ok {
		t.Errorf("first disjunct = %#v, want And", or.X[0])
	}

	// Nested same-op groups flatten to one level.
	flat := mustParse(t, "where (worker == 1 or worker == 2) or worker == 3").Where
	if o, ok := flat.(*Or); !ok || len(o.X) != 3 {
		t.Fatalf("expr = %#v, want flat 3-ary Or", flat)
	}
}

func TestParseErrors(t *testing.T) {
	for _, s := range []string{
		"",
		"   ",
		"worker == 1",                           // bare expression: stages need keywords
		"where worker !! 1",                     // bad operator character
		"where worker == 1 | ",                  // trailing pipe
		"where worker",                          // missing operator
		"where worker in {}",                    // empty set
		"where worker in {1, 2",                 // unterminated set
		"where worker in [1, 2",                 // unterminated range
		"where (worker == 1",                    // unterminated group
		"where in == 1",                         // keyword as column
		"where worker == 1 and",                 // dangling and
		"where worker == week:abc",              // malformed week sugar
		"group",                                 // missing key
		"group week, ",                          // dangling comma
		"value",                                 // missing value name
		"sort sideways",                         // unknown sort order
		"top -3",                                // negative top
		"top many",                              // non-integer top
		"bogus stage",                           // unknown stage keyword
		"where worker == 1 | where worker == 2", // duplicate stage
		"where worker == 1 extra",               // trailing junk in expr
	} {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) accepted", s)
		}
	}
}

// TestParseExprErrors: a where stage takes exactly one expression — not
// none, and not one trailed by junk or by a pipe without a stage.
func TestParseExprErrors(t *testing.T) {
	for _, s := range []string{"where", "where worker == 1 extra", "where worker == 1 |"} {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) accepted", s)
		}
	}
}

// TestStringRoundTrip: every canonical form re-parses to a DeepEqual AST
// and is a fixed point of String.
func TestStringRoundTrip(t *testing.T) {
	for _, s := range []string{
		"where worker == 12",
		"where worker = 12",               // "=" normalizes to "=="
		"where trust < 0.8",               // op and float survive verbatim
		"where trust >= 5.0",              // integral float keeps its .0
		"where start in [week:1, week:2)", // half-open range
		"where start in [day:-1, day:3]",  // inclusive range, negative day
		"where worker in {3, 1, 2}",       // set order preserved
		"where worker.class == super",     // word value
		"where batch.sampled == true or batch.items >= 50",
		"where (worker == 1 or worker == 2) and trust >= 0.5",
		"where worker == 1 and (tasktype == 2 or tasktype == 3) and trust < 0.9",
		"where duration >= 300 | group worker.country, week | value trust | p50 | distinct item | sort count | top 5",
		"group week | value count",
		"value count",
		"p50 | value trust",
	} {
		q, err := Parse(s)
		if err != nil {
			t.Errorf("Parse(%q): %v", s, err)
			continue
		}
		canon := q.String()
		q2, err := Parse(canon)
		if err != nil {
			t.Errorf("reparse of %q -> %q: %v", s, canon, err)
			continue
		}
		if !reflect.DeepEqual(q, q2) {
			t.Errorf("round trip of %q changed AST:\n %#v\n %#v", s, q, q2)
		}
		if q2.String() != canon {
			t.Errorf("String not a fixed point: %q -> %q", canon, q2.String())
		}
	}
}

func TestEmptyQueryCanonical(t *testing.T) {
	// The zero Query (no stages; Parse never returns one) still renders
	// a parseable canonical form.
	var q Query
	if got := q.String(); got != "value count" {
		t.Fatalf("empty query String = %q", got)
	}
	if _, err := Parse(q.String()); err != nil {
		t.Fatalf("canonical empty form does not parse: %v", err)
	}
}

func TestNoSpacesLexing(t *testing.T) {
	a := mustParse(t, "where trust>=0.8 and worker==12").Where
	b := mustParse(t, "where trust >= 0.8 and worker == 12").Where
	if !reflect.DeepEqual(a, b) {
		t.Errorf("spacing changed the AST")
	}
	if !strings.Contains(a.String(), "trust >= 0.8") {
		t.Errorf("canonical form = %q", a.String())
	}
}
