package query

import (
	"reflect"
	"testing"
)

// FuzzParsePredicate drives the path a predicate takes through crowdquery
// -q and /query (lang.Parse of a where stage, then Compile) with arbitrary
// input. The invariants:
// it never panics, and any predicate it yields renders (String) to a
// canonical form that compiles back to the identical predicate — so the
// CLI can echo and replay what it actually executed. The committed
// corpus under testdata/fuzz/FuzzParsePredicate covers every operator,
// both range flavors, the week:/day: sugar, and assorted near-miss
// garbage; the parser itself is fuzzed by lang.FuzzParseQuery, whose
// corpus holds the same inputs.
func FuzzParsePredicate(f *testing.F) {
	for _, seed := range []string{
		"worker == 123",
		"worker=0",
		"batch != 3",
		"tasktype in {3, 1, 2}",
		"item in [4, 6)",
		"answer in [4, 6]",
		"worker >= 10",
		"worker < 0",
		"start in [week:10, week:12)",
		"end >= day:100",
		"start < -1",
		"start in [1400000000, 1400003600)",
		"trust >= 0.8",
		"trust in [0.5, 0.9)",
		"trust == 1e-3",
		"trust < inf",
		"trust == nan",
		"worker in {4294967295}",
		"worker == 4294967296",
		"worker in {1, ",
		"in in in",
		"  ",
		"worker in [9223372036854775807, -9223372036854775808]",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := parsePredicate(s)
		if err != nil {
			return
		}
		canonical := p.String()
		back, err := parsePredicate(canonical)
		if err != nil {
			t.Fatalf("parsePredicate(%q) ok but canonical %q fails to reparse: %v", s, canonical, err)
		}
		if !reflect.DeepEqual(p, back) {
			t.Fatalf("canonical round trip of %q: %+v -> %q -> %+v", s, p, canonical, back)
		}
		if again := back.String(); again != canonical {
			t.Fatalf("String not a fixed point: %q vs %q", canonical, again)
		}
	})
}
