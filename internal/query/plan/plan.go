// Package plan holds the statistics-free planner's data structures: the
// scored clause, the greedy clause orderer, and the explainable Plan
// value. Scores come from selectivity proxies the store already
// persists (zone-map widths, distinct-set sizes, row counts) — there is
// no statistics collection pass, so planning stays in the microsecond
// range and plans can be cached by canonical query text.
//
// The package is deliberately free of store and query dependencies:
// internal/query computes the proxy numbers and feeds them in, which
// keeps the ordering policy a pure, testable function.
package plan

import (
	"fmt"
	"sort"
	"strings"
)

// Clause is one ANDed unit of a query's filter: a single conjunct
// (Leaves == 1) or an OR-group of predicates (Leaves > 1).
type Clause struct {
	// Text is the clause's canonical predicate text, as printed by
	// EXPLAIN and used in the plan-cache key.
	Text string
	// Selectivity estimates the fraction of rows the clause keeps, in
	// [0, 1], derived from zone-map width / distinct-set proxies. Lower
	// is better placed earlier.
	Selectivity float64
	// Cost is the clause's relative per-row evaluation cost (1.0 = a
	// plain range kernel); set-membership and multi-leaf groups cost
	// more.
	Cost float64
	// Leaves counts the predicates inside the clause (>1 for OR
	// groups).
	Leaves int
}

// score is the greedy ordering weight for non-driving clauses: cheap,
// selective clauses shrink the surviving bitmap soonest per unit work.
func (c Clause) score() float64 { return c.Selectivity * c.Cost }

// Order returns the greedy execution order as indices into cs. The
// driving clause is the most selective one (ties: cheaper, then first
// written); the rest follow in ascending selectivity*cost (ties: first
// written). The result is deterministic for a given input.
func Order(cs []Clause) []int {
	idx := make([]int, len(cs))
	for i := range idx {
		idx[i] = i
	}
	if len(cs) < 2 {
		return idx
	}
	drive := 0
	for i := 1; i < len(cs); i++ {
		if cs[i].Selectivity < cs[drive].Selectivity ||
			(cs[i].Selectivity == cs[drive].Selectivity && cs[i].Cost < cs[drive].Cost) {
			drive = i
		}
	}
	rest := make([]int, 0, len(cs)-1)
	for i := range cs {
		if i != drive {
			rest = append(rest, i)
		}
	}
	sort.SliceStable(rest, func(a, b int) bool {
		return cs[rest[a]].score() < cs[rest[b]].score()
	})
	return append([]int{drive}, rest...)
}

// SegmentSummary aggregates the per-segment kernel choices the binder
// made, keyed by kernel name (raw, rle, dict, for32, ...).
type SegmentSummary struct {
	Segments int            // segments the plan will scan
	Pruned   int            // segments eliminated by zone maps
	Kernels  map[string]int // kernel name -> count across scanned segments
}

// GranuleSummary aggregates the binder's second pruning level: the
// granules (fixed-size row slices with their own zones) of the segments
// the plan will scan. All zero on a source that keeps no granule zones.
type GranuleSummary struct {
	Granules int // granules the plan will scan
	Pruned   int // granules eliminated by their zones
	Covered  int // scanned granules every clause provably holds on: no kernel runs
}

// Plan is the explicit, printable execution plan for one query against
// one source. Clauses appear in execution order.
type Plan struct {
	Query   string // canonical query text (the cache key's query part)
	Source  string // "store" or "dataset"
	Clauses []Clause
	Order   []int // Clauses[i] was written at position Order-inverse; kept for tests
	Rows    int   // total rows in the source
	Seg     SegmentSummary
	Gran    GranuleSummary
	Shards  SegmentSummary // dataset sources only (Segments==0 otherwise)
	Cached  bool           // true when served from the plan cache
}

// String renders the EXPLAIN form: deterministic, no timings, stable
// across runs so it can be golden-tested.
func (p *Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan: %s\n", p.Query)
	fmt.Fprintf(&b, "source: %s (%d rows)\n", p.Source, p.Rows)
	if len(p.Clauses) == 0 {
		b.WriteString("clauses: none (full scan)\n")
	} else {
		b.WriteString("clauses (greedy order, driving first):\n")
		for i, c := range p.Clauses {
			role := ""
			if i == 0 {
				role = "  [driving]"
			}
			leaves := ""
			if c.Leaves > 1 {
				leaves = fmt.Sprintf(" leaves=%d", c.Leaves)
			}
			fmt.Fprintf(&b, "  %d. %-40s sel=%.4f cost=%.2f%s%s\n", i+1, c.Text, c.Selectivity, c.Cost, leaves, role)
		}
	}
	if p.Shards.Segments+p.Shards.Pruned > 0 {
		fmt.Fprintf(&b, "shards: %d of %d scanned (%d zone-map-pruned)\n",
			p.Shards.Segments, p.Shards.Segments+p.Shards.Pruned, p.Shards.Pruned)
	}
	fmt.Fprintf(&b, "segments: %d of %d scanned (%d zone-map-pruned)\n",
		p.Seg.Segments, p.Seg.Segments+p.Seg.Pruned, p.Seg.Pruned)
	if p.Gran.Granules+p.Gran.Pruned > 0 {
		fmt.Fprintf(&b, "granules: %d of %d scanned (%d pruned, %d covered)\n",
			p.Gran.Granules, p.Gran.Granules+p.Gran.Pruned, p.Gran.Pruned, p.Gran.Covered)
	}
	if len(p.Seg.Kernels) > 0 {
		names := make([]string, 0, len(p.Seg.Kernels))
		for k := range p.Seg.Kernels {
			names = append(names, k)
		}
		sort.Strings(names)
		b.WriteString("kernels:")
		for _, k := range names {
			fmt.Fprintf(&b, " %s=%d", k, p.Seg.Kernels[k])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
