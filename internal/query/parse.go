package query

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// The predicate production of the text query language, which a where
// stage combines with and, or and parentheses:
//
//	column op value          op: == (or =), <, <=, >, >=
//	column in {v, v, ...}    set membership (integer columns)
//	column in [lo, hi)       range, ) exclusive or ] inclusive
//
// Columns: batch, tasktype, item, worker, start, end, trust, answer,
// duration, plus the joined attribute columns (worker.source,
// worker.country, worker.class, batch.items, batch.redundancy,
// batch.sampled, batch.week). Values are non-negative integers for the ID
// columns, floats for trust, and unix seconds for start/end — with
// `week:N` and `day:N` accepted as sugar for the dataset's week/day
// bucket boundaries. internal/query/lang is the only parser; Compile turns
// each parsed leaf into a Predicate.

// parseColumn resolves a column name.
func parseColumn(s string) (Column, error) {
	for c, name := range columnNames {
		if c != ColNone && name == s {
			return c, nil
		}
	}
	return ColNone, fmt.Errorf("query: unknown column %q", s)
}

// parseGroupBy resolves a group-by name.
func parseGroupBy(s string) (GroupBy, error) {
	for g, name := range groupNames {
		if name == s {
			return g, nil
		}
	}
	return GroupNone, fmt.Errorf("query: unknown group-by %q (want none, batch, worker, tasktype, week, day or a joined attribute)", s)
}

// parseValue resolves a value-column name.
func parseValue(s string) (Value, error) {
	for v, name := range valueNames {
		if name == s {
			return v, nil
		}
	}
	return ValueNone, fmt.Errorf("query: unknown value column %q (want count, duration, trust or start)", s)
}

// String renders the predicate in a canonical form that parses back to
// the same predicate: the normalized bounds, not the original spelling.
func (p Predicate) String() string {
	if p.Set != nil {
		var b strings.Builder
		fmt.Fprintf(&b, "%s in {", p.Col)
		for i, v := range p.Set {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%d", v)
		}
		b.WriteString("}")
		return b.String()
	}
	if p.Col == ColTrust {
		switch {
		case p.FLo == p.FHi:
			return fmt.Sprintf("trust == %s", formatF(p.FLo))
		case math.IsInf(p.FLo, -1):
			return fmt.Sprintf("trust <= %s", formatF(p.FHi))
		case math.IsInf(p.FHi, 1):
			return fmt.Sprintf("trust >= %s", formatF(p.FLo))
		default:
			return fmt.Sprintf("trust in [%s, %s]", formatF(p.FLo), formatF(p.FHi))
		}
	}
	switch {
	case p.Lo == p.Hi:
		return fmt.Sprintf("%s == %d", p.Col, p.Lo)
	case p.Lo == math.MinInt64:
		return fmt.Sprintf("%s <= %d", p.Col, p.Hi)
	case p.Hi == math.MaxInt64:
		return fmt.Sprintf("%s >= %d", p.Col, p.Lo)
	default:
		return fmt.Sprintf("%s in [%d, %d]", p.Col, p.Lo, p.Hi)
	}
}

func formatF(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
