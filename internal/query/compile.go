package query

import (
	"fmt"
	"math"

	"crowdscope/internal/model"
	"crowdscope/internal/query/lang"
)

// This file compiles the parsed query language (internal/query/lang) onto
// the engine's typed Query: column names resolve, literals convert under
// each column's value rules, and the boolean expression normalizes to
// conjunctive normal form — single-leaf clauses land in Query.Where,
// multi-leaf disjunctions in Query.Or.

// maxClauses bounds CNF blow-up: distributing OR over AND can square the
// clause count, so deeply alternated expressions are rejected instead of
// silently exploding.
const maxClauses = 64

// ParseQuery parses a pipeline-syntax text query and compiles it to the
// engine's typed form. The sort and top stages are presentation concerns
// the engine ignores; callers that honor them (the CLI, the query service)
// read them from lang.Parse directly.
func ParseQuery(text string) (Query, error) {
	lq, err := lang.Parse(text)
	if err != nil {
		return Query{}, err
	}
	return Compile(lq)
}

// Compile lowers a parsed query onto the engine's typed Query.
func Compile(lq *lang.Query) (Query, error) {
	var q Query
	if lq.Where != nil {
		clauses, err := compileExpr(lq.Where)
		if err != nil {
			return Query{}, err
		}
		for _, cl := range clauses {
			if len(cl) == 1 {
				q.Where = append(q.Where, cl[0])
			} else {
				q.Or = append(q.Or, cl)
			}
		}
	}
	if len(lq.Group) > 2 {
		return Query{}, fmt.Errorf("query: at most two group keys (got %d)", len(lq.Group))
	}
	if len(lq.Group) > 0 {
		q.GroupBys = make([]GroupBy, len(lq.Group))
	}
	for i, name := range lq.Group {
		g, err := parseGroupBy(name)
		if err != nil {
			return Query{}, err
		}
		q.GroupBys[i] = g
	}
	if lq.Value != "" {
		v, err := parseValue(lq.Value)
		if err != nil {
			return Query{}, err
		}
		q.Value = v
	}
	q.P50 = lq.P50
	if lq.Distinct != "" {
		c, err := parseColumn(lq.Distinct)
		if err != nil {
			return Query{}, err
		}
		q.Distinct = c
	}
	return q, nil
}

// compileExpr normalizes a boolean expression to CNF: the result is a
// list of clauses, each a disjunction of predicate leaves, all conjoined.
func compileExpr(e lang.Expr) ([][]Predicate, error) {
	switch x := e.(type) {
	case *lang.Pred:
		p, err := compilePred(x)
		if err != nil {
			return nil, err
		}
		return [][]Predicate{{p}}, nil
	case *lang.And:
		var out [][]Predicate
		for _, sub := range x.X {
			cs, err := compileExpr(sub)
			if err != nil {
				return nil, err
			}
			out = append(out, cs...)
			if len(out) > maxClauses {
				return nil, fmt.Errorf("query: expression too complex (over %d clauses after normalization)", maxClauses)
			}
		}
		return out, nil
	case *lang.Or:
		// Distribute OR over AND: the cross product of the operands'
		// clause lists. (a and b) or c → (a or c) and (b or c).
		acc := [][]Predicate{nil}
		for _, sub := range x.X {
			cs, err := compileExpr(sub)
			if err != nil {
				return nil, err
			}
			next := make([][]Predicate, 0, len(acc)*len(cs))
			for _, a := range acc {
				for _, c := range cs {
					merged := make([]Predicate, 0, len(a)+len(c))
					merged = append(append(merged, a...), c...)
					next = append(next, merged)
				}
			}
			if len(next) > maxClauses {
				return nil, fmt.Errorf("query: expression too complex (over %d clauses after normalization)", maxClauses)
			}
			acc = next
		}
		return acc, nil
	}
	return nil, fmt.Errorf("query: unsupported expression %T", e)
}

// compilePred resolves one parsed predicate against the engine's typed
// representation, converting literals under the column's value rules.
func compilePred(lp *lang.Pred) (Predicate, error) {
	col, err := parseColumn(lp.Col)
	if err != nil {
		return Predicate{}, err
	}
	if lp.Op == "in" {
		if lp.Set != nil {
			return compileSet(col, lp)
		}
		return compileRange(col, lp)
	}
	if col == ColTrust {
		v, err := trustValue(lp.Arg)
		if err != nil {
			return Predicate{}, fmt.Errorf("query: %s: %v", lp, err)
		}
		p := Predicate{Col: col, FLo: math.Inf(-1), FHi: math.Inf(1)}
		switch lp.Op {
		case "==":
			p.FLo, p.FHi = v, v
		case "<=":
			p.FHi = v
		case ">=":
			p.FLo = v
		case "<":
			p.FHi = math.Nextafter(v, math.Inf(-1))
		case ">":
			p.FLo = math.Nextafter(v, math.Inf(1))
		}
		return p, nil
	}
	v, err := intValue(col, lp.Arg)
	if err != nil {
		return Predicate{}, fmt.Errorf("query: %s: %v", lp, err)
	}
	p := Predicate{Col: col, Lo: math.MinInt64, Hi: math.MaxInt64}
	switch lp.Op {
	case "==":
		p.Lo, p.Hi = v, v
	case "<=":
		p.Hi = v
	case ">=":
		p.Lo = v
	case "<":
		if v == math.MinInt64 {
			p.Lo, p.Hi = 1, 0 // matches nothing
		} else {
			p.Hi = v - 1
		}
	case ">":
		if v == math.MaxInt64 {
			p.Lo, p.Hi = 1, 0
		} else {
			p.Lo = v + 1
		}
	}
	return normalizeInt(p), nil
}

func compileSet(col Column, lp *lang.Pred) (Predicate, error) {
	if !col.isU32() && col.joinBase() == ColNone {
		return Predicate{}, fmt.Errorf("query: %s: set membership needs an integer ID or joined attribute column, not %s", lp, col)
	}
	if len(lp.Set) == 0 {
		return Predicate{}, fmt.Errorf("query: %s: empty set", lp)
	}
	vs := make([]uint32, 0, len(lp.Set))
	for _, lv := range lp.Set {
		v, err := intValue(col, lv)
		if err != nil {
			return Predicate{}, fmt.Errorf("query: %s: %v", lp, err)
		}
		if v < 0 || v > math.MaxUint32 {
			return Predicate{}, fmt.Errorf("query: %s: set element %d out of range", lp, v)
		}
		vs = append(vs, uint32(v))
	}
	return In(col, vs...), nil
}

func compileRange(col Column, lp *lang.Pred) (Predicate, error) {
	if col == ColTrust {
		flo, err1 := trustValue(lp.Lo)
		fhi, err2 := trustValue(lp.Hi)
		if err1 != nil || err2 != nil {
			return Predicate{}, fmt.Errorf("query: %s: bad trust range bounds", lp)
		}
		if !lp.HiIncl {
			fhi = math.Nextafter(fhi, math.Inf(-1))
		}
		return Predicate{Col: col, FLo: flo, FHi: fhi}, nil
	}
	lo, err := intValue(col, lp.Lo)
	if err != nil {
		return Predicate{}, fmt.Errorf("query: %s: %v", lp, err)
	}
	hi, err := intValue(col, lp.Hi)
	if err != nil {
		return Predicate{}, fmt.Errorf("query: %s: %v", lp, err)
	}
	if !lp.HiIncl {
		if hi == math.MinInt64 {
			return Predicate{Col: col, Lo: 1, Hi: 0}, nil // matches nothing
		}
		hi--
	}
	return normalizeInt(Predicate{Col: col, Lo: lo, Hi: hi}), nil
}

func trustValue(v lang.Value) (float64, error) {
	switch v.Kind {
	case lang.VFloat:
		return v.Float, nil
	case lang.VInt:
		return float64(v.Int), nil
	}
	return 0, fmt.Errorf("bad trust value %q", v.String())
}

// intValue converts one literal under the column's value rules: uint32 ID
// columns take non-negative 32-bit integers, time columns additionally
// accept the week:N / day:N bucket sugar, joined attribute columns take
// plain integers with per-column word sugar (engagement class names,
// true/false for the sampled flag), and batch.week takes the plain signed
// week index (no week:N — that sugar names instants, not buckets).
func intValue(col Column, v lang.Value) (int64, error) {
	if col.isTime() {
		switch v.Kind {
		case lang.VInt:
			return v.Int, nil
		case lang.VWeek:
			if v.Int > math.MaxInt32/7 || v.Int < math.MinInt32/7 {
				// The bound keeps w*7 inside the int32 day index — beyond
				// it the multiply would wrap to a silently wrong instant.
				return 0, fmt.Errorf("bad week index %d", v.Int)
			}
			return model.DayUnix(int32(v.Int) * 7), nil
		case lang.VDay:
			if v.Int > math.MaxInt32 || v.Int < math.MinInt32 {
				return 0, fmt.Errorf("bad day index %d", v.Int)
			}
			return model.DayUnix(int32(v.Int)), nil
		}
		return 0, fmt.Errorf("bad %s value %q (unix seconds, week:N or day:N)", col, v.String())
	}
	if col.isU32() {
		if v.Kind != lang.VInt || v.Int < 0 || v.Int > math.MaxUint32 {
			return 0, fmt.Errorf("bad %s value %q (want a uint32)", col, v.String())
		}
		return v.Int, nil
	}
	switch col {
	case ColDuration, ColWorkerSource, ColWorkerCountry, ColBatchItems, ColBatchRedundancy, ColBatchWeek:
		if v.Kind != lang.VInt {
			return 0, fmt.Errorf("bad %s value %q (want an integer)", col, v.String())
		}
		return v.Int, nil
	case ColWorkerClass:
		if v.Kind == lang.VInt {
			return v.Int, nil
		}
		if v.Kind == lang.VWord {
			for c := 0; c < model.NumEngagementClasses; c++ {
				if v.Word == model.EngagementClass(c).String() {
					return int64(c), nil
				}
			}
		}
		return 0, fmt.Errorf("bad %s value %q (an integer or one of the class names)", col, v.String())
	case ColBatchSampled:
		if v.Kind == lang.VInt {
			return v.Int, nil
		}
		if v.Kind == lang.VWord {
			switch v.Word {
			case "true":
				return 1, nil
			case "false":
				return 0, nil
			}
		}
		return 0, fmt.Errorf("bad %s value %q (0, 1, true or false)", col, v.String())
	}
	return 0, fmt.Errorf("bad %s value %q", col, v.String())
}
