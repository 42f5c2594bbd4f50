package lang

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Token kinds. Atoms are maximal runs of [A-Za-z0-9_.:+-], which lets
// dotted join columns (worker.class), week:N sugar and signed numbers
// lex as single tokens; comparison characters never join an atom, so
// "trust>=0.8" splits correctly without spaces.
type tokKind uint8

const (
	tEOF tokKind = iota
	tAtom
	tOp // == <= >= < >  ("=" is normalized to "==")
	tPipe
	tComma
	tLParen
	tRParen
	tLBrace
	tRBrace
	tLBracket
	tRBracket
)

type token struct {
	kind tokKind
	text string
	off  int // byte offset, for error messages
}

func (t token) describe() string {
	if t.kind == tEOF {
		return "end of query"
	}
	return fmt.Sprintf("%q", t.text)
}

func isAtomChar(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' ||
		c >= '0' && c <= '9' || c == '_' || c == '.' || c == ':' || c == '+' || c == '-'
}

func lex(s string) ([]token, error) {
	var toks []token
	i := 0
	for i < len(s) {
		c := s[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '|':
			toks = append(toks, token{tPipe, "|", i})
			i++
		case c == ',':
			toks = append(toks, token{tComma, ",", i})
			i++
		case c == '(':
			toks = append(toks, token{tLParen, "(", i})
			i++
		case c == ')':
			toks = append(toks, token{tRParen, ")", i})
			i++
		case c == '{':
			toks = append(toks, token{tLBrace, "{", i})
			i++
		case c == '}':
			toks = append(toks, token{tRBrace, "}", i})
			i++
		case c == '[':
			toks = append(toks, token{tLBracket, "[", i})
			i++
		case c == ']':
			toks = append(toks, token{tRBracket, "]", i})
			i++
		case c == '=':
			if i+1 < len(s) && s[i+1] == '=' {
				toks = append(toks, token{tOp, "==", i})
				i += 2
			} else {
				toks = append(toks, token{tOp, "==", i}) // "=" is sugar for "=="
				i++
			}
		case c == '<':
			if i+1 < len(s) && s[i+1] == '=' {
				toks = append(toks, token{tOp, "<=", i})
				i += 2
			} else {
				toks = append(toks, token{tOp, "<", i})
				i++
			}
		case c == '>':
			if i+1 < len(s) && s[i+1] == '=' {
				toks = append(toks, token{tOp, ">=", i})
				i += 2
			} else {
				toks = append(toks, token{tOp, ">", i})
				i++
			}
		case isAtomChar(c):
			j := i
			for j < len(s) && isAtomChar(s[j]) {
				j++
			}
			toks = append(toks, token{tAtom, s[i:j], i})
			i = j
		default:
			return nil, fmt.Errorf("unexpected character %q at offset %d", c, i)
		}
	}
	return toks, nil
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) peek() token {
	if p.pos < len(p.toks) {
		return p.toks[p.pos]
	}
	return token{kind: tEOF}
}

func (p *parser) next() token {
	t := p.peek()
	if t.kind != tEOF {
		p.pos++
	}
	return t
}

// peekWord reports whether the next token is the given bare atom.
func (p *parser) peekWord(w string) bool {
	t := p.peek()
	return t.kind == tAtom && t.text == w
}

// classifyValue turns one atom into a literal Value. Integers win over
// floats; NaN and Inf never classify as floats (they have no canonical
// re-parseable form), falling through to words the compiler rejects.
func classifyValue(t token) (Value, error) {
	s := t.text
	for _, pfx := range []struct {
		tag  string
		kind ValueKind
	}{{"week:", VWeek}, {"day:", VDay}} {
		if strings.HasPrefix(s, pfx.tag) {
			n, err := strconv.ParseInt(s[len(pfx.tag):], 10, 64)
			if err != nil {
				return Value{}, fmt.Errorf("bad %s value %q", pfx.tag[:len(pfx.tag)-1], s)
			}
			return Value{Kind: pfx.kind, Int: n}, nil
		}
	}
	if n, err := strconv.ParseInt(s, 10, 64); err == nil {
		return Value{Kind: VInt, Int: n}, nil
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil && !math.IsNaN(f) && !math.IsInf(f, 0) {
		return Value{Kind: VFloat, Float: f}, nil
	}
	return Value{Kind: VWord, Word: s}, nil
}

func (p *parser) parseValue() (Value, error) {
	t := p.next()
	if t.kind != tAtom {
		return Value{}, fmt.Errorf("expected a value, got %s", t.describe())
	}
	return classifyValue(t)
}

// isKeyword reports words that can never be column names.
func isKeyword(w string) bool { return w == "and" || w == "or" || w == "in" }

func (p *parser) parsePred() (Expr, error) {
	t := p.next()
	if t.kind != tAtom {
		return nil, fmt.Errorf("expected a column name, got %s", t.describe())
	}
	if isKeyword(t.text) {
		return nil, fmt.Errorf("keyword %q cannot be a column name", t.text)
	}
	pred := &Pred{Col: t.text}
	op := p.next()
	switch {
	case op.kind == tOp:
		pred.Op = op.text
		v, err := p.parseValue()
		if err != nil {
			return nil, err
		}
		pred.Arg = v
		return pred, nil
	case op.kind == tAtom && op.text == "in":
		pred.Op = "in"
		return p.parseInRHS(pred)
	default:
		return nil, fmt.Errorf("expected an operator after column %q, got %s", pred.Col, op.describe())
	}
}

func (p *parser) parseInRHS(pred *Pred) (Expr, error) {
	t := p.next()
	switch t.kind {
	case tLBrace:
		for {
			v, err := p.parseValue()
			if err != nil {
				return nil, err
			}
			pred.Set = append(pred.Set, v)
			sep := p.next()
			if sep.kind == tRBrace {
				return pred, nil
			}
			if sep.kind != tComma {
				return nil, fmt.Errorf("expected , or } in set, got %s", sep.describe())
			}
		}
	case tLBracket:
		lo, err := p.parseValue()
		if err != nil {
			return nil, err
		}
		if sep := p.next(); sep.kind != tComma {
			return nil, fmt.Errorf("expected , in range, got %s", sep.describe())
		}
		hi, err := p.parseValue()
		if err != nil {
			return nil, err
		}
		pred.Lo, pred.Hi = lo, hi
		switch end := p.next(); end.kind {
		case tRBracket:
			pred.HiIncl = true
		case tRParen:
			pred.HiIncl = false
		default:
			return nil, fmt.Errorf("expected ) or ] to close range, got %s", end.describe())
		}
		return pred, nil
	case tRBrace:
		return nil, fmt.Errorf("empty set for column %q", pred.Col)
	default:
		return nil, fmt.Errorf("'in' wants {v, ...} or [lo, hi), got %s", t.describe())
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.peek().kind == tLParen {
		p.next()
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if t := p.next(); t.kind != tRParen {
			return nil, fmt.Errorf("expected ) to close group, got %s", t.describe())
		}
		return e, nil
	}
	return p.parsePred()
}

func (p *parser) parseAnd() (Expr, error) {
	x, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	xs := []Expr{x}
	for p.peekWord("and") {
		p.next()
		y, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		xs = append(xs, y)
	}
	return newAnd(xs), nil
}

func (p *parser) parseOr() (Expr, error) {
	x, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	xs := []Expr{x}
	for p.peekWord("or") {
		p.next()
		y, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		xs = append(xs, y)
	}
	return newOr(xs), nil
}

// Parse parses a full pipeline query: stages separated by "|", each
// starting with a stage keyword (where, group, value, p50, distinct,
// sort, top). Stages may appear in any order but at most once each.
func Parse(s string) (*Query, error) {
	toks, err := lex(s)
	if err != nil {
		return nil, err
	}
	if len(toks) == 0 {
		return nil, fmt.Errorf("empty query")
	}
	p := &parser{toks: toks}
	q := &Query{}
	seen := map[string]bool{}
	for {
		if err := p.parseStage(q, seen); err != nil {
			return nil, err
		}
		t := p.next()
		if t.kind == tEOF {
			return q, nil
		}
		if t.kind != tPipe {
			return nil, fmt.Errorf("expected | between stages, got %s", t.describe())
		}
	}
}

func (p *parser) parseStage(q *Query, seen map[string]bool) error {
	t := p.next()
	if t.kind != tAtom {
		return fmt.Errorf("expected a stage keyword, got %s", t.describe())
	}
	name := t.text
	switch name {
	case "where", "group", "value", "p50", "distinct", "sort", "top":
		if seen[name] {
			return fmt.Errorf("duplicate %s stage", name)
		}
		seen[name] = true
	default:
		return fmt.Errorf("unknown stage %q (want where, group, value, p50, distinct, sort or top)", name)
	}
	switch name {
	case "where":
		e, err := p.parseOr()
		if err != nil {
			return err
		}
		q.Where = e
	case "group":
		for {
			k := p.next()
			if k.kind != tAtom {
				return fmt.Errorf("expected a group key, got %s", k.describe())
			}
			q.Group = append(q.Group, k.text)
			if p.peek().kind != tComma {
				break
			}
			p.next()
		}
	case "value":
		v := p.next()
		if v.kind != tAtom {
			return fmt.Errorf("expected a value name, got %s", v.describe())
		}
		q.Value = v.text
	case "p50":
		q.P50 = true
	case "distinct":
		v := p.next()
		if v.kind != tAtom {
			return fmt.Errorf("expected a distinct column, got %s", v.describe())
		}
		q.Distinct = v.text
	case "sort":
		v := p.next()
		if v.kind != tAtom || (v.text != "key" && v.text != "count") {
			return fmt.Errorf("sort wants key or count, got %s", v.describe())
		}
		q.Sort = v.text
	case "top":
		v := p.next()
		if v.kind != tAtom {
			return fmt.Errorf("top wants a non-negative integer, got %s", v.describe())
		}
		n, err := strconv.ParseInt(v.text, 10, 32)
		if err != nil || n < 0 {
			return fmt.Errorf("top wants a non-negative integer, got %q", v.text)
		}
		q.Top, q.HasTop = int(n), true
	}
	return nil
}
