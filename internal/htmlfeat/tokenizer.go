// Package htmlfeat extracts task-design features from task-interface HTML:
// the word count, text boxes, images, prominently tagged examples and input
// fields studied in Section 4, plus shingle sets for the batch clustering of
// Section 3.3. The standard library has no HTML parser, so a small
// fault-tolerant tokenizer is implemented here; it handles the subset of
// HTML that task interfaces use (tags, attributes with all quoting styles,
// comments, character entities).
package htmlfeat

import (
	"strings"
)

// TokenType distinguishes the kinds of tokens the tokenizer emits.
type TokenType uint8

// Token kinds.
const (
	StartTag TokenType = iota
	EndTag
	SelfClosingTag
	Text
	Comment
)

// Attr is one attribute on a tag.
type Attr struct {
	Key, Val string
}

// Token is one lexical element of an HTML document.
type Token struct {
	Type  TokenType
	Name  string // lower-cased tag name for tag tokens
	Attrs []Attr
	Text  string // decoded text for Text tokens, raw body for comments
	// Pos is the offset in the source of the token's first byte: the '<'
	// of a tag or comment, the first byte of a text node. A comment's
	// body is src[Pos+4 : Pos+4+len(Text)].
	Pos int
}

// Attr returns the value of the named attribute (lower-case key) and
// whether it was present.
func (t Token) Attr(key string) (string, bool) {
	for _, a := range t.Attrs {
		if a.Key == key {
			return a.Val, true
		}
	}
	return "", false
}

// Tokenize splits an HTML document into tokens. Malformed markup is
// handled leniently: an unterminated tag is consumed to end of input, and
// stray '<' characters are treated as text.
func Tokenize(src string) []Token {
	var sc Scanner
	return sc.Tokenize(src)
}

// Tokenize is the package-level Tokenize into the scanner's reusable token
// and attribute buffers: the tokens are valid until the next call. With
// warm buffers it allocates only where the page forces a copy — a tag or
// attribute name with an upper-case letter, text or a value holding '&'.
func (sc *Scanner) Tokenize(src string) []Token {
	out := sc.toks[:0]
	sc.attrs = sc.attrs[:0]
	i := 0
	n := len(src)
	for i < n {
		lt := strings.IndexByte(src[i:], '<')
		if lt < 0 {
			out = appendText(out, src[i:], i)
			break
		}
		if lt > 0 {
			out = appendText(out, src[i:i+lt], i)
			i += lt
		}
		// src[i] == '<'
		if strings.HasPrefix(src[i:], "<!--") {
			end := strings.Index(src[i+4:], "-->")
			if end < 0 {
				out = append(out, Token{Type: Comment, Text: src[i+4:], Pos: i})
				break
			}
			out = append(out, Token{Type: Comment, Text: src[i+4 : i+4+end], Pos: i})
			i += 4 + end + 3
			continue
		}
		if strings.HasPrefix(src[i:], "<!") || strings.HasPrefix(src[i:], "<?") {
			// Doctype or processing instruction: skip to '>'.
			end := strings.IndexByte(src[i:], '>')
			if end < 0 {
				break
			}
			i += end + 1
			continue
		}
		if i+1 < n && !isTagStart(src[i+1]) {
			// A lone '<' that does not begin a tag: literal text.
			out = appendText(out, "<", i)
			i++
			continue
		}
		firstAttr := len(sc.attrs)
		tok, next, ok := sc.lexTag(src, i)
		if !ok {
			// Invalid tag opener (e.g. "</" followed by a non-name byte):
			// treat the '<' as literal text and keep scanning, rather than
			// swallowing the rest of the document.
			out = appendText(out, "<", i)
			i++
			continue
		}
		if last := len(sc.attrs); last > firstAttr {
			// Capped, so appending to one token's Attrs cannot reach the next's.
			tok.Attrs = sc.attrs[firstAttr:last:last]
		}
		out = append(out, tok)
		i = next
		// Raw-text elements swallow everything until their close tag.
		if tok.Type == StartTag && (tok.Name == "script" || tok.Name == "style") {
			closer := "</script"
			if tok.Name == "style" {
				closer = "</style"
			}
			end := indexASCIIFold(src[i:], closer)
			if end < 0 {
				break
			}
			// The raw body is not text content; skip it.
			i += end
		}
	}
	sc.toks = out
	return out
}

func isTagStart(c byte) bool {
	return c == '/' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func appendText(out []Token, s string, pos int) []Token {
	if s == "" {
		return out
	}
	return append(out, Token{Type: Text, Text: DecodeEntities(s), Pos: pos})
}

// lexTag scans one tag starting at src[i] == '<'. It returns the token, the
// index after the tag, and whether a complete tag was found. Attributes go
// onto sc.attrs; the caller slices the token's share off its end.
func (sc *Scanner) lexTag(src string, i int) (Token, int, bool) {
	n := len(src)
	j := i + 1
	closing := false
	if j < n && src[j] == '/' {
		closing = true
		j++
	}
	start := j
	for j < n && isNameByte(src[j]) {
		j++
	}
	if j == start {
		return Token{}, i, false
	}
	tok := Token{Name: strings.ToLower(src[start:j]), Pos: i}
	if closing {
		tok.Type = EndTag
		// Skip to '>'.
		for j < n && src[j] != '>' {
			j++
		}
		if j >= n {
			return tok, n, true
		}
		return tok, j + 1, true
	}
	tok.Type = StartTag
	// Attributes.
	for {
		for j < n && isSpace(src[j]) {
			j++
		}
		if j >= n {
			return tok, n, true
		}
		if src[j] == '>' {
			return tok, j + 1, true
		}
		if src[j] == '/' {
			// Self-closing.
			for j < n && src[j] != '>' {
				j++
			}
			tok.Type = SelfClosingTag
			if j >= n {
				return tok, n, true
			}
			return tok, j + 1, true
		}
		// Attribute name.
		ks := j
		for j < n && src[j] != '=' && src[j] != '>' && src[j] != '/' && !isSpace(src[j]) {
			j++
		}
		key := strings.ToLower(src[ks:j])
		for j < n && isSpace(src[j]) {
			j++
		}
		if j < n && src[j] == '=' {
			j++
			for j < n && isSpace(src[j]) {
				j++
			}
			var val string
			if j < n && (src[j] == '"' || src[j] == '\'') {
				q := src[j]
				j++
				vs := j
				for j < n && src[j] != q {
					j++
				}
				val = src[vs:j]
				if j < n {
					j++
				}
			} else {
				vs := j
				for j < n && !isSpace(src[j]) && src[j] != '>' {
					j++
				}
				val = src[vs:j]
			}
			sc.attrs = append(sc.attrs, Attr{Key: key, Val: DecodeEntities(val)})
		} else if key != "" {
			sc.attrs = append(sc.attrs, Attr{Key: key})
		}
	}
}

func isNameByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '-' || c == ':'
}

func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f'
}

// indexASCIIFold returns the byte index in hay of the first occurrence of
// needle with ASCII letters compared case-insensitively, or -1. The needle
// is lower-case ASCII; hay is compared byte by byte, never re-encoded, so
// the index is one into hay itself whatever else it holds.
func indexASCIIFold(hay, needle string) int {
	for i := 0; i+len(needle) <= len(hay); i++ {
		j := 0
		for j < len(needle) {
			c := hay[i+j]
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			if c != needle[j] {
				break
			}
			j++
		}
		if j == len(needle) {
			return i
		}
	}
	return -1
}

// entityTable covers the character references that appear in task
// interfaces; unknown entities pass through verbatim.
var entityTable = map[string]string{
	"amp": "&", "lt": "<", "gt": ">", "quot": `"`, "apos": "'",
	"nbsp": " ", "mdash": "—", "ndash": "–", "hellip": "…",
	"ldquo": "“", "rdquo": "”", "lsquo": "‘", "rsquo": "’", "copy": "©",
}

// DecodeEntities replaces the common named character references and decimal
// numeric references in s.
func DecodeEntities(s string) string {
	amp := strings.IndexByte(s, '&')
	if amp < 0 {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	for {
		b.WriteString(s[:amp])
		s = s[amp:]
		semi := strings.IndexByte(s, ';')
		if semi < 0 || semi > 10 {
			b.WriteByte('&')
			s = s[1:]
		} else {
			name := s[1:semi]
			if rep, ok := entityTable[name]; ok {
				b.WriteString(rep)
				s = s[semi+1:]
			} else if strings.HasPrefix(name, "#") {
				if r := decodeNumericRef(name[1:]); r != "" {
					b.WriteString(r)
					s = s[semi+1:]
				} else {
					b.WriteByte('&')
					s = s[1:]
				}
			} else {
				b.WriteByte('&')
				s = s[1:]
			}
		}
		amp = strings.IndexByte(s, '&')
		if amp < 0 {
			b.WriteString(s)
			return b.String()
		}
	}
}

func decodeNumericRef(digits string) string {
	base := 10
	if strings.HasPrefix(digits, "x") || strings.HasPrefix(digits, "X") {
		base = 16
		digits = digits[1:]
	}
	if digits == "" {
		return ""
	}
	v := 0
	for i := 0; i < len(digits); i++ {
		c := digits[i]
		var d int
		switch {
		case c >= '0' && c <= '9':
			d = int(c - '0')
		case base == 16 && c >= 'a' && c <= 'f':
			d = int(c-'a') + 10
		case base == 16 && c >= 'A' && c <= 'F':
			d = int(c-'A') + 10
		default:
			return ""
		}
		v = v*base + d
		if v > 0x10FFFF {
			return ""
		}
	}
	return string(rune(v))
}
