package htmlfeat

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Scanner holds the reusable buffers of the page kernels: the token and
// attribute arenas Tokenize fills, and the shingle state Scan runs on —
// the stream item being assembled, the k gram hashes in flight and an
// open-addressing dedup table. A zero value is ready to use; reusing one
// across pages amortizes its allocations to zero. Not safe for concurrent
// use.
type Scanner struct {
	toks  []Token
	attrs []Attr

	item []byte // the stream item being assembled: a lower-cased word or a <tag> marker
	// lanes[s%k] is the running FNV-1a of the gram that starts at stream
	// item s; the slice is padded to a multiple of four so feed can carry
	// four lanes at a time in registers.
	lanes []uint64
	k     int
	next  int // lane the next item's gram starts in; also the oldest gram in flight
	items int // stream items fed so far

	tbl []uint64 // dedup table backing; set is the part sized for this document
	set []uint64
	// hasZero tracks whether hash value 0 was inserted; the dedup table
	// uses 0 as its empty sentinel.
	hasZero bool
}

// Scan walks a tokenized document once and returns its design features
// and, appended to dst, its deduped (unsorted) k-shingle hashes. Shingles
// are the k-grams of the combined stream of "<name>" markers for start
// and self-closing tags and the lower-cased whitespace-separated words of
// text tokens; each is the FNV-1a of the gram joined with single spaces —
// bit-identical to hashing strings.Join(stream[i:i+k], " ") — and a
// stream shorter than k is one shingle. k <= 0 means 4.
//
// Of a Comment token Scan reads only that it is there (it ends the
// "text alone in its tag" state of the #examples rule): two documents whose
// token streams differ in comment bodies alone scan identically.
func (sc *Scanner) Scan(dst []uint64, toks []Token, k int) (Features, []uint64) {
	if k <= 0 {
		k = 4
	}
	sc.begin(toks, k)
	var f Features
	// Track whether the current text node is the entire content of the
	// innermost element, for the #examples rule ("wrapped in a tag of its
	// own"): <b>Example</b> counts, prose mentioning examples does not.
	var prevStart bool
	var prevStartName string
	for i := range toks {
		t := &toks[i]
		switch t.Type {
		case StartTag, SelfClosingTag:
			switch t.Name {
			case "img":
				f.Images++
			case "textarea":
				f.TextBoxes++
				f.Fields++
			case "select", "button":
				f.Fields++
			case "input":
				f.Fields++
				typ, ok := t.Attr("type")
				typ = strings.ToLower(typ)
				switch {
				case !ok, typ == "text", typ == "search", typ == "email", typ == "url":
					f.TextBoxes++
				case typ == "radio":
					f.Radios++
				case typ == "checkbox":
					f.Checkboxes++
				}
			}
			if !f.HasInstructions {
				if cls, ok := t.Attr("class"); ok && containsFold(cls, "instruction") {
					f.HasInstructions = true
				} else if id, ok := t.Attr("id"); ok && containsFold(id, "instruction") {
					f.HasInstructions = true
				}
			}
			prevStart = t.Type == StartTag
			prevStartName = t.Name
			sc.item = append(append(append(sc.item[:0], '<'), t.Name...), '>')
			dst = sc.feed(dst)
		case Text:
			var words int
			words, dst = sc.text(dst, t.Text)
			f.Words += words
			if prevStart && isOwnTagExample(toks, i, prevStartName) {
				f.Examples++
			}
			prevStart = false
		case EndTag, Comment:
			prevStart = false
		}
	}
	if 0 < sc.items && sc.items < k {
		dst = sc.insert(dst, sc.lanes[0])
	}
	return f, dst
}

// begin resets the shingle state for one document: k lanes, no items, and
// a cleared dedup table of at least twice the most stream items toks can
// yield (a word and its separator take two bytes, a tag one token).
func (sc *Scanner) begin(toks []Token, k int) {
	if padded := (k + 3) &^ 3; cap(sc.lanes) < padded {
		sc.lanes = make([]uint64, padded)
	} else {
		sc.lanes = sc.lanes[:padded]
	}
	sc.k, sc.next, sc.items = k, 0, 0

	bound := 0
	for i := range toks {
		bound += (len(toks[i].Text)+1)/2 + 1
	}
	want := 16
	for want < 2*bound {
		want <<= 1
	}
	if cap(sc.tbl) < want {
		sc.tbl = make([]uint64, want)
	}
	sc.set = sc.tbl[:want]
	clear(sc.set)
	sc.hasZero = false
}

// text feeds the lower-cased whitespace-separated words of s as stream
// items and returns how many there were: the items are
// strings.Fields(strings.ToLower(s)) and the count is its length, from
// one scan that decodes no ASCII byte. Lowering maps no rune into or out
// of the space class, so it cannot move a word boundary, and invalid
// UTF-8 decays to RuneError exactly as strings.ToLower's rune mapping
// does.
func (sc *Scanner) text(dst []uint64, s string) (int, []uint64) {
	words := 0
	word := sc.item[:0]
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			i++
			if lc := asciiLower[c]; lc != ' ' {
				word = append(word, lc)
				continue
			}
		} else {
			r, size := utf8.DecodeRuneInString(s[i:])
			i += size
			if !unicode.IsSpace(r) {
				word = utf8.AppendRune(word, unicode.ToLower(r))
				continue
			}
		}
		// White space: the word before it, if there is one, is complete.
		if len(word) > 0 {
			sc.item = word
			dst = sc.feed(dst)
			words++
			word = word[:0]
		}
	}
	sc.item = word
	if len(word) > 0 {
		dst = sc.feed(dst)
		words++
	}
	return words, dst
}

// asciiLower maps an ASCII byte to its lower-case form, and each of the
// six ASCII bytes unicode.IsSpace holds to ' ' — which no other byte
// lowers to.
var asciiLower = func() (t [utf8.RuneSelf]byte) {
	for c := range t {
		switch {
		case c == ' ' || '\t' <= c && c <= '\r':
			t[c] = ' '
		case 'A' <= c && c <= 'Z':
			t[c] = byte(c) + 'a' - 'A'
		default:
			t[c] = byte(c)
		}
	}
	return t
}()

// feed takes sc.item as the next stream item. Every gram in flight is
// extended by a separator and the item, the gram that starts here takes
// over the lane of the one that completed on the previous item, and the
// gram this item completes is inserted into dst. Each byte is read once
// per four lanes and the lanes are independent multiply chains, where
// hashing every gram from its first byte reads each item k times down one
// serial chain; a lane sees exactly the bytes of its gram, in order, so
// the values are those of the joined string.
func (sc *Scanner) feed(dst []uint64) []uint64 {
	lanes := sc.lanes
	for j := range lanes {
		lanes[j] = (lanes[j] ^ ' ') * fnvPrime
	}
	lanes[sc.next] = fnvOffset
	for g := 0; g+4 <= len(lanes); g += 4 {
		l := lanes[g : g+4 : g+4]
		a, b, c, d := l[0], l[1], l[2], l[3]
		for _, x := range sc.item {
			a = (a ^ uint64(x)) * fnvPrime
			b = (b ^ uint64(x)) * fnvPrime
			c = (c ^ uint64(x)) * fnvPrime
			d = (d ^ uint64(x)) * fnvPrime
		}
		l[0], l[1], l[2], l[3] = a, b, c, d
	}
	if sc.next++; sc.next == sc.k {
		sc.next = 0
	}
	if sc.items++; sc.items >= sc.k {
		dst = sc.insert(dst, lanes[sc.next])
	}
	return dst
}

// insert appends v to dst unless it is already in the dedup table.
func (sc *Scanner) insert(dst []uint64, v uint64) []uint64 {
	if v == 0 {
		if sc.hasZero {
			return dst
		}
		sc.hasZero = true
		return append(dst, 0)
	}
	mask := uint64(len(sc.set) - 1)
	// Fibonacci scatter: table indices of sequential hashes spread evenly.
	i := (v * 0x9E3779B97F4A7C15) >> 32 & mask
	for {
		switch sc.set[i] {
		case 0:
			sc.set[i] = v
			return append(dst, v)
		case v:
			return dst
		}
		i = (i + 1) & mask
	}
}
