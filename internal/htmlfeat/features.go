package htmlfeat

import (
	"strings"
	"unicode"
)

// Features are the design parameters Section 4 extracts from a batch's
// sample HTML.
type Features struct {
	// Words is the number of whitespace-separated words of visible text
	// (#words in Sections 4.3).
	Words int
	// TextBoxes counts free-text inputs: <textarea> and <input type=text>
	// (#text-box, Section 4.4).
	TextBoxes int
	// Images counts <img> tags (#images, Section 4.7).
	Images int
	// Examples counts occurrences of the word "example" wrapped in a tag
	// of its own, the paper's proxy for prominently displayed examples
	// (#examples, Section 4.6).
	Examples int
	// Fields counts all input mechanisms (input/select/textarea/button);
	// the paper found no significant correlation for this feature.
	Fields int
	// Radios and Checkboxes break out multiple-choice inputs.
	Radios     int
	Checkboxes int
	// HasInstructions reports whether an element carries an
	// instruction-ish class or id.
	HasInstructions bool
}

// Extract tokenizes src and computes its design features.
func Extract(src string) Features {
	var sc Scanner
	f, _ := sc.Scan(nil, sc.Tokenize(src), 0)
	return f
}

// isOwnTagExample reports whether toks[i] is a text node that (a) sits
// alone inside its enclosing element, and (b) is essentially the word
// "example" (allowing trailing punctuation or a number, e.g. "Example 2:").
func isOwnTagExample(toks []Token, i int, openName string) bool {
	if i+1 >= len(toks) {
		return false
	}
	next := toks[i+1]
	if next.Type != EndTag || next.Name != openName {
		return false
	}
	return isExampleText(toks[i].Text)
}

// isExampleText reports whether s, lower-cased and split at white space,
// is the word "example" or "examples", alone or followed by one field of
// digits, punctuation around either aside.
func isExampleText(s string) bool {
	head, rest := cutField(s)
	head = strings.TrimFunc(head, unicode.IsPunct)
	if !lowerEqual(head, "example") && !lowerEqual(head, "examples") {
		return false
	}
	// Allow "Example 2" / "Example #1:".
	num, rest := cutField(rest)
	if extra, _ := cutField(rest); extra != "" {
		return false
	}
	for _, r := range strings.TrimFunc(num, unicode.IsPunct) {
		if !unicode.IsDigit(r) {
			return false
		}
	}
	return true
}

// cutField returns the first whitespace-separated field of s ("" when s
// holds none) and what follows it.
func cutField(s string) (field, rest string) {
	s = strings.TrimLeftFunc(s, unicode.IsSpace)
	end := strings.IndexFunc(s, unicode.IsSpace)
	if end < 0 {
		end = len(s)
	}
	return s[:end], s[end:]
}

// lowerEqual reports whether strings.ToLower(s) == want, for a lower-case
// ASCII want, without building the lowered string.
func lowerEqual(s, want string) bool {
	for _, r := range s {
		if want == "" || unicode.ToLower(r) != rune(want[0]) {
			return false
		}
		want = want[1:]
	}
	return want == ""
}

func containsFold(hay, needle string) bool {
	return strings.Contains(strings.ToLower(hay), needle)
}

// VisibleText concatenates the text nodes of src with single-space
// separators; clustering shingles are built from it.
func VisibleText(src string) string {
	var b strings.Builder
	for _, t := range Tokenize(src) {
		if t.Type == Text {
			trimmed := strings.TrimSpace(t.Text)
			if trimmed == "" {
				continue
			}
			if b.Len() > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(trimmed)
		}
	}
	return b.String()
}

// The feature walk itself is Scanner.Scan (scan.go), which shingles in the
// same pass; Jaccard similarity lives in shingle.go.
