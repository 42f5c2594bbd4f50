package htmlfeat

import (
	"slices"
	"strings"
	"testing"
	"unicode"

	"crowdscope/internal/htmlgen"
	"crowdscope/internal/model"
)

// featuresReference is the feature walk as it stood before it was fused
// with shingling: its own pass over the tokens, a second pass over every
// text node to count words, and strings.Fields(strings.ToLower(s)) for the
// #examples rule. Scan must reproduce it field for field.
func featuresReference(toks []Token) Features {
	var f Features
	var prevStart bool
	var prevStartName string
	for i, t := range toks {
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
				if cls, ok := t.Attr("class"); ok && strings.Contains(strings.ToLower(cls), "instruction") {
					f.HasInstructions = true
				} else if id, ok := t.Attr("id"); ok && strings.Contains(strings.ToLower(id), "instruction") {
					f.HasInstructions = true
				}
			}
			prevStart = t.Type == StartTag
			prevStartName = t.Name
		case Text:
			inWord := false
			for _, r := range t.Text {
				if unicode.IsSpace(r) {
					inWord = false
				} else if !inWord {
					inWord = true
					f.Words++
				}
			}
			if prevStart && i+1 < len(toks) && toks[i+1].Type == EndTag && toks[i+1].Name == prevStartName &&
				exampleTextReference(t.Text) {
				f.Examples++
			}
			prevStart = false
		case EndTag, Comment:
			prevStart = false
		}
	}
	return f
}

func exampleTextReference(s string) bool {
	fields := strings.Fields(strings.ToLower(s))
	if len(fields) == 0 || len(fields) > 2 {
		return false
	}
	head := strings.TrimFunc(fields[0], unicode.IsPunct)
	if head != "example" && head != "examples" {
		return false
	}
	if len(fields) == 2 {
		for _, r := range strings.TrimFunc(fields[1], unicode.IsPunct) {
			if !unicode.IsDigit(r) {
				return false
			}
		}
	}
	return true
}

// checkPageScan holds one page to both references at several widths, on a
// scanner the caller keeps across pages so stale scratch state would show.
func checkPageScan(t *testing.T, sc *Scanner, page string) {
	t.Helper()
	wantFeats := featuresReference(Tokenize(page))
	for _, k := range []int{1, 3, 4, 7} {
		feats, got := sc.Scan(nil, sc.Tokenize(page), k)
		if feats != wantFeats {
			t.Fatalf("k=%d: features %+v, reference %+v\npage %q", k, feats, wantFeats, page)
		}
		want := shinglesMapReference(page, k)
		if len(got) != len(want) {
			t.Fatalf("k=%d: %d shingles, reference %d\npage %q", k, len(got), len(want), page)
		}
		for _, v := range got {
			if _, ok := want[v]; !ok {
				t.Fatalf("k=%d: shingle %#x not in the reference set\npage %q", k, v, page)
			}
		}
	}
}

// scanCorpus is the seed corpus of FuzzPageScan: every page the tokenizer,
// feature and shingle tests use, a rendered task page, and the inputs the
// fused kernels could plausibly get wrong — length-changing lower-casing,
// non-ASCII separators, invalid UTF-8, entities, streams shorter than k.
func scanCorpus() []string {
	corpus := append([]string(nil), shingleGoldenDocs...)
	corpus = append(corpus,
		`<p class="x">hello <b>world</b></p>`,
		`<input type="text" name='q1' checked value=plain>`,
		`<img src="a.jpg"/><br />`,
		"<!DOCTYPE html><!-- note -->text",
		`<script>var x = "<b>not a tag</b>";</script><p>after</p>`,
		"a < b <i>c", "<div class=", "<", "</", "<!-- unterminated",
		`<DIV CLASS="Big">x</DIV>`,
		scriptLeakPage, `<SCRIPT>leak leak</ScRiPt><p>after</p>`, `<p>before</p><style>p{}`,
		`<b>Example</b><h3>EXAMPLE 2</h3><strong>Example:</strong><b>Examples</b><b>Example #1:</b>`,
		`<b>Example two</b><b>Example 2 3</b><b>(example)</b><b> example </b><b>Exam<!--x-->ple</b><b><!--x-->Example</b>`,
		`<b>Example ٣</b><b>exampleſ</b><b>EXAMPLE</b><b>eXample</b>`,
		`<input type="RADIO"><input type="CHECKbox"><input TYPE=Search><div ID="Task-INSTRUCTION-area">x</div>`,
		"nbsp\u00a0separated\u2003words em\u2003space nel\u0085here \u1680ogham\u3000wide",
		"İSTANBUL İİİ ǅ Ⱥ mixed CASE Kelvin K",
		"bad \xc2 utf8 \xe2\x82 tails \x85 \xa0 \xf0\x9f",
		"&amp;&lt;b&gt; &nbsp;&nbsp; &#x130; &#9; a&nbsp;b &mdash;&hellip;",
		"<p>one</p>", "<p>one two</p>", "w", "<br>",
		htmlgen.Render(model.TaskType{
			ID:     3,
			Labels: model.Labels{Operators: model.OpSet(0).With(model.OpSort).With(model.OpCount)},
			Design: model.DesignParams{Words: 260, TextBoxes: 2, Examples: 2, Images: 1, Fields: 9},
		}, htmlgen.Options{Seed: 11, BatchTag: "0000002a"}),
	)
	return corpus
}

// FuzzPageScan: for any input the fused walk returns the features of the
// reference walk over Tokenize's tokens and the shingle set of the
// strings.Join + FNV map reference.
func FuzzPageScan(f *testing.F) {
	for _, page := range scanCorpus() {
		f.Add(page)
	}
	var sc Scanner
	f.Fuzz(func(t *testing.T, page string) {
		checkPageScan(t, &sc, page)
	})
}

// TestScannerTokenizeMatchesTokenize: tokens read out of a reused scanner
// equal those of a fresh tokenization, attribute slices included.
func TestScannerTokenizeMatchesTokenize(t *testing.T) {
	var sc Scanner
	for round := 0; round < 2; round++ {
		for _, page := range scanCorpus() {
			want := Tokenize(page)
			got := sc.Tokenize(page)
			if !slices.EqualFunc(got, want, func(a, b Token) bool {
				return a.Type == b.Type && a.Name == b.Name && a.Text == b.Text && a.Pos == b.Pos && slices.Equal(a.Attrs, b.Attrs)
			}) {
				t.Fatalf("scanner tokens differ from Tokenize for %q", page)
			}
		}
	}
}
