package htmlfeat

import (
	"strings"
	"testing"
)

func TestTokenizeBasic(t *testing.T) {
	toks := Tokenize(`<p class="x">hello <b>world</b></p>`)
	want := []struct {
		typ  TokenType
		name string
		text string
	}{
		{StartTag, "p", ""},
		{Text, "", "hello "},
		{StartTag, "b", ""},
		{Text, "", "world"},
		{EndTag, "b", ""},
		{EndTag, "p", ""},
	}
	if len(toks) != len(want) {
		t.Fatalf("got %d tokens: %+v", len(toks), toks)
	}
	for i, w := range want {
		if toks[i].Type != w.typ || toks[i].Name != w.name || (w.text != "" && toks[i].Text != w.text) {
			t.Errorf("token %d = %+v, want %+v", i, toks[i], w)
		}
	}
}

func TestTokenizeAttributes(t *testing.T) {
	toks := Tokenize(`<input type="text" name='q1' checked value=plain>`)
	if len(toks) != 1 {
		t.Fatalf("got %d tokens", len(toks))
	}
	tok := toks[0]
	if v, ok := tok.Attr("type"); !ok || v != "text" {
		t.Errorf("type attr = %q, %v", v, ok)
	}
	if v, ok := tok.Attr("name"); !ok || v != "q1" {
		t.Errorf("name attr = %q, %v", v, ok)
	}
	if _, ok := tok.Attr("checked"); !ok {
		t.Error("boolean attr missing")
	}
	if v, _ := tok.Attr("value"); v != "plain" {
		t.Errorf("unquoted attr = %q", v)
	}
	if _, ok := tok.Attr("absent"); ok {
		t.Error("absent attr reported present")
	}
}

func TestTokenizeSelfClosing(t *testing.T) {
	toks := Tokenize(`<img src="a.jpg"/><br />`)
	if len(toks) != 2 {
		t.Fatalf("got %d tokens", len(toks))
	}
	for _, tok := range toks {
		if tok.Type != SelfClosingTag {
			t.Errorf("token %v not self-closing", tok)
		}
	}
}

func TestTokenizeCommentAndDoctype(t *testing.T) {
	toks := Tokenize("<!DOCTYPE html><!-- note -->text")
	if len(toks) != 2 {
		t.Fatalf("got %d tokens: %+v", len(toks), toks)
	}
	if toks[0].Type != Comment || strings.TrimSpace(toks[0].Text) != "note" {
		t.Errorf("comment = %+v", toks[0])
	}
	if toks[1].Type != Text || toks[1].Text != "text" {
		t.Errorf("text = %+v", toks[1])
	}
}

func TestTokenizeScriptSwallowed(t *testing.T) {
	toks := Tokenize(`<script>var x = "<b>not a tag</b>";</script><p>after</p>`)
	for _, tok := range toks {
		if tok.Type == Text && strings.Contains(tok.Text, "not a tag") {
			t.Error("script body leaked as text")
		}
	}
	// The paragraph after the script must still parse.
	found := false
	for _, tok := range toks {
		if tok.Type == Text && tok.Text == "after" {
			found = true
		}
	}
	if !found {
		t.Error("content after script lost")
	}
}

// scriptLeakPage is the page the raw-text skip used to get wrong: it looked
// for the closer in a lower-cased copy of the rest of the document and
// used the index on the original, and every 'İ' (two bytes) lowers to 'i'
// (one), so the skip stopped eight bytes short and `İİİ';` leaked out of
// the script as a fourth visible word.
const scriptLeakPage = `<script>var s = 'İİİİİİİİ';</script><p>visible words here</p>`

// TestTokenizeRawTextSkip pins where the raw-text skip lands: on the
// closer's own bytes whatever the body holds, with the closer matched
// ASCII-case-insensitively, and at end of input when there is none.
func TestTokenizeRawTextSkip(t *testing.T) {
	visible := func(src string) string {
		var parts []string
		for _, tok := range Tokenize(src) {
			if tok.Type == Text {
				parts = append(parts, tok.Text)
			}
		}
		return strings.Join(parts, "|")
	}
	cases := []struct{ name, src, want string }{
		{"length-changing lower-casing", scriptLeakPage, "visible words here"},
		{"ascii body", strings.ReplaceAll(scriptLeakPage, "İ", "I"), "visible words here"},
		{"mixed-case tags", `<SCRIPT>if (a < b) leak();</ScRiPt><p>after</p>`, "after"},
		{"style", `<style>p > b { color: red }</STYLE>shown`, "shown"},
		{"closer of the other element", `<script></style>still script</script>out`, "out"},
		{"non-ascii near-closer", `<script>x</scrİpt>hidden</script>out`, "out"},
		{"unterminated style", `<p>before</p><style>p { color: red } <b>never text</b>`, "before"},
	}
	for _, c := range cases {
		if got := visible(c.src); got != c.want {
			t.Errorf("%s: visible text %q, want %q", c.name, got, c.want)
		}
	}
	if w := Extract(scriptLeakPage).Words; w != 3 {
		t.Errorf("Words = %d, want 3: script source leaked into the visible text", w)
	}
	if n := testing.AllocsPerRun(10, func() { indexASCIIFold(scriptLeakPage, "</script") }); n != 0 {
		t.Errorf("closer search allocates %v times", n)
	}
}

func TestTokenizeMalformed(t *testing.T) {
	// Unterminated tag, stray '<': must not panic, must keep text.
	toks := Tokenize("a < b <i>c")
	text := ""
	for _, tok := range toks {
		if tok.Type == Text {
			text += tok.Text
		}
	}
	if !strings.Contains(text, "a") || !strings.Contains(text, "b") || !strings.Contains(text, "c") {
		t.Errorf("malformed input lost text: %q", text)
	}
	// Tag cut off at end of input.
	_ = Tokenize("<div class=")
	_ = Tokenize("<")
	_ = Tokenize("</")
	_ = Tokenize("<!-- unterminated")
}

func TestDecodeEntities(t *testing.T) {
	cases := []struct{ in, want string }{
		{"a &amp; b", "a & b"},
		{"&lt;tag&gt;", "<tag>"},
		{"&quot;q&quot;", `"q"`},
		{"&#65;&#x42;", "AB"},
		{"no entities", "no entities"},
		{"&unknown; stays", "&unknown; stays"},
		{"dangling &", "dangling &"},
		{"&nbsp;", " "},
	}
	for _, c := range cases {
		if got := DecodeEntities(c.in); got != c.want {
			t.Errorf("DecodeEntities(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestTokenizeCaseInsensitiveTagNames(t *testing.T) {
	toks := Tokenize(`<DIV CLASS="Big">x</DIV>`)
	if toks[0].Name != "div" {
		t.Errorf("tag name = %q", toks[0].Name)
	}
	if v, _ := toks[0].Attr("class"); v != "Big" {
		t.Errorf("attr value should preserve case: %q", v)
	}
	if toks[2].Name != "div" || toks[2].Type != EndTag {
		t.Errorf("end tag = %+v", toks[2])
	}
}

func TestTokenizeEmptyInput(t *testing.T) {
	if toks := Tokenize(""); len(toks) != 0 {
		t.Errorf("empty input gave %d tokens", len(toks))
	}
}
