package htmlfeat

import (
	"strings"
	"testing"
)

func TestExtractWords(t *testing.T) {
	f := Extract(`<p>one two three</p><div>four</div>`)
	if f.Words != 4 {
		t.Errorf("Words = %d", f.Words)
	}
}

func TestExtractTextBoxes(t *testing.T) {
	src := `
		<input type="text">
		<input type="TEXT">
		<input>
		<textarea></textarea>
		<input type="radio">
		<input type="checkbox">
		<input type="hidden">
		<input type="email">`
	f := Extract(src)
	if f.TextBoxes != 5 { // text, TEXT, untyped, textarea, email
		t.Errorf("TextBoxes = %d", f.TextBoxes)
	}
	if f.Radios != 1 || f.Checkboxes != 1 {
		t.Errorf("Radios/Checkboxes = %d/%d", f.Radios, f.Checkboxes)
	}
	if f.Fields != 8 {
		t.Errorf("Fields = %d", f.Fields)
	}
}

func TestExtractImages(t *testing.T) {
	f := Extract(`<img src="a.jpg"><p>text</p><img src="b.png"/>`)
	if f.Images != 2 {
		t.Errorf("Images = %d", f.Images)
	}
}

func TestExtractExamplesOwnTag(t *testing.T) {
	cases := []struct {
		src  string
		want int
	}{
		// Wrapped in a tag of its own: counts.
		{`<b>Example</b>`, 1},
		{`<h3>Example 2</h3>`, 1},
		{`<strong>Example:</strong>`, 1},
		{`<b>Examples</b>`, 1},
		// Buried in prose: does not count.
		{`<p>for example, you could answer yes</p>`, 0},
		{`<p>Example answers are listed in the instructions below</p>`, 0},
		// Two prominent examples.
		{`<b>Example 1</b><p>body</p><b>Example 2</b>`, 2},
		// A non-example word alone in a tag.
		{`<b>Note</b>`, 0},
	}
	for _, c := range cases {
		if got := Extract(c.src).Examples; got != c.want {
			t.Errorf("Examples(%q) = %d, want %d", c.src, got, c.want)
		}
	}
}

func TestExtractInstructions(t *testing.T) {
	if !Extract(`<div class="instructions">x</div>`).HasInstructions {
		t.Error("class=instructions not detected")
	}
	if !Extract(`<div id="task-instruction-area">x</div>`).HasInstructions {
		t.Error("id containing instruction not detected")
	}
	if Extract(`<div class="other">x</div>`).HasInstructions {
		t.Error("false positive instructions")
	}
}

func TestVisibleText(t *testing.T) {
	got := VisibleText(`<p>hello</p> <b>world</b><script>ignored()</script>`)
	if got != "hello world" {
		t.Errorf("VisibleText = %q", got)
	}
}

func TestShinglesSimilarityOrdering(t *testing.T) {
	base := `<div><p>rate the sentiment of the following review text</p><input type="radio"><input type="radio"></div>`
	near := `<div><p>rate the sentiment of the following review text today</p><input type="radio"><input type="radio"></div>`
	far := `<table><tr><td>transcribe the audio clip completely</td></tr><textarea></textarea></table>`
	sBase := Shingles(base, 3)
	sNear := Shingles(near, 3)
	sFar := Shingles(far, 3)
	simNear := Jaccard(sBase, sNear)
	simFar := Jaccard(sBase, sFar)
	if simNear <= simFar {
		t.Errorf("near sim %.3f should exceed far sim %.3f", simNear, simFar)
	}
	if simNear < 0.5 {
		t.Errorf("near-duplicate similarity too low: %.3f", simNear)
	}
	if got := Jaccard(sBase, sBase); got != 1 {
		t.Errorf("self similarity = %v", got)
	}
}

func TestShinglesShortDoc(t *testing.T) {
	s := Shingles(`<p>hi</p>`, 4)
	if len(s) != 1 {
		t.Errorf("short doc shingles = %d", len(s))
	}
	if len(Shingles("", 4)) != 0 {
		t.Error("empty doc should have no shingles")
	}
}

func TestJaccardEdgeCases(t *testing.T) {
	if Jaccard(nil, nil) != 1 {
		t.Error("two empty sets should be identical")
	}
	one := []uint64{1}
	if Jaccard(nil, one) != 0 {
		t.Error("empty vs non-empty should be 0")
	}
	if got := Jaccard([]uint64{1, 2, 3, 5}, []uint64{2, 3, 5, 9}); got != 0.6 {
		t.Errorf("merge Jaccard = %v, want 3/5", got)
	}
}

func TestCountWordsUnicode(t *testing.T) {
	f := Extract("<p>café naïve 中文</p>")
	if f.Words != 3 {
		t.Errorf("unicode Words = %d", f.Words)
	}
}

func TestExtractRealisticPage(t *testing.T) {
	page := `<!DOCTYPE html>
<html><head><title>Search Relevance</title></head>
<body>
<h1>Rate search results</h1>
<div class="instructions"><p>Read the query and rate how relevant each result is.</p></div>
<b>Example</b>
<p>query: best pizza — result: pizza hut menu — relevance: high</p>
<img src="screenshot.png">
<div class="task-item">
  <label><input type="radio" name="rel" value="3"> very relevant</label>
  <label><input type="radio" name="rel" value="2"> somewhat</label>
  <label><input type="radio" name="rel" value="1"> not relevant</label>
  <input type="text" name="comment">
  <button type="submit">Submit</button>
</div>
</body></html>`
	f := Extract(page)
	if f.Examples != 1 {
		t.Errorf("Examples = %d", f.Examples)
	}
	if f.Images != 1 {
		t.Errorf("Images = %d", f.Images)
	}
	if f.TextBoxes != 1 {
		t.Errorf("TextBoxes = %d", f.TextBoxes)
	}
	if f.Radios != 3 {
		t.Errorf("Radios = %d", f.Radios)
	}
	if f.Fields != 5 {
		t.Errorf("Fields = %d", f.Fields)
	}
	if !f.HasInstructions {
		t.Error("instructions missed")
	}
	if f.Words < 30 {
		t.Errorf("Words = %d, expected the page text counted", f.Words)
	}
}

func BenchmarkExtract(b *testing.B) {
	page := strings.Repeat(`<div><p>some words here</p><input type="text"><img src="x.jpg"></div>`, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Extract(page)
	}
}

func BenchmarkShingles(b *testing.B) {
	page := strings.Repeat(`<div><p>some words here</p><input type="text"></div>`, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Shingles(page, 4)
	}
}
