package htmlfeat

import (
	"slices"
	"strings"
	"testing"

	"crowdscope/internal/htmlgen"
	"crowdscope/internal/model"
)

// shinglesMapReference is the historical two-pass map-based kernel: build
// the joined tag/word stream as strings, hash each joined k-gram, dedupe
// in a map. The slice kernel must reproduce its set exactly.
func shinglesMapReference(src string, k int) map[uint64]struct{} {
	if k <= 0 {
		k = 4
	}
	var stream []string
	for _, t := range Tokenize(src) {
		switch t.Type {
		case StartTag, SelfClosingTag:
			stream = append(stream, "<"+t.Name+">")
		case Text:
			stream = append(stream, strings.Fields(strings.ToLower(t.Text))...)
		}
	}
	set := make(map[uint64]struct{}, len(stream))
	if len(stream) < k {
		if len(stream) == 0 {
			return set
		}
		set[fnv1a(strings.Join(stream, " "))] = struct{}{}
		return set
	}
	for i := 0; i+k <= len(stream); i++ {
		set[fnv1a(strings.Join(stream[i:i+k], " "))] = struct{}{}
	}
	return set
}

// fnv1a is the reference hash of a joined gram.
func fnv1a(s string) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

var shingleGoldenDocs = []string{
	"",
	"plain words only no tags at all",
	`<p>hi</p>`,
	`<div><p>Rate the SENTIMENT of this review</p><input type="radio"><input type="radio"></div>`,
	`<table><tr><td>transcribe&nbsp;the audio &amp; video clip</td></tr></table><textarea></textarea>`,
	"<b>Example</b><p>café NAÏVE 中文 mixed\tw h i t e\nspace</p><img src=\"x.png\">",
	`<ul>` + strings.Repeat(`<li>item one two three</li>`, 40) + `</ul>`,
	"<p>dup dup dup dup dup dup dup dup</p>", // heavy duplicate shingles
	`<script>ignored()</script><style>.x{}</style><p>visible</p>`,
	"broken < markup <p attr='unterminated",
	"entity stew &lt;&gt;&amp;&quot; &#65;&#x42; &unknown; tail",
	"  leading and trailing  ",
	"invalid utf8 \xff\xfe bytes <b>in</b> text \xc3",
}

// TestShinglesMatchesMapReference: the one-pass slice kernel produces
// exactly the historical set for a spread of documents and widths.
func TestShinglesMatchesMapReference(t *testing.T) {
	for _, k := range []int{0, 1, 2, 3, 4, 7} {
		for di, doc := range shingleGoldenDocs {
			want := shinglesMapReference(doc, k)
			got := Shingles(doc, k)
			if len(got) != len(want) {
				t.Fatalf("doc %d k=%d: %d shingles, reference %d", di, k, len(got), len(want))
			}
			if !slices.IsSorted(got) {
				t.Fatalf("doc %d k=%d: shingle slice not sorted", di, k)
			}
			for _, v := range got {
				if _, ok := want[v]; !ok {
					t.Fatalf("doc %d k=%d: shingle %#x not in reference set", di, k, v)
				}
			}
		}
	}
}

// TestAppendShinglesDedupes: the scan emits each hash once even across
// repeated use of one scanner.
func TestAppendShinglesDedupes(t *testing.T) {
	var sc Scanner
	for round := 0; round < 3; round++ {
		for _, doc := range shingleGoldenDocs {
			_, got := sc.Scan(nil, sc.Tokenize(doc), 3)
			seen := map[uint64]bool{}
			for _, v := range got {
				if seen[v] {
					t.Fatalf("round %d: duplicate shingle %#x", round, v)
				}
				seen[v] = true
			}
		}
	}
}

// TestShinglesAllocs: with a warm scanner and destination, tokenizing and
// scanning an entity-free ASCII page allocates nothing — no token slice,
// no attribute slices, no decoded text, no per-shingle map or string.
func TestShinglesAllocs(t *testing.T) {
	page := strings.Repeat(`<div class="x"><p>some Words here</p><b>Example 2</b><input type="text" name=q></div>`, 100)
	var sc Scanner
	_, dst := sc.Scan(nil, sc.Tokenize(page), 4) // warm the scratch
	allocs := testing.AllocsPerRun(20, func() {
		_, dst = sc.Scan(dst[:0], sc.Tokenize(page), 4)
	})
	if allocs > 0 {
		t.Errorf("Tokenize+Scan allocs = %v, want 0 with a warm scanner", allocs)
	}
}

// BenchmarkScan is the per-distinct-page cost of the front end short of
// the signature: tokenize and scan one rendered task page on a warm
// scanner.
func BenchmarkScan(b *testing.B) {
	page := htmlgen.Render(model.TaskType{
		ID:     1,
		Design: model.DesignParams{Words: 700, TextBoxes: 1, Examples: 1, Images: 1, Fields: 6},
	}, htmlgen.Options{Seed: 5, BatchTag: "00000001"})
	var sc Scanner
	var dst []uint64
	b.ReportAllocs()
	b.SetBytes(int64(len(page)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, dst = sc.Scan(dst[:0], sc.Tokenize(page), 4)
	}
}
