package cluster

import (
	"slices"
	"sync"
	"testing"

	"crowdscope/internal/htmlfeat"
)

// sketchAll sketches pages (batch i has pages[i]) through one memo.
func sketchAll(pages []string, workers int) *Sketches {
	ids := make([]uint32, len(pages))
	for i := range ids {
		ids[i] = uint32(i)
	}
	opts := DefaultOptions()
	opts.Workers = workers
	return SketchPages(ids, func(id uint32) (string, bool) { return pages[id], true }, opts)
}

// checkAgainstSlowPath holds every sketch to what the public slow path
// derives from that page alone — htmlfeat.Extract, htmlfeat.Shingles capped
// bottom-k, and the set-major signature — so a page that shared a memo
// entry it should not have shows as a mismatch.
func checkAgainstSlowPath(t *testing.T, s *Sketches, pages []string) {
	t.Helper()
	m := newMinHasher(Hashes, HashSeed)
	for i, page := range pages {
		if got, want := s.Features[i], htmlfeat.Extract(page); got != want {
			t.Errorf("page %d %q: features %+v, slow path %+v", i, page, got, want)
		}
		set := htmlfeat.Shingles(page, ShingleK) // sorted: the bottom k are a prefix
		if len(set) > maxShingles {
			set = set[:maxShingles]
		}
		if !slices.Equal(s.Sets[i], set) {
			t.Errorf("page %d %q: shingle set differs from the slow path's", i, page)
		}
		sig := make([]uint64, Hashes)
		for h := range sig {
			sig[h] = ^uint64(0)
			for _, v := range set {
				sig[h] = min(sig[h], m.a[h]*v+m.b[h])
			}
		}
		if !slices.Equal(s.Sigs[i], sig) {
			t.Errorf("page %d %q: signature differs from the slow path's", i, page)
		}
	}
}

// shared reports whether batches i and j read one memo entry: their sets
// and signatures are the same memory, not just equal.
func shared(s *Sketches, i, j int) bool {
	return &s.Sigs[i][0] == &s.Sigs[j][0] && len(s.Sets[i]) == len(s.Sets[j]) &&
		(len(s.Sets[i]) == 0 || &s.Sets[i][0] == &s.Sets[j][0])
}

// TestSketchMemoShares: pages that differ only inside comment bodies are
// analysed once and alias one entry.
func TestSketchMemoShares(t *testing.T) {
	_, html, _ := fakeCorpus(1, 3) // one task type: the pages differ in the batch comment alone
	pages := []string{
		html[0], html[1], html[2],
		`<p>rate this</p><!-- batch:1 --><b>Example</b>`, `<p>rate this</p><!----><b>Example</b>`,
		`<p>rate this</p><!-- <input type="text"> <b>Example</b> words --><b>Example</b>`,
		// Unterminated: the body runs to the end of the page, whatever it is.
		`tail <!-- cut here`, `tail <!--`, `tail <!-- <p>not a paragraph</p>`,
		// The body ends at the first "-->", so a third dash belongs to it.
		`<p>a</p><!-- x -->b`, `<p>a</p><!-- x --->b`,
	}
	s := sketchAll(pages, 1)
	if s.Distinct != 4 {
		t.Errorf("%d distinct pages, want 4", s.Distinct)
	}
	for _, group := range [][]int{{0, 1, 2}, {3, 4, 5}, {6, 7, 8}, {9, 10}} {
		for _, i := range group[1:] {
			if !shared(s, group[0], i) {
				t.Errorf("pages %d and %d differ only in comment bodies but do not share an entry", group[0], i)
			}
		}
	}
	checkAgainstSlowPath(t, s, pages)
}

// TestSketchMemoKeepsApart: pages a cruder key would merge — comments cut
// whole, or anything that looks like one cut — keep their own entries, and
// each gets the sketch its own slow path gives it.
func TestSketchMemoKeepsApart(t *testing.T) {
	for _, c := range []struct {
		name string
		a, b string
		same bool // the two sketches are equal in value all the same
	}{
		{"a comment splits a word", `<p>exam<!--x-->ple</p>`, `<p>example</p>`, false},
		{"a comment un-owns the tag's text", `<b><!--x-->Example</b>`, `<b>Example</b>`, false},
		{"comment-looking attribute values", `<input type="<!--text-->">`, `<input type="<!--radio-->">`, true},
		{"comment-looking class", `<div class="<!--instructions-->">x</div>`, `<div class="<!--directions-->">x</div>`, false},
		{"unterminated against terminated", `<p>a</p><!-- x <p>b</p>`, `<p>a</p><!-- x --><p>b</p>`, false},
		{"unterminated against none", `<p>a</p><!--`, `<p>a</p>`, true},
		{"comment opener inside a script", `<script><!-- a --></script><p>x</p>`, `<script><!-- b --></script><p>x</p>`, true},
		{"comment-looking text after a stray <", `<p>a</p>< !-- x -->`, `<p>a</p>< !-- y -->`, false},
	} {
		pages := []string{c.a, c.b}
		s := sketchAll(pages, 1)
		if s.Distinct != 2 || shared(s, 0, 1) {
			t.Errorf("%s: %q and %q share a memo entry", c.name, c.a, c.b)
		}
		same := s.Features[0] == s.Features[1] && slices.Equal(s.Sets[0], s.Sets[1])
		if same != c.same {
			t.Errorf("%s: sketches equal = %v, want %v (features %+v / %+v)", c.name, same, c.same, s.Features[0], s.Features[1])
		}
		checkAgainstSlowPath(t, s, pages)
	}
}

// TestSketchMemoConcurrent: many workers asking for few distinct pages at
// once — first lookups racing on the same entries — get the serial result,
// entry sharing included. Run under -race.
func TestSketchMemoConcurrent(t *testing.T) {
	_, html, _ := fakeCorpus(5, 4)
	var pages []string
	for round := 0; round < 6; round++ {
		for id := uint32(0); id < 20; id++ {
			pages = append(pages, html[id])
		}
	}
	want := sketchAll(pages, 1)
	if want.Distinct != 5 {
		t.Fatalf("%d distinct pages, want 5", want.Distinct)
	}
	checkAgainstSlowPath(t, want, pages)
	for _, workers := range []int{2, 3, 8} {
		got := sketchAll(pages, workers)
		if got.Distinct != want.Distinct {
			t.Errorf("workers=%d: %d distinct pages, want %d", workers, got.Distinct, want.Distinct)
		}
		for i := range pages {
			if got.Features[i] != want.Features[i] || !slices.Equal(got.Sets[i], want.Sets[i]) || !slices.Equal(got.Sigs[i], want.Sigs[i]) {
				t.Fatalf("workers=%d: page %d sketched differently than by one worker", workers, i)
			}
			if !shared(got, i, i%20/4*4) {
				t.Fatalf("workers=%d: page %d does not share its task's entry", workers, i)
			}
		}
	}

	// All workers released onto one cold entry together.
	sk := newSketcher()
	entries := make([]*sketch, 8)
	var start, done sync.WaitGroup
	start.Add(1)
	for g := range entries {
		done.Add(1)
		go func(g int) {
			defer done.Done()
			var w sketchScratch
			start.Wait()
			entries[g] = sk.sketch(html[uint32(g%4)], &w)
		}(g)
	}
	start.Done()
	done.Wait()
	for g, e := range entries {
		if e != entries[0] || !slices.Equal(e.sig, want.Sigs[0]) {
			t.Fatalf("goroutine %d got another entry, or an unfilled one", g)
		}
	}
}
