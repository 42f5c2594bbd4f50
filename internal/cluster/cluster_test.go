package cluster

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"crowdscope/internal/htmlgen"
	"crowdscope/internal/model"
	"crowdscope/internal/rng"
)

// fakeCorpus builds HTML pages for nTypes distinct tasks, batchesPer each.
func fakeCorpus(nTypes, batchesPer int) (ids []uint32, html map[uint32]string, truth map[uint32]int) {
	html = map[uint32]string{}
	truth = map[uint32]int{}
	var id uint32
	for t := 0; t < nTypes; t++ {
		tt := model.TaskType{
			ID: uint32(t),
			Labels: model.Labels{
				Goals:     model.GoalSet(0).With(model.Goal(t % model.NumGoals)),
				Operators: model.OpSet(0).With(model.Operator(t % model.NumOperators)),
				Data:      model.DataSet(0).With(model.DataType(t % model.NumDataTypes)),
			},
			Design: model.DesignParams{
				Words:     150 + 90*t,
				TextBoxes: t % 3,
				Examples:  t % 2,
				Images:    (t * 7) % 4,
				Fields:    4 + t%5,
			},
		}
		for b := 0; b < batchesPer; b++ {
			page := htmlgen.Render(tt, htmlgen.Options{
				Seed:     uint64(t) * 1000003,
				BatchTag: fmt.Sprintf("%d-%d", t, b),
			})
			ids = append(ids, id)
			html[id] = page
			truth[id] = t
			id++
		}
	}
	return ids, html, truth
}

func lookup(html map[uint32]string) func(uint32) (string, bool) {
	return func(id uint32) (string, bool) {
		p, ok := html[id]
		return p, ok
	}
}

func TestClusteringRecoversTaskTypes(t *testing.T) {
	ids, html, truth := fakeCorpus(12, 8)
	c := Batches(ids, lookup(html), DefaultOptions())
	if got := c.NumClusters(); got != 12 {
		t.Fatalf("found %d clusters, want 12", got)
	}
	// Every cluster must be label-pure.
	for ci, members := range c.Members {
		want := truth[ids[members[0]]]
		for _, m := range members {
			if truth[ids[m]] != want {
				t.Fatalf("cluster %d mixes task types %d and %d", ci, want, truth[ids[m]])
			}
		}
	}
}

func TestClusteringExactMode(t *testing.T) {
	ids, html, truth := fakeCorpus(8, 5)
	opts := DefaultOptions()
	opts.Exact = true
	c := Batches(ids, lookup(html), opts)
	if got := c.NumClusters(); got != 8 {
		t.Fatalf("exact mode found %d clusters, want 8", got)
	}
	for _, members := range c.Members {
		want := truth[ids[members[0]]]
		for _, m := range members {
			if truth[ids[m]] != want {
				t.Fatal("exact mode mixed clusters")
			}
		}
	}
}

func TestClusteringMissingHTML(t *testing.T) {
	ids, html, _ := fakeCorpus(3, 3)
	// Remove HTML for two batches: they must become singletons.
	delete(html, ids[0])
	delete(html, ids[4])
	c := Batches(ids, lookup(html), DefaultOptions())
	// 3 real clusters; the two page-less batches each get their own.
	if got := c.NumClusters(); got != 5 {
		t.Fatalf("clusters = %d, want 5", got)
	}
}

func TestClusteringSingletons(t *testing.T) {
	ids, html, _ := fakeCorpus(20, 1)
	c := Batches(ids, lookup(html), DefaultOptions())
	if got := c.NumClusters(); got != 20 {
		t.Fatalf("one-batch tasks: clusters = %d, want 20", got)
	}
	for i := range ids {
		if len(c.Members[c.ClusterOf[i]]) != 1 {
			t.Fatal("singleton batch merged")
		}
	}
}

func TestClusterOfConsistency(t *testing.T) {
	ids, html, _ := fakeCorpus(6, 4)
	c := Batches(ids, lookup(html), DefaultOptions())
	total := 0
	for ci, members := range c.Members {
		total += len(members)
		for _, m := range members {
			if c.ClusterOf[m] != ci {
				t.Fatalf("ClusterOf[%d] = %d, member of %d", m, c.ClusterOf[m], ci)
			}
		}
	}
	if total != len(ids) {
		t.Fatalf("members cover %d of %d batches", total, len(ids))
	}
}

func TestSizeHistogram(t *testing.T) {
	ids, html, _ := fakeCorpus(4, 3)
	// Add 5 extra one-off types.
	extraIDs, extraHTML, _ := fakeCorpus(5, 1)
	for i, id := range extraIDs {
		nid := uint32(1000 + i)
		ids = append(ids, nid)
		html[nid] = extraHTML[id] + "<!-- shifted -->"
	}
	c := Batches(ids, lookup(html), DefaultOptions())
	sizes, counts := c.SizeHistogram()
	// Expect sizes {1 (x>=5?), 3 (x4)} — extras may collide with the base
	// four types since fakeCorpus reuses type indexes; just check shape.
	if len(sizes) == 0 || len(sizes) != len(counts) {
		t.Fatalf("histogram sizes=%v counts=%v", sizes, counts)
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] <= sizes[i-1] {
			t.Fatal("histogram sizes not ascending")
		}
	}
	total := 0
	for i := range sizes {
		total += sizes[i] * counts[i]
	}
	if total != len(ids) {
		t.Fatalf("histogram mass %d != %d batches", total, len(ids))
	}
}

func TestEstimateJaccard(t *testing.T) {
	a := []uint64{1, 2, 3, 4}
	if got := estimateJaccard(a, a); got != 1 {
		t.Errorf("self similarity %v", got)
	}
	b := []uint64{1, 2, 9, 9}
	if got := estimateJaccard(a, b); got != 0.5 {
		t.Errorf("half match %v", got)
	}
	if got := estimateJaccard(nil, a); got != 0 {
		t.Errorf("nil sig %v", got)
	}
}

func TestBottomK(t *testing.T) {
	vals := make([]uint64, 0, 100)
	for i := uint64(0); i < 100; i++ {
		vals = append(vals, i*i+7)
	}
	// Shuffle deterministically so quickselect sees unsorted input.
	r := rng.New(99)
	for i := len(vals) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		vals[i], vals[j] = vals[j], vals[i]
	}
	small := bottomK(append([]uint64(nil), vals...), 10)
	if len(small) != 10 {
		t.Fatalf("bottomK size %d", len(small))
	}
	if !slices.IsSorted(small) {
		t.Fatal("bottomK result not sorted")
	}
	// Must be the 10 smallest values.
	for i, v := range small {
		if want := uint64(i*i + 7); v != want {
			t.Fatalf("bottomK[%d] = %d, want %d", i, v, want)
		}
	}
	same := bottomK(append([]uint64(nil), vals...), 1000)
	if len(same) != len(vals) {
		t.Fatal("bottomK should pass through small sets")
	}
}

// TestBottomKQuickselectMatchesSort: quickselect keeps exactly the set a
// full sort would keep, over adversarial shapes (sorted, reversed, heavy
// duplicates, random).
func TestBottomKQuickselectMatchesSort(t *testing.T) {
	r := rng.New(7)
	shapes := map[string]func(n int) []uint64{
		"sorted": func(n int) []uint64 {
			out := make([]uint64, n)
			for i := range out {
				out[i] = uint64(i) * 3
			}
			return out
		},
		"reversed": func(n int) []uint64 {
			out := make([]uint64, n)
			for i := range out {
				out[i] = uint64(n-i) * 5
			}
			return out
		},
		"random": func(n int) []uint64 {
			out := make([]uint64, n)
			for i := range out {
				out[i] = r.Uint64()
			}
			return out
		},
		// Heavy duplicates stress the equal-to-pivot partition path.
		"duplicates": func(n int) []uint64 {
			out := make([]uint64, n)
			for i := range out {
				out[i] = uint64(i % 3)
			}
			return out
		},
	}
	for name, gen := range shapes {
		for _, n := range []int{1, 2, 15, 100, 1000} {
			for _, k := range []int{1, 2, 7, 99, 512} {
				vals := gen(n)
				want := append([]uint64(nil), vals...)
				slices.Sort(want)
				if k < len(want) {
					want = want[:k]
				}
				got := bottomK(append([]uint64(nil), vals...), k)
				if !slices.Equal(got, want) {
					t.Fatalf("%s n=%d k=%d: bottomK != sorted prefix", name, n, k)
				}
			}
		}
	}
}

// signatureMapReference is the historical map-based MinHash kernel; the
// slice scan must produce bit-identical signatures.
func signatureMapReference(m *minHasher, set map[uint64]struct{}) []uint64 {
	k := len(m.a)
	sig := make([]uint64, k)
	for i := range sig {
		sig[i] = ^uint64(0)
	}
	for s := range set {
		for i := 0; i < k; i++ {
			h := m.a[i]*s + m.b[i]
			if h < sig[i] {
				sig[i] = h
			}
		}
	}
	return sig
}

func TestSignatureMatchesMapReference(t *testing.T) {
	r := rng.New(11)
	// 64 is the tuned length; 1, 6 and 7 leave the four-at-a-time walk a
	// remainder.
	for _, hashes := range []int{64, 1, 6, 7} {
		m := newMinHasher(hashes, 0x5EED)
		for trial := 0; trial < 20; trial++ {
			n := r.Intn(600)
			set := make(map[uint64]struct{}, n)
			vals := make([]uint64, 0, n)
			for i := 0; i < n; i++ {
				v := r.Uint64()
				if _, dup := set[v]; !dup {
					set[v] = struct{}{}
					vals = append(vals, v)
				}
			}
			want := signatureMapReference(m, set)
			got := make([]uint64, hashes)
			m.signatureInto(got, vals)
			if !slices.Equal(got, want) {
				t.Fatalf("%d hashes, trial %d: slice signature differs from map reference", hashes, trial)
			}
		}
	}
}

// TestSignatureAllocs: signatures land in caller-provided buffers — the
// kernel itself must not allocate — and around it a warm worker sketching
// an entity-free ASCII page allocates only what the memo retains: the key
// copy, the entry, its set and its signature; a hit allocates nothing.
func TestSignatureAllocs(t *testing.T) {
	m := newMinHasher(64, 1)
	set := make([]uint64, 512)
	r := rng.New(5)
	for i := range set {
		set[i] = r.Uint64()
	}
	sig := make([]uint64, 64)
	allocs := testing.AllocsPerRun(10, func() {
		m.signatureInto(sig, set)
	})
	if allocs != 0 {
		t.Errorf("signatureInto allocs = %v, want 0", allocs)
	}

	// AllocsPerRun(10, ...) makes eleven calls; each gets a page of its own.
	pages := make([]string, 11)
	for i := range pages {
		pages[i] = strings.Repeat(`<div class="q"><p>rate the Sentiment of this review</p><input type="radio" name=r></div>`, 60) + fmt.Sprint("<p>variant ", i, "</p>")
	}
	var w sketchScratch
	newSketcher().sketch(pages[0], &w) // warm the scratch
	sk := newSketcher()
	next := 0
	miss := testing.AllocsPerRun(10, func() {
		sk.sketch(pages[next], &w)
		next++
	})
	if miss > 4 {
		t.Errorf("a memo miss allocates %v times, want the 4 it retains", miss)
	}
	if hit := testing.AllocsPerRun(10, func() { sk.sketch(pages[3], &w) }); hit != 0 {
		t.Errorf("a memo hit allocates %v times, want 0", hit)
	}
}

// TestClusteringWorkersInvariant: the parallel shingle/signature build
// produces the identical clustering for every worker count, with
// Workers=1 as the serial reference.
func TestClusteringWorkersInvariant(t *testing.T) {
	ids, html, _ := fakeCorpus(10, 6)
	// Knock out one page so the nil-set (singleton) path is exercised.
	delete(html, ids[7])
	serial := DefaultOptions()
	serial.Workers = 1
	want := Batches(ids, lookup(html), serial)
	for _, w := range []int{0, 2, 3, 8} {
		opts := DefaultOptions()
		opts.Workers = w
		got := Batches(ids, lookup(html), opts)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d clustering differs from serial reference", w)
		}
	}
	// Exact mode too: it reuses the shared shingle sets.
	serial.Exact = true
	wantExact := Batches(ids, lookup(html), serial)
	exact := DefaultOptions()
	exact.Exact = true
	exact.Workers = 4
	if got := Batches(ids, lookup(html), exact); !reflect.DeepEqual(got, wantExact) {
		t.Fatal("exact-mode clustering differs across worker counts")
	}
}

// TestClusteringEmptyVsMissingPage: a present-but-empty page carries the
// sentinel signature (and merges with other empty pages), while a missing
// page stays a singleton — the historical distinction.
func TestClusteringEmptyVsMissingPage(t *testing.T) {
	ids := []uint32{0, 1, 2, 3}
	// No shingles in either: one has no tokens at all, one only a comment.
	html := map[uint32]string{0: "", 1: "<!-- nothing to see -->"}
	s := SketchPages(ids, lookup(html), DefaultOptions())
	for i := 0; i < 2; i++ {
		if s.Sets[i] == nil || len(s.Sets[i]) != 0 {
			t.Errorf("empty page %d: set %v, want empty and non-nil", i, s.Sets[i])
		}
	}
	if s.Sets[2] != nil || s.Sigs[2] != nil {
		t.Error("a missing page must have neither set nor signature")
	}
	c := s.Cluster()
	if c.ClusterOf[0] != c.ClusterOf[1] {
		t.Error("two empty pages should cluster together")
	}
	if c.ClusterOf[2] == c.ClusterOf[3] || c.ClusterOf[2] == c.ClusterOf[0] {
		t.Error("missing pages must stay singletons")
	}
}

func TestUnionFind(t *testing.T) {
	uf := newUnionFind(6)
	uf.union(0, 1)
	uf.union(2, 3)
	uf.union(1, 3)
	if uf.find(0) != uf.find(2) {
		t.Error("transitive union broken")
	}
	if uf.find(4) == uf.find(0) {
		t.Error("disjoint sets merged")
	}
	uf.union(4, 4) // self-union is a no-op
	if uf.find(4) != uf.find(4) {
		t.Error("self union broke find")
	}
}

func BenchmarkClusterBatches(b *testing.B) {
	ids, html, _ := fakeCorpus(40, 10)
	fn := lookup(html)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Batches(ids, fn, DefaultOptions())
	}
}
