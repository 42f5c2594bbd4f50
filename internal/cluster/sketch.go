package cluster

import (
	"sync"

	"crowdscope/internal/htmlfeat"
	"crowdscope/internal/par"
)

// Sketches is what the page front end derives for a list of batches — all
// that clustering, the cluster table and a threshold sweep read of their
// pages. The slices run parallel to IDs; a batch without a page has the
// zero Features and nil Sets and Sigs entries. Batches whose pages are the
// same but for comment bodies alias one set and one signature, so neither
// may be written to.
type Sketches struct {
	// Options are the options the sketches were taken under.
	Options  Options
	IDs      []uint32
	Features []htmlfeat.Features
	// Sets are the pages' bottom-k shingle sets, sorted ascending; a page
	// without shingles has an empty, non-nil set.
	Sets [][]uint64
	// Sigs are the MinHash signatures of Sets.
	Sigs [][]uint64
	// Distinct counts the pages the kernels ran on; the other
	// len(IDs) - Distinct lookups found their page already sketched.
	Distinct int
}

// SketchPages renders html(id) for every batch on sharded goroutines and
// sketches it. Each page is tokenized and looked up in a memo shared by
// the workers; the features → shingles → bottom-k → signature kernels run
// once per distinct page, on whichever worker asks first. A sketch is a
// pure function of its memo key, so the result is the same for every
// Workers value.
func SketchPages(ids []uint32, html func(uint32) (string, bool), opts Options) *Sketches {
	n := len(ids)
	s := &Sketches{
		Options:  opts,
		IDs:      ids,
		Features: make([]htmlfeat.Features, n),
		Sets:     make([][]uint64, n),
		Sigs:     make([][]uint64, n),
	}
	sk := newSketcher()
	par.EachShard(n, opts.Workers, func(lo, hi int) {
		var w sketchScratch
		for i := lo; i < hi; i++ {
			page, ok := html(ids[i])
			if !ok {
				continue
			}
			e := sk.sketch(page, &w)
			s.Features[i], s.Sets[i], s.Sigs[i] = e.feats, e.set, e.sig
		}
	})
	s.Distinct = len(sk.memo)
	return s
}

// Cluster merges the sketched batches at Options.Threshold: LSH banding
// over the signatures, then the threshold-verified union-find.
func (s *Sketches) Cluster() *Clustering {
	return mergeSignatures(s.IDs, s.Sets, s.Sigs, s.Options)
}

// sketcher is the memo of one SketchPages call and the hash family its
// signatures use.
type sketcher struct {
	hasher *minHasher

	mu   sync.Mutex
	memo map[string]*sketch
}

// sketch is one distinct page's memo entry, filled under once by the first
// worker to look it up and read-only from then on.
type sketch struct {
	once  sync.Once
	feats htmlfeat.Features
	set   []uint64
	sig   []uint64
}

// sketchScratch is one worker's reusable buffers.
type sketchScratch struct {
	scan htmlfeat.Scanner
	key  []byte
	raw  []uint64 // a page's full shingle set, before the bottom-k cap
}

func newSketcher() *sketcher {
	return &sketcher{
		hasher: newMinHasher(Hashes, HashSeed),
		memo:   make(map[string]*sketch),
	}
}

// sketch returns the memo entry of page, computing it if this is the first
// lookup of its key. A hit compares key bytes — two pages share an entry
// only if their keys are equal, never because a hash of them is.
func (sk *sketcher) sketch(page string, w *sketchScratch) *sketch {
	toks := w.scan.Tokenize(page)
	w.key = appendMemoKey(w.key[:0], page, toks)
	sk.mu.Lock()
	e := sk.memo[string(w.key)]
	if e == nil {
		e = new(sketch)
		sk.memo[string(w.key)] = e
	}
	sk.mu.Unlock()
	e.once.Do(func() {
		e.feats, w.raw = w.scan.Scan(w.raw[:0], toks, ShingleK)
		// The retained set is a copy of its own size: raw is scratch, and
		// only the rare page with more than maxShingles shingles fills it.
		e.set = append(make([]uint64, 0, min(len(w.raw), maxShingles)), bottomK(w.raw, maxShingles)...)
		e.sig = make([]uint64, Hashes)
		sk.hasher.signatureInto(e.sig, e.set)
	})
	return e
}

// appendMemoKey appends page with the body of every comment token cut out
// and its delimiters left in. Equal keys mean equal sketches: the
// tokenizer reads a page left to right and leaves each comment in the
// state it entered it in, so two pages with one key tokenize alike up to
// their first comment, through it, and so on to the end — the same tokens
// but for comment bodies, which Scan does not read. What does count stays
// in the key: that a comment is there (the delimiters — it splits a text
// node and ends the "alone in its tag" state of #examples), whether it is
// terminated, and every "<!--" the tokenizer did not take for a comment
// (inside an attribute value or a script body), because the cut is made
// at the tokenizer's own comment tokens and nowhere else.
func appendMemoKey(dst []byte, page string, toks []htmlfeat.Token) []byte {
	kept := 0
	for i := range toks {
		if toks[i].Type == htmlfeat.Comment {
			body := toks[i].Pos + len("<!--")
			dst = append(dst, page[kept:body]...)
			kept = body + len(toks[i].Text)
		}
	}
	return append(dst, page[kept:]...)
}
