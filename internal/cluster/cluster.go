// Package cluster groups batches into distinct tasks by interface
// similarity, mirroring the paper's Section 3.3 methodology: batches whose
// sample HTML looks the same (same markup structure and near-identical
// wording) almost surely carry the same unit of work. Similarity is
// Jaccard over HTML shingles, computed scalably with MinHash signatures
// and locality-sensitive banding, then merged with union-find.
//
// The expensive phase is the page front end (sketch.go): render, tokenize,
// and — once per distinct page — design features, shingles, bottom-k cap
// and MinHash signature. It runs on sharded goroutines over a shared memo
// whose entries do not depend on who fills them, so the result is identical
// for any worker count. The LSH banding and union-find merge are the cheap
// sequential tail.
package cluster

import (
	"slices"
	"sort"

	"crowdscope/internal/htmlfeat"
	"crowdscope/internal/rng"
)

// The MinHash setup is fixed, as the paper fixed its own: shingles of
// ShingleK tokens over the combined tag/word stream, signatures of Hashes
// values from the hash family HashSeed draws, and bands of Hashes/bands
// rows for LSH. Only the merge threshold was tuned (Options.Threshold).
const (
	// ShingleK is the shingle width over the combined tag/word stream.
	ShingleK = 4
	// Hashes is the MinHash signature length.
	Hashes = 64
	// HashSeed draws the hash family (see newMinHasher).
	HashSeed = 0x5EED
	// bands is the number of LSH bands; it divides Hashes.
	bands = 16
)

// Options tune the clustering.
type Options struct {
	// Threshold is the signature-estimated Jaccard above which two
	// batches merge. The paper tuned its threshold until eyeballed
	// matches clustered together; 0.7 plays that role here.
	Threshold float64
	// Exact switches to exact Jaccard verification of candidate pairs
	// (slower, used by the ablation benchmarks).
	Exact bool
	// Workers bounds the goroutine fan-out of the page front end. Zero
	// or negative means GOMAXPROCS; 1 is the serial reference. The
	// clustering is identical for every value.
	Workers int
}

// DefaultOptions returns the tuned clustering configuration.
func DefaultOptions() Options {
	return Options{Threshold: 0.7}
}

// Clustering is the result: a cluster index per input batch and the
// members of each cluster.
type Clustering struct {
	// IDs holds the input batch IDs in input order.
	IDs []uint32
	// ClusterOf[i] is the cluster index of IDs[i].
	ClusterOf []int
	// Members[c] lists input positions belonging to cluster c.
	Members [][]int
}

// NumClusters returns the number of clusters found.
func (c *Clustering) NumClusters() int { return len(c.Members) }

// Batches clusters the given batch IDs using html(id) to obtain each
// batch's sample page. Batches whose page is unavailable become singleton
// clusters.
func Batches(ids []uint32, html func(uint32) (string, bool), opts Options) *Clustering {
	return SketchPages(ids, html, opts).Cluster()
}

// mergeSignatures is the sequential clustering tail: LSH banding over the
// signatures, threshold-verified union-find merge, cluster assembly.
func mergeSignatures(ids []uint32, sets, sigs [][]uint64, opts Options) *Clustering {
	n := len(ids)
	uf := newUnionFind(n)
	const rowsPerBand = Hashes / bands

	// LSH: batches agreeing on all rows of any band become candidates.
	buckets := make(map[uint64][]int)
	for band := 0; band < bands; band++ {
		for k := range buckets {
			delete(buckets, k)
		}
		for i := 0; i < n; i++ {
			if sigs[i] == nil {
				continue
			}
			key := hashBand(sigs[i][band*rowsPerBand:(band+1)*rowsPerBand], uint64(band))
			buckets[key] = append(buckets[key], i)
		}
		for _, cand := range buckets {
			if len(cand) < 2 {
				continue
			}
			anchor := cand[0]
			for _, other := range cand[1:] {
				if uf.find(anchor) == uf.find(other) {
					continue
				}
				var sim float64
				if opts.Exact {
					sim = htmlfeat.Jaccard(sets[anchor], sets[other])
				} else {
					sim = estimateJaccard(sigs[anchor], sigs[other])
				}
				if sim >= opts.Threshold {
					uf.union(anchor, other)
				}
			}
		}
	}

	return assemble(ids, uf)
}

func assemble(ids []uint32, uf *unionFind) *Clustering {
	n := len(ids)
	c := &Clustering{IDs: ids, ClusterOf: make([]int, n)}
	rootToCluster := map[int]int{}
	for i := 0; i < n; i++ {
		root := uf.find(i)
		ci, ok := rootToCluster[root]
		if !ok {
			ci = len(c.Members)
			rootToCluster[root] = ci
			c.Members = append(c.Members, nil)
		}
		c.ClusterOf[i] = ci
		c.Members[ci] = append(c.Members[ci], i)
	}
	return c
}

// estimateJaccard is the fraction of matching signature positions.
func estimateJaccard(a, b []uint64) float64 {
	if len(a) == 0 || len(a) != len(b) {
		return 0
	}
	match := 0
	for i := range a {
		if a[i] == b[i] {
			match++
		}
	}
	return float64(match) / float64(len(a))
}

func hashBand(rows []uint64, band uint64) uint64 {
	h := uint64(14695981039346656037) ^ band*1099511628211
	for _, v := range rows {
		h ^= v
		h *= 1099511628211
	}
	return h
}

// maxShingles caps the shingle set per page with a bottom-k sketch (the k
// numerically smallest shingle hashes). Bottom-k sketches of two sets
// approximate their true Jaccard similarity, and the cap bounds signature
// cost for the rare 40k-word task pages.
const maxShingles = 512

// bottomK keeps the k numerically smallest of the deduped vals, returned
// sorted ascending. Quickselect partitions the k smallest to the front so
// only those k ever get sorted; vals is reordered in place.
func bottomK(vals []uint64, k int) []uint64 {
	if len(vals) > k {
		selectSmallest(vals, k)
		vals = vals[:k]
	}
	slices.Sort(vals)
	return vals
}

// selectSmallest partially sorts vals so its first k elements are the k
// smallest, via iterative median-of-three quickselect (deterministic, no
// allocation).
func selectSmallest(vals []uint64, k int) {
	lo, hi := 0, len(vals)-1
	for lo < hi {
		// Median-of-three pivot to dodge sorted-input worst cases.
		mid := int(uint(lo+hi) >> 1)
		if vals[mid] < vals[lo] {
			vals[mid], vals[lo] = vals[lo], vals[mid]
		}
		if vals[hi] < vals[lo] {
			vals[hi], vals[lo] = vals[lo], vals[hi]
		}
		if vals[hi] < vals[mid] {
			vals[hi], vals[mid] = vals[mid], vals[hi]
		}
		pivot := vals[mid]
		i, j := lo, hi
		for i <= j {
			for vals[i] < pivot {
				i++
			}
			for vals[j] > pivot {
				j--
			}
			if i <= j {
				vals[i], vals[j] = vals[j], vals[i]
				i++
				j--
			}
		}
		// [lo..j] <= pivot <= [i..hi]; recurse into the side holding k.
		if k <= j {
			hi = j
		} else if k >= i {
			lo = i
		} else {
			return
		}
	}
}

// minHasher holds a family of pairwise-independent hash functions of the
// form (a*x + b) over the 64-bit ring.
type minHasher struct {
	a, b []uint64
}

func newMinHasher(k int, seed uint64) *minHasher {
	r := rng.New(seed)
	m := &minHasher{a: make([]uint64, k), b: make([]uint64, k)}
	for i := 0; i < k; i++ {
		m.a[i] = r.Uint64() | 1 // odd multiplier
		m.b[i] = r.Uint64()
	}
	return m
}

// signatureInto computes the MinHash signature of a shingle slice into
// sig (len(sig) hash functions are used); empty sets map to a sentinel
// all-max signature that never matches anything real. The walk is
// hash-major: four hash functions at a time keep their multipliers,
// offsets and running minima in registers down one pass over the set —
// which, capped at maxShingles, stays in L1 for all the passes — so a
// compare costs no load or store of sig. A minimum does not depend on
// the order it was taken in, so the values are those of the set-major
// walk.
func (m *minHasher) signatureInto(sig []uint64, set []uint64) {
	i := 0
	for ; i+4 <= len(sig); i += 4 {
		a0, a1, a2, a3 := m.a[i], m.a[i+1], m.a[i+2], m.a[i+3]
		b0, b1, b2, b3 := m.b[i], m.b[i+1], m.b[i+2], m.b[i+3]
		m0, m1, m2, m3 := ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)
		for _, s := range set {
			m0 = min(m0, a0*s+b0)
			m1 = min(m1, a1*s+b1)
			m2 = min(m2, a2*s+b2)
			m3 = min(m3, a3*s+b3)
		}
		sig[i], sig[i+1], sig[i+2], sig[i+3] = m0, m1, m2, m3
	}
	for ; i < len(sig); i++ {
		a, b, least := m.a[i], m.b[i], ^uint64(0)
		for _, s := range set {
			least = min(least, a*s+b)
		}
		sig[i] = least
	}
}

// unionFind is a weighted quick-union with path halving.
type unionFind struct {
	parent []int
	size   []int
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int, n), size: make([]int, n)}
	for i := range uf.parent {
		uf.parent[i] = i
		uf.size[i] = 1
	}
	return uf
}

func (u *unionFind) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *unionFind) union(a, b int) {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return
	}
	if u.size[ra] < u.size[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	u.size[ra] += u.size[rb]
}

// SizeHistogram returns (size, count) pairs sorted ascending by size — the
// log-log cluster-size distribution of Figure 6.
func (c *Clustering) SizeHistogram() (sizes []int, counts []int) {
	bySize := map[int]int{}
	for _, m := range c.Members {
		bySize[len(m)]++
	}
	for s := range bySize {
		sizes = append(sizes, s)
	}
	sort.Ints(sizes)
	counts = make([]int, len(sizes))
	for i, s := range sizes {
		counts[i] = bySize[s]
	}
	return sizes, counts
}
