package htmlfeat

import "slices"

// Shingle sets are represented as deduped []uint64 hash slices rather than
// map[uint64]struct{}: the clustering hot path iterates them linearly
// (MinHash signatures, merge-based Jaccard), and a slice keeps that scan
// cache-friendly and allocation-lean. Scanner.Scan (scan.go) produces them.

// Shingles produces the sorted, deduped k-shingle slice used for batch
// similarity: k-grams of the combined tag/word stream, hashed to uint64
// by FNV-1a. Identical task interfaces share (nearly) identical shingle
// sets, so Jaccard similarity over these recovers the paper's notion of
// "the same distinct task".
func Shingles(src string, k int) []uint64 {
	var sc Scanner
	_, out := sc.Scan(nil, sc.Tokenize(src), k)
	slices.Sort(out)
	return out
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// Jaccard returns |a∩b| / |a∪b| over sorted, deduped shingle slices;
// 1 for two empty sets. The merge walk replaces the old map probing.
func Jaccard(a, b []uint64) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	inter := 0
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			inter++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	union := len(a) + len(b) - inter
	return float64(inter) / float64(union)
}
