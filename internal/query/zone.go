package query

import (
	"math"

	"crowdscope/internal/store"
)

// This file is the zone side of planning and binding: what a zone map
// says a column can hold in a segment (or a whole scan source), and the
// three questions asked of it — can the predicate match nothing, must it
// match everything, what fraction does it keep.

// domain is the set of values one column can take within a zone:
// inclusive bounds — flo/fhi for trust, lo/hi for every other column,
// where hi < lo means no value at all — plus the exact sorted distinct
// values when the zone kept them.
type domain struct {
	lo, hi   int64
	flo, fhi float64
	set      []uint32
}

// zoneDomain is the one per-column zone lookup: pruning, covering and
// selectivity are all tests of a predicate against the domain it returns.
func zoneDomain(col Column, z *store.ZoneMap, si store.SegmentInfo) domain {
	u32 := func(lo, hi uint32, set []uint32) domain {
		return domain{lo: int64(lo), hi: int64(hi), set: set}
	}
	switch col {
	case ColBatch:
		// Batch bounds come from the segment table itself; a segment
		// covering no batch has the empty domain.
		return domain{lo: int64(si.BatchLo), hi: int64(si.BatchHi) - 1}
	case ColTaskType:
		return u32(z.TaskTypeMin, z.TaskTypeMax, z.TaskTypes)
	case ColItem:
		return u32(z.ItemMin, z.ItemMax, nil)
	case ColWorker:
		return u32(z.WorkerMin, z.WorkerMax, nil)
	case ColAnswer:
		return u32(z.AnswerMin, z.AnswerMax, z.Answers)
	case ColStart:
		return domain{lo: z.StartMin, hi: z.StartMax}
	case ColEnd:
		return domain{lo: z.EndMin, hi: z.EndMax}
	case ColDuration:
		// [EndMin-StartMax, EndMax-StartMin] conservatively contains every
		// actual duration: disjoint from it is disjoint from every row,
		// covering it covers every row.
		return domain{lo: z.EndMin - z.StartMax, hi: z.EndMax - z.StartMin}
	case ColTrust:
		return domain{flo: float64(z.TrustMin), fhi: float64(z.TrustMax)}
	}
	return domain{lo: math.MinInt64, hi: math.MaxInt64}
}

// leafDisjoint reports whether one leaf provably matches no row of the
// segment — its admissible values cannot intersect the segment's zone.
// For a conjunct that kills the whole segment; for an OR-leaf it only
// removes the leaf from its group.
func leafDisjoint(c *compiled, z *store.ZoneMap, si store.SegmentInfo) bool {
	d := zoneDomain(c.col, z, si)
	switch {
	case c.col == ColTrust:
		return c.fhi < d.flo || c.flo > d.fhi
	case c.set == nil && c.hi < c.lo:
		// The canonical empty range — an inverted window, or a join
		// predicate that matched no entity — matches nothing anywhere.
		return true
	case d.hi < d.lo, c.hi < d.lo, c.lo > d.hi:
		return true
	case d.set != nil && c.set != nil:
		return !sortedIntersect(c.set, d.set)
	case d.set != nil:
		return !setIntersectsRange(d.set, c.lo, c.hi)
	case c.set != nil && c.col == ColBatch:
		// Batch sets are lowered batch.* joins, sparse against a segment's
		// dense batch interval, so their members are tested too; item and
		// worker sets prune on their bounds alone.
		return !setIntersectsRange(c.set, d.lo, d.hi)
	}
	return false
}

// containsSeg reports whether the predicate provably matches every row of
// the segment: its admissible values cover the segment's exact zone
// bounds (or distinct set). Such predicates cost nothing at scan time.
func containsSeg(c *compiled, z *store.ZoneMap, si store.SegmentInfo) bool {
	d := zoneDomain(c.col, z, si)
	switch {
	case c.col == ColTrust:
		return c.flo <= d.flo && c.fhi >= d.fhi
	case d.hi < d.lo:
		return true
	case c.set == nil:
		return c.lo <= d.lo && c.hi >= d.hi
	case d.set != nil:
		return sortedSubset(d.set, c.set)
	}
	return setContainsRange(c.set, d.lo, d.hi)
}

// setContainsRange reports whether a sorted set contains every integer in
// [lo, hi].
func setContainsRange(set []uint32, lo, hi int64) bool {
	n := hi - lo + 1
	if n <= 0 {
		return true
	}
	if n > int64(len(set)) {
		return false
	}
	a, b := 0, len(set)
	for a < b {
		mid := (a + b) / 2
		if int64(set[mid]) < lo {
			a = mid + 1
		} else {
			b = mid
		}
	}
	if int64(a)+n > int64(len(set)) {
		return false
	}
	for k := int64(0); k < n; k++ {
		if int64(set[a+int(k)]) != lo+k {
			return false
		}
	}
	return true
}

// sortedSubset reports whether every element of a appears in b (both
// ascending).
func sortedSubset(a, b []uint32) bool {
	j := 0
	for _, v := range a {
		for j < len(b) && b[j] < v {
			j++
		}
		if j == len(b) || b[j] != v {
			return false
		}
	}
	return true
}

// setIntersectsRange reports whether a sorted set has a member in
// [lo, hi].
func setIntersectsRange(set []uint32, lo, hi int64) bool {
	a, b := 0, len(set)
	for a < b {
		mid := (a + b) / 2
		if int64(set[mid]) < lo {
			a = mid + 1
		} else {
			b = mid
		}
	}
	return a < len(set) && int64(set[a]) <= hi
}

// sortedIntersect reports whether two ascending uint32 slices share an
// element.
func sortedIntersect(a, b []uint32) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			return true
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return false
}

// leafSelectivity estimates the fraction of rows one lowered leaf keeps,
// from zone proxies alone: the overlap of the predicate's admissible
// values with the merged zone's domain. Uniformity is assumed — the point
// is ranking clauses, not estimating cardinality.
func leafSelectivity(p *Predicate, zr *zoneRanges) float64 {
	if zr.rows == 0 {
		return 0
	}
	d := zoneDomain(p.Col, &zr.z, store.SegmentInfo{BatchLo: zr.batchLo, BatchHi: zr.batchHi})
	switch {
	case p.Col == ColTrust:
		lo, hi := max(p.FLo, d.flo), min(p.FHi, d.fhi)
		if hi < lo {
			return 0
		}
		if d.fhi == d.flo {
			return 1
		}
		return (hi - lo) / (d.fhi - d.flo)
	case p.Set != nil:
		return fracSet(p.Set, d.lo, d.hi, d.set)
	}
	return fracRange(p.Lo, p.Hi, d.lo, d.hi)
}

// fracRange is the overlap fraction of [lo, hi] with the zone domain
// [zmin, zmax], computed in float64 to dodge integer overflow at the
// MinInt64/MaxInt64 sentinels.
func fracRange(lo, hi, zmin, zmax int64) float64 {
	if zmax < zmin {
		return 0
	}
	lo, hi = max(lo, zmin), min(hi, zmax)
	if hi < lo {
		return 0
	}
	return min(1, (float64(hi)-float64(lo)+1)/(float64(zmax)-float64(zmin)+1))
}

// fracSet is the fraction of the zone's distinct values a set keeps: an
// exact intersection when the zone kept its distinct set, members-in-range
// over the range width otherwise.
func fracSet(set []uint32, zmin, zmax int64, zset []uint32) float64 {
	if zset != nil {
		if len(zset) == 0 {
			return 0
		}
		n, i, j := 0, 0, 0
		for i < len(set) && j < len(zset) {
			switch {
			case set[i] == zset[j]:
				n++
				i++
				j++
			case set[i] < zset[j]:
				i++
			default:
				j++
			}
		}
		return min(1, float64(n)/float64(len(zset)))
	}
	width := float64(zmax) - float64(zmin) + 1
	if width <= 0 {
		return 0
	}
	n := 0
	for _, v := range set {
		if int64(v) >= zmin && int64(v) <= zmax {
			n++
		}
	}
	return min(1, float64(n)/width)
}
