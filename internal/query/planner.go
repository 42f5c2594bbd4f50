package query

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"

	"crowdscope/internal/query/plan"
	"crowdscope/internal/store"
)

// This file is the statistics-free planner: it turns a Query's clauses
// (conjuncts and OR-groups) into an execution order using only persisted
// selectivity proxies — the merged zone map's value ranges and distinct
// sets, plus row and segment counts. No histograms, no sampled
// statistics: the proxies are already on disk for pruning, so planning
// costs microseconds and never reads a data column.

// zoneRanges summarizes a whole scan source (store or sharded dataset
// manifest) as one merged zone plus its row/batch/segment extents — the
// domain the planner scores clause selectivity against, and the bound
// the join coverage check verifies side tables span.
type zoneRanges struct {
	z                store.ZoneMap
	rows             int
	batchLo, batchHi uint32
	segs             int
}

// storeRanges merges a store's per-segment zones into one summary zone.
func storeRanges(st *store.Store) zoneRanges {
	segs := st.Segments()
	zr := zoneRanges{z: store.MergeZoneMaps(st.ZoneMaps()), segs: len(segs)}
	first := true
	for _, si := range segs {
		if si.Rows() == 0 {
			continue
		}
		zr.rows += si.Rows()
		if first || si.BatchLo < zr.batchLo {
			zr.batchLo = si.BatchLo
		}
		if first || si.BatchHi > zr.batchHi {
			zr.batchHi = si.BatchHi
		}
		first = false
	}
	return zr
}

// manifestRanges merges a dataset manifest's per-shard zones the same
// way, without opening a single shard.
func manifestRanges(shards []store.ShardInfo) zoneRanges {
	zs := make([]store.ZoneMap, len(shards))
	var zr zoneRanges
	first := true
	for i := range shards {
		si := &shards[i]
		zs[i] = si.Zone
		zr.segs += si.Segments
		if si.Rows == 0 {
			continue
		}
		zr.rows += si.Rows
		if first || si.BatchLo < zr.batchLo {
			zr.batchLo = si.BatchLo
		}
		if first || si.BatchHi > zr.batchHi {
			zr.batchHi = si.BatchHi
		}
		first = false
	}
	zr.z = store.MergeZoneMaps(zs)
	return zr
}

// clauseExec is one clause (conjunct or OR-group) ready to bind: the
// lowered, compiled leaves plus the display text and planner scores.
type clauseExec struct {
	leaves []compiled
	text   string
	sel    float64
	cost   float64
}

// prepared is a planned query: validated, join predicates lowered to base
// ID sets, clauses scored and permuted into execution order. It is
// read-only after prepare, so one prepared value can drive any number of
// concurrent scans.
type prepared struct {
	clauses     []clauseExec  // execution order
	planClauses []plan.Clause // written order (for EXPLAIN)
	order       []int         // execution position -> written position
	zr          zoneRanges
	// joinCols lists the joined attribute columns the query touches (in
	// predicates or group keys). A cached plan re-verifies side-table
	// coverage of these against the store it is about to scan: live-store
	// views share one plan-cache generation while their open tail grows,
	// so the tail may hold IDs the prepare-time coverage check never saw.
	joinCols []Column
}

// prepareStore plans a query against a store.
func prepareStore(st *store.Store, q *Query) (*prepared, error) {
	return prepareQuery(q, storeRanges(st))
}

// prepareDataset plans a query against a sharded dataset's manifest.
func prepareDataset(d *store.Dataset, q *Query) (*prepared, error) {
	return prepareQuery(q, manifestRanges(d.Manifest().Shards))
}

// prepareQuery validates, lowers, scores and orders the query's clauses.
func prepareQuery(q *Query, zr zoneRanges) (*prepared, error) {
	if err := q.validate(); err != nil {
		return nil, err
	}
	var joinCols []Column
	for _, g := range q.groupKeys() {
		if col := g.groupCol(); col != ColNone {
			if err := q.Tables.coverage(col, &zr); err != nil {
				return nil, err
			}
			joinCols = append(joinCols, col)
		}
	}

	// Gather clauses in written order: conjuncts first, then OR-groups —
	// the same order Text() renders.
	raw := make([][]Predicate, 0, len(q.Where)+len(q.Or))
	for i := range q.Where {
		raw = append(raw, q.Where[i:i+1])
	}
	raw = append(raw, q.Or...)

	ces := make([]clauseExec, len(raw))
	pcs := make([]plan.Clause, len(raw))
	for i, leaves := range raw {
		lowered := make([]Predicate, len(leaves))
		texts := make([]string, len(leaves))
		for j := range leaves {
			p := leaves[j]
			if p.Col.joinBase() != ColNone {
				if err := q.Tables.coverage(p.Col, &zr); err != nil {
					return nil, err
				}
				joinCols = append(joinCols, p.Col)
			}
			lp, err := lowerPredicate(p, q.Tables)
			if err != nil {
				return nil, err
			}
			lowered[j] = lp
			texts[j] = p.String()
		}
		text := strings.Join(texts, " or ")
		if len(texts) > 1 {
			text = "(" + text + ")"
		}
		var sel, cost float64
		for j := range lowered {
			sel += leafSelectivity(&lowered[j], &zr)
			cost += leafCost(&lowered[j])
		}
		sel = min(sel, 1)
		ces[i] = clauseExec{leaves: compile(lowered), text: text, sel: sel, cost: cost}
		pcs[i] = plan.Clause{Text: text, Selectivity: sel, Cost: cost, Leaves: len(lowered)}
	}

	var order []int
	if q.noReorder {
		order = make([]int, len(ces))
		for i := range order {
			order[i] = i
		}
	} else {
		order = plan.Order(pcs)
	}
	pr := &prepared{planClauses: pcs, order: order, zr: zr, joinCols: joinCols}
	pr.clauses = make([]clauseExec, len(order))
	for pos, idx := range order {
		pr.clauses[pos] = ces[idx]
	}
	return pr, nil
}

// leafSelectivity estimates the fraction of rows one lowered leaf keeps,
// from zone proxies alone: the overlap of the predicate's admissible
// values with the merged zone's value range (or distinct set). Uniformity
// is assumed — the point is ranking clauses, not estimating cardinality.
func leafSelectivity(p *Predicate, zr *zoneRanges) float64 {
	if zr.rows == 0 {
		return 0
	}
	if p.Col != ColTrust && p.Set == nil && p.Hi < p.Lo {
		return 0 // the canonical empty range keeps nothing
	}
	z := &zr.z
	switch p.Col {
	case ColBatch:
		if zr.batchHi == zr.batchLo {
			return 0
		}
		if p.Set != nil {
			return fracSet(p.Set, int64(zr.batchLo), int64(zr.batchHi-1), nil)
		}
		return fracRange(p.Lo, p.Hi, int64(zr.batchLo), int64(zr.batchHi-1))
	case ColTaskType:
		if p.Set != nil {
			return fracSet(p.Set, int64(z.TaskTypeMin), int64(z.TaskTypeMax), z.TaskTypes)
		}
		return fracRange(p.Lo, p.Hi, int64(z.TaskTypeMin), int64(z.TaskTypeMax))
	case ColItem:
		if p.Set != nil {
			return fracSet(p.Set, int64(z.ItemMin), int64(z.ItemMax), nil)
		}
		return fracRange(p.Lo, p.Hi, int64(z.ItemMin), int64(z.ItemMax))
	case ColWorker:
		if p.Set != nil {
			return fracSet(p.Set, int64(z.WorkerMin), int64(z.WorkerMax), nil)
		}
		return fracRange(p.Lo, p.Hi, int64(z.WorkerMin), int64(z.WorkerMax))
	case ColAnswer:
		if p.Set != nil {
			return fracSet(p.Set, int64(z.AnswerMin), int64(z.AnswerMax), z.Answers)
		}
		return fracRange(p.Lo, p.Hi, int64(z.AnswerMin), int64(z.AnswerMax))
	case ColStart:
		return fracRange(p.Lo, p.Hi, z.StartMin, z.StartMax)
	case ColEnd:
		return fracRange(p.Lo, p.Hi, z.EndMin, z.EndMax)
	case ColDuration:
		return fracRange(p.Lo, p.Hi, z.EndMin-z.StartMax, z.EndMax-z.StartMin)
	case ColTrust:
		zlo, zhi := float64(z.TrustMin), float64(z.TrustMax)
		lo, hi := max(p.FLo, zlo), min(p.FHi, zhi)
		if hi < lo {
			return 0
		}
		if zhi == zlo {
			return 1
		}
		return (hi - lo) / (zhi - zlo)
	}
	return 1
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

// leafCost scores one leaf's per-row kernel expense, coarsely: plain
// range compares are the unit, time compares cost a hair more (wider
// loads), trust floats more still, set membership depends on whether the
// span admits the bitset fast path, and the duration reconstruction
// reads two columns.
func leafCost(p *Predicate) float64 {
	switch {
	case p.Col == ColDuration:
		return 1.6
	case p.Col == ColTrust:
		return 1.2
	case p.Set != nil:
		if len(p.Set) > 0 && int64(p.Set[len(p.Set)-1])-int64(p.Set[0]) < setBitsetMaxSpan {
			return 1.3
		}
		return 1.6
	case p.Col.isTime():
		return 1.1
	}
	return 1.0
}

// shardPruned reports whether a shard's merged zone proves some clause
// can match no row in it: clause semantics over the same leaf test the
// segment binder uses, so manifest-level pruning stays consistent with
// OR-groups and lowered join predicates.
func shardPruned(pr *prepared, z *store.ZoneMap, si store.SegmentInfo) bool {
	for ci := range pr.clauses {
		cl := &pr.clauses[ci]
		alive := false
		for li := range cl.leaves {
			if !leafDisjoint(&cl.leaves[li], z, si) {
				alive = true
				break
			}
		}
		if !alive {
			return true
		}
	}
	return false
}

// kernelName names a kernel kind for the EXPLAIN histogram.
func kernelName(k predKind) string {
	switch k {
	case kU32:
		return "raw32"
	case kI64:
		return "raw64"
	case kF32:
		return "rawf32"
	case kRLE:
		return "rle"
	case kDict:
		return "dict"
	case kFOR32:
		return "for32"
	case kFOR64:
		return "for64"
	case kF32FOR:
		return "f32for"
	case kDur:
		return "dur"
	}
	return "all"
}

// buildPlan assembles the EXPLAIN value from a prepared query. Clauses
// are permuted into execution order (Plan.Clauses prints as the engine
// runs them); Order maps each execution slot back to the position the
// clause was written at.
func buildPlan(q *Query, pr *prepared, source string) *plan.Plan {
	ordered := make([]plan.Clause, len(pr.planClauses))
	for i, oi := range pr.order {
		ordered[i] = pr.planClauses[oi]
	}
	return &plan.Plan{
		Query:   q.Text(),
		Source:  source,
		Clauses: ordered,
		Order:   pr.order,
		Rows:    pr.zr.rows,
	}
}

// Explain plans the query against a store and reports the plan without
// scanning a row: the greedy clause order, per-segment prune counts, and
// the kernel histogram the bound clauses would run.
func Explain(st *store.Store, q Query) (*plan.Plan, error) {
	pr, err := prepareStore(st, &q)
	if err != nil {
		return nil, err
	}
	return explainBind(st, &q, pr), nil
}

// explainBind binds the prepared clauses to every segment, tallying
// pruned segments and kernel choices — planning work only, no scan.
func explainBind(st *store.Store, q *Query, pr *prepared) *plan.Plan {
	pl := buildPlan(q, pr, "store")
	segs := st.Segments()
	zones := st.ZoneMaps()
	encs := st.SegmentEncodings()
	resd := st.Residency()
	raw := &rawCols{st: st}
	kernels := map[string]int{}
	for i, si := range segs {
		if si.Rows() == 0 {
			pl.Seg.Pruned++
			continue
		}
		var enc *store.SegmentEnc
		if len(encs) == len(segs) {
			enc = &encs[i]
		}
		sb, skip := bindSegment(pr, &zones[i], si, enc, resd, raw)
		if skip {
			pl.Seg.Pruned++
			continue
		}
		pl.Seg.Segments++
		for ci := range sb.clauses {
			for li := range sb.clauses[ci].leaves {
				kernels[kernelName(sb.clauses[ci].leaves[li].sp.kind)]++
			}
		}
	}
	if len(kernels) > 0 {
		pl.Seg.Kernels = kernels
	}
	return pl
}

// ExplainDataset plans the query against a sharded dataset from its
// manifest alone: shard-level prune counts are exact (the same clause
// test RunDatasetContext applies), segment totals come from the manifest, and
// no shard is opened — so no kernel histogram.
func ExplainDataset(d *store.Dataset, q Query) (*plan.Plan, error) {
	pr, err := prepareDataset(d, &q)
	if err != nil {
		return nil, err
	}
	pl := buildPlan(&q, pr, "dataset")
	man := d.Manifest()
	for i := range man.Shards {
		si := &man.Shards[i]
		shape := store.SegmentInfo{RowLo: 0, RowHi: si.Rows, BatchLo: si.BatchLo, BatchHi: si.BatchHi}
		if si.Rows == 0 || shardPruned(pr, &si.Zone, shape) {
			pl.Shards.Pruned++
			pl.Seg.Pruned += si.Segments
			continue
		}
		pl.Shards.Segments++
		pl.Seg.Segments += si.Segments
	}
	return pl, nil
}

// cachedPlan is one plan-cache entry: the immutable prepared clauses plus
// the EXPLAIN value built at first planning.
type cachedPlan struct {
	pr *prepared
	pl *plan.Plan
}

// Planner wraps the planning pipeline with an LRU plan cache keyed by
// (store generation, tables generation, canonical query text), so a hot
// query — a dashboard refresh, a CLI loop — pays parsing, lowering,
// scoring, ordering and segment binding once.
//
// Generations, not addresses: an earlier version keyed on %p of the
// store and tables, but a GC'd store's address can be recycled by a new
// store, silently serving it a plan scored against (and EXPLAIN-bound
// to) a store that no longer exists — and, conversely, a live server
// handing out a fresh view pointer per query could never hit. A
// generation is process-monotonic and never reused, so a rebuilt store
// at a recycled address always misses; live-store views share one
// generation per sealed-segment set, so hot plans keep hitting while
// only the open tail grows. The cached prepared value holds no store
// references (its clauses are lowered against the immutable side
// tables), so a hit is safe against any store carrying the generation;
// side-table coverage of joined columns is re-verified per run because
// a view's open tail may hold IDs prepare-time coverage never saw.
// Unversioned stores or tables (generation zero) bypass the cache and
// plan fresh every time.
type Planner struct {
	cache *plan.Cache

	// hits and misses count cache outcomes (uncacheable lookups count as
	// misses); the serve layer surfaces them in /stats.
	hits, misses atomic.Int64
}

// NewPlanner builds a planner with an LRU cache of the given capacity.
func NewPlanner(entries int) *Planner {
	return &Planner{cache: plan.NewCache(entries)}
}

// CacheStats reports the planner's cumulative cache hits and misses.
func (pn *Planner) CacheStats() (hits, misses int64) {
	return pn.hits.Load(), pn.misses.Load()
}

// cacheKey builds the plan-cache key, or reports the lookup uncacheable
// when the store or tables carry no generation.
func cacheKey(st *store.Store, q *Query) (string, bool) {
	sg := st.Generation()
	if sg == 0 {
		return "", false
	}
	var tg uint64
	if q.Tables != nil {
		if tg = q.Tables.Generation(); tg == 0 {
			return "", false
		}
	}
	return fmt.Sprintf("g%d|t%d|%s", sg, tg, q.Text()), true
}

// recheckJoinCoverage re-verifies side-table coverage for a cached plan
// against the store actually being scanned. Cheap — zone merging over
// the segment summaries, no data column is touched — and only runs for
// queries that join.
func recheckJoinCoverage(pr *prepared, st *store.Store, q *Query) error {
	if len(pr.joinCols) == 0 {
		return nil
	}
	zr := storeRanges(st)
	for _, col := range pr.joinCols {
		if err := q.Tables.coverage(col, &zr); err != nil {
			return err
		}
	}
	return nil
}

func (pn *Planner) lookup(st *store.Store, q *Query) (*cachedPlan, error) {
	key, cacheable := cacheKey(st, q)
	if cacheable {
		if v, ok := pn.cache.Get(key); ok {
			cp := v.(*cachedPlan)
			if err := recheckJoinCoverage(cp.pr, st, q); err != nil {
				return nil, err
			}
			pn.hits.Add(1)
			return cp, nil
		}
	}
	pn.misses.Add(1)
	pr, err := prepareStore(st, q)
	if err != nil {
		return nil, err
	}
	cp := &cachedPlan{pr: pr, pl: explainBind(st, q, pr)}
	if cacheable {
		pn.cache.Put(key, cp)
	}
	return cp, nil
}

// RunContext executes the query through the plan cache: a hit skips
// validation, lowering, scoring and ordering and goes straight to the
// scan. Cancellation and budgets follow the package-level RunContext
// contract. Limits are deliberately not part of the cache key (they never
// change the plan), so callers with different budgets share hot plans.
func (pn *Planner) RunContext(ctx context.Context, st *store.Store, q Query) (*Result, error) {
	cp, err := pn.lookup(st, &q)
	if err != nil {
		return nil, err
	}
	gov, stop := newGovernor(ctx, q.Limits)
	defer stop()
	res := &Result{}
	partials, tasks, err := scanStore(gov.ctx, st, &q, cp.pr, q.Workers, gov, &res.Stats)
	if err != nil {
		return nil, err
	}
	if err := mergeFinalize(res, &q, tasks, partials, gov); err != nil {
		return nil, err
	}
	return res, nil
}

// Explain returns the cached plan when present (marked Cached) and plans
// cold otherwise.
func (pn *Planner) Explain(st *store.Store, q Query) (*plan.Plan, error) {
	if key, ok := cacheKey(st, &q); ok {
		if v, ok := pn.cache.Get(key); ok {
			pn.hits.Add(1)
			pl := *v.(*cachedPlan).pl
			pl.Cached = true
			return &pl, nil
		}
	}
	cp, err := pn.lookup(st, &q)
	if err != nil {
		return nil, err
	}
	return cp.pl, nil
}
