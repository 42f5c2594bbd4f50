package query

import (
	"context"
	"fmt"
	"strings"
	"sync"
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
// manifest) as one merged zone plus its row and batch extents — the
// domain the planner scores clause selectivity against, and the bound
// the join coverage check verifies side tables span.
type zoneRanges struct {
	z                store.ZoneMap
	rows             int
	batchLo, batchHi uint32
}

// extend widens the extents over one segment or shard; empty ones
// contribute nothing.
func (zr *zoneRanges) extend(rows int, batchLo, batchHi uint32) {
	if rows == 0 {
		return
	}
	if zr.rows == 0 || batchLo < zr.batchLo {
		zr.batchLo = batchLo
	}
	if zr.rows == 0 || batchHi > zr.batchHi {
		zr.batchHi = batchHi
	}
	zr.rows += rows
}

// storeRanges merges a store's per-segment zones into one summary zone.
func storeRanges(st *store.Store) zoneRanges {
	zr := zoneRanges{z: store.MergeZoneMaps(st.ZoneMaps())}
	for _, si := range st.Segments() {
		zr.extend(si.Rows(), si.BatchLo, si.BatchHi)
	}
	return zr
}

// manifestRanges merges a dataset manifest's per-shard zones the same
// way, without opening a single shard.
func manifestRanges(shards []store.ShardInfo) zoneRanges {
	zs := make([]store.ZoneMap, len(shards))
	var zr zoneRanges
	for i := range shards {
		zs[i] = shards[i].Zone
		zr.extend(shards[i].Rows, shards[i].BatchLo, shards[i].BatchHi)
	}
	zr.z = store.MergeZoneMaps(zs)
	return zr
}

// prepared is a planned query: validated, join predicates lowered to base
// ID sets, clauses scored and permuted into execution order. It is
// read-only after prepare, so one prepared value can drive any number of
// concurrent scans.
type prepared struct {
	clauses     [][]compiled  // execution order; each clause's lowered OR-leaves
	planClauses []plan.Clause // written order (for EXPLAIN)
	order       []int         // execution position -> written position
	// joinCols lists the joined attribute columns the query touches (in
	// predicates or group keys). A cached plan re-verifies side-table
	// coverage of these against the store it is about to scan: live-store
	// views share one plan-cache generation while their open tail grows,
	// so the tail may hold IDs the prepare-time coverage check never saw.
	joinCols []Column
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

	ces := make([][]compiled, len(raw))
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
		ces[i] = compile(lowered)
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
	pr := &prepared{planClauses: pcs, order: order, joinCols: joinCols}
	pr.clauses = make([][]compiled, len(order))
	for pos, idx := range order {
		pr.clauses[pos] = ces[idx]
	}
	return pr, nil
}

// leafCost scores one leaf's per-row kernel expense, coarsely: plain
// range compares are the unit, time compares cost a hair more (wider
// loads), trust floats more still, set membership depends on whether the
// span admits the bitset fast path, and a duration leaf is priced the same
// whether the store binds its packed EndOff or its raw duration column, so
// the order does not depend on residency.
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

// shardPruned reports whether a shard's manifest entry proves some clause
// can match no row in it. A shard's merged zone is a segment-shaped
// summary of all its rows, so the clause semantics and the leaf test are
// the segment binder's own — manifest-level pruning stays consistent with
// OR-groups and lowered join predicates.
func shardPruned(pr *prepared, sh *store.ShardInfo) bool {
	if sh.Rows == 0 {
		return true
	}
	shape := store.SegmentInfo{RowLo: 0, RowHi: sh.Rows, BatchLo: sh.BatchLo, BatchHi: sh.BatchHi}
	for _, leaves := range pr.clauses {
		alive := false
		for li := range leaves {
			if !leafDisjoint(&leaves[li], &sh.Zone, shape) {
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

// kernelNames names each kernel kind for the EXPLAIN histogram.
var kernelNames = [...]string{
	kAll: "all", kU32: "raw32", kI64: "raw64", kF32: "rawf32", kRLE: "rle", kDict: "dict",
	kFOR32: "for32", kFOR64: "for64", kF32FOR: "f32for",
}

// buildPlan assembles the EXPLAIN value from a prepared query and the
// rows of the source it runs on. Clauses are permuted into execution order
// (Plan.Clauses prints as the engine runs them); Order maps each execution
// slot back to the position the clause was written at.
func buildPlan(q *Query, pr *prepared, source string, rows int) *plan.Plan {
	ordered := make([]plan.Clause, len(pr.planClauses))
	for i, oi := range pr.order {
		ordered[i] = pr.planClauses[oi]
	}
	return &plan.Plan{
		Query:   q.Text(),
		Source:  source,
		Clauses: ordered,
		Order:   pr.order,
		Rows:    rows,
	}
}

// explainStore binds the prepared clauses to every segment and granule
// exactly as a scan would, and tallies what was pruned and the kernel
// choices instead of scanning.
func explainStore(st *store.Store, q *Query, pr *prepared) *plan.Plan {
	pl := buildPlan(q, pr, "store", st.Len())
	bound, t := bindStore(st, pr, &rawCols{st: st})
	tallyBind(pl, bound, t)
	return pl
}

// tallyBind fills a store plan's segment and granule tallies and kernel
// histogram from one bind of its clauses.
func tallyBind(pl *plan.Plan, bound []segBound, t bindTally) {
	pl.Seg.Pruned = t.segsPruned
	pl.Seg.Segments = len(bound) - t.segsPruned
	pl.Gran = plan.GranuleSummary{Granules: t.granules - t.granPruned, Pruned: t.granPruned, Covered: t.granCovered}
	kernels := map[string]int{}
	for i := range bound {
		for _, leaves := range bound[i].clauses {
			for li := range leaves {
				kernels[kernelNames[leaves[li].kind]]++
			}
		}
	}
	if len(kernels) > 0 {
		pl.Seg.Kernels = kernels
	}
}

// cachedPlan is one plan-cache entry: the immutable prepared clauses plus
// the EXPLAIN value Planner.Explain serves, built on its first request.
type cachedPlan struct {
	pr      *prepared
	explain sync.Once
	pl      *plan.Plan
}

// Planner wraps the planning pipeline with an LRU plan cache keyed by
// (store generation, tables generation, canonical query text), so a hot
// query — a dashboard refresh, a CLI loop — pays validation, lowering,
// scoring and ordering once. The caller parses the text, and Exec binds
// the clauses to the store's segments on every run.
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
// side-table coverage of joined columns is re-verified on every hit —
// run or EXPLAIN — because a view's open tail may hold IDs prepare-time
// coverage never saw.
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

// lookup returns the query's plan — from the cache (hit) or prepared fresh
// and cached. A hit re-verifies join coverage against st, so a cached run
// and a cached EXPLAIN both get the refusal a fresh plan would.
func (pn *Planner) lookup(st *store.Store, q *Query) (_ *cachedPlan, hit bool, _ error) {
	key, cacheable := cacheKey(st, q)
	if cacheable {
		if v, ok := pn.cache.Get(key); ok {
			cp := v.(*cachedPlan)
			if err := recheckJoinCoverage(cp.pr, st, q); err != nil {
				return nil, false, err
			}
			pn.hits.Add(1)
			return cp, true, nil
		}
	}
	pn.misses.Add(1)
	pr, err := prepareQuery(q, storeRanges(st))
	if err != nil {
		return nil, false, err
	}
	cp := &cachedPlan{pr: pr}
	if cacheable {
		pn.cache.Put(key, cp)
	}
	return cp, false, nil
}

// planStore plans q against a store — through the planner's cache when
// opts carries one, afresh otherwise — and, with Explain, starts the plan
// as EXPLAIN prints it (marked Cached when the cache served it): Exec
// adds the tallies of the bind it runs, so they describe the store
// scanned even when the prepared query was cached for an older one.
func planStore(st *store.Store, q *Query, opts Options) (pr *prepared, pl *plan.Plan, err error) {
	hit := false
	if opts.Planner == nil {
		pr, err = prepareQuery(q, storeRanges(st))
	} else {
		var cp *cachedPlan
		if cp, hit, err = opts.Planner.lookup(st, q); err == nil {
			pr = cp.pr
		}
	}
	if err == nil && opts.Explain {
		pl = buildPlan(q, pr, "store", st.Len())
		pl.Cached = hit
	}
	return pr, pl, err
}

// RunContext is Exec through the plan cache, kept for crowdbench.
func (pn *Planner) RunContext(ctx context.Context, st *store.Store, q Query) (*Result, error) {
	return Exec(ctx, Source{Store: st}, q, Options{Planner: pn})
}

// Explain plans the query against a store without scanning a row: the
// greedy clause order, per-segment and per-granule prune counts, and the
// kernel histogram the bound clauses would run. A cache entry's plan is
// bound once, against the store of its first Explain, and served from
// then on (marked Cached); Exec with Options.Explain tallies the store it
// scans instead.
func (pn *Planner) Explain(st *store.Store, q Query) (*plan.Plan, error) {
	cp, hit, err := pn.lookup(st, &q)
	if err != nil {
		return nil, err
	}
	cp.explain.Do(func() { cp.pl = explainStore(st, &q, cp.pr) })
	pl := *cp.pl
	pl.Cached = hit
	return &pl, nil
}
