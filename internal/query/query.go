// Package query is a small composable analytical engine over the sealed
// segment store: typed conjunctive predicates evaluated vectorized into
// selection bitmaps, zone-map pruning that skips whole segments before a
// row is touched, and grouped aggregates (count, sum, mean, min, max,
// p50, distinct) keyed by batch, worker, task type, or time bucket.
//
// The paper's analyses are all column scans with predicates and group-bys
// over the instance log (arrivals per week, per-worker throughput,
// per-source trust); this package replaces the hand-rolled full scans
// those consumers each carried. Exec is the one entry point, for a store
// and a sharded dataset alike: it fans out over fixed row chunks via
// par.EachShardCtx and merges partials in chunk order, so results are
// invariant for every Workers value; the Sum contract below makes that
// invariance exact even for floating-point aggregates.
package query

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strings"

	"crowdscope/internal/par"
	"crowdscope/internal/query/plan"
	"crowdscope/internal/stats"
	"crowdscope/internal/store"
)

// Column identifies one store column in predicates and distinct counts.
type Column uint8

// The queryable columns. ColNone is the zero value so an unset optional
// column slot (Query.Distinct, an unfilled Predicate) reads as "none".
const (
	ColNone Column = iota
	ColBatch
	ColTaskType
	ColItem
	ColWorker
	ColStart
	ColEnd
	ColTrust
	ColAnswer
	// ColDuration is the virtual End-Start column (seconds); predicates
	// on it scan both raw time columns.
	ColDuration
	// Joined worker-attribute columns: predicates and group keys on
	// these probe the worker table in Query.Tables through the row's
	// worker ID.
	ColWorkerSource
	ColWorkerCountry
	ColWorkerClass
	// Joined batch-metadata columns, probed through the row's batch ID.
	ColBatchItems
	ColBatchRedundancy
	ColBatchSampled
	ColBatchWeek
)

var columnNames = map[Column]string{
	ColNone: "none", ColBatch: "batch", ColTaskType: "tasktype", ColItem: "item",
	ColWorker: "worker", ColStart: "start", ColEnd: "end", ColTrust: "trust", ColAnswer: "answer",
	ColDuration: "duration", ColWorkerSource: "worker.source", ColWorkerCountry: "worker.country",
	ColWorkerClass: "worker.class", ColBatchItems: "batch.items", ColBatchRedundancy: "batch.redundancy",
	ColBatchSampled: "batch.sampled", ColBatchWeek: "batch.week",
}

// String names the column as the predicate syntax spells it.
func (c Column) String() string {
	if n, ok := columnNames[c]; ok {
		return n
	}
	return fmt.Sprintf("column(%d)", uint8(c))
}

// isU32 reports whether the column holds uint32 values.
func (c Column) isU32() bool {
	switch c {
	case ColBatch, ColTaskType, ColItem, ColWorker, ColAnswer:
		return true
	}
	return false
}

// isTime reports whether the column holds int64 unix seconds.
func (c Column) isTime() bool { return c == ColStart || c == ColEnd }

// joinBase returns the physical ID column a joined attribute column
// probes through (ColWorker or ColBatch), or ColNone for physical
// columns.
func (c Column) joinBase() Column {
	switch c {
	case ColWorkerSource, ColWorkerCountry, ColWorkerClass:
		return ColWorker
	case ColBatchItems, ColBatchRedundancy, ColBatchSampled, ColBatchWeek:
		return ColBatch
	}
	return ColNone
}

// A Predicate constrains one column; a query's predicates are conjunctive.
// Integer and time columns match Lo <= v <= Hi (inclusive bounds) unless
// Set is non-nil, in which case v must be a member; ColTrust matches
// FLo <= v <= FHi. Use the constructors — they normalize the half-open
// and equality forms into this representation.
type Predicate struct {
	Col      Column
	Lo, Hi   int64
	FLo, FHi float64
	Set      []uint32 // sorted ascending, deduped
}

// Eq matches rows whose integer column equals v.
func Eq(col Column, v uint32) Predicate {
	return Predicate{Col: col, Lo: int64(v), Hi: int64(v)}
}

// In matches rows whose integer column is one of vs.
func In(col Column, vs ...uint32) Predicate {
	set := append([]uint32(nil), vs...)
	sort.Slice(set, func(i, j int) bool { return set[i] < set[j] })
	n := 0
	for i, v := range set {
		if i == 0 || v != set[n-1] {
			set[n] = v
			n++
		}
	}
	return Predicate{Col: col, Set: set[:n]}
}

// Range matches rows with lo <= v < hi (the natural half-open form for
// time windows) on an integer or time column.
func Range(col Column, lo, hi int64) Predicate {
	if hi == math.MinInt64 {
		// hi-1 would wrap to MaxInt64 and match everything above lo; an
		// empty half-open range matches nothing.
		return Predicate{Col: col, Lo: 1, Hi: 0}
	}
	return normalizeInt(Predicate{Col: col, Lo: lo, Hi: hi - 1})
}

// normalizeInt canonicalizes integer bounds: uint32 columns clamp to the
// value range (so every predicate String() renders reparses), and any
// inverted interval becomes the canonical empty [1, 0].
func normalizeInt(p Predicate) Predicate {
	if p.Col.isU32() && p.Set == nil {
		p.Lo = max(p.Lo, 0)
		p.Hi = min(p.Hi, math.MaxUint32)
	}
	if p.Hi < p.Lo {
		p.Lo, p.Hi = 1, 0
	}
	return p
}

// TrustRange matches rows with lo <= trust <= hi (inclusive).
func TrustRange(lo, hi float64) Predicate {
	return Predicate{Col: ColTrust, FLo: lo, FHi: hi}
}

// GroupBy selects the grouping key.
type GroupBy uint8

const (
	// GroupNone aggregates everything into one group with key 0.
	GroupNone GroupBy = iota
	// GroupBatch keys by batch ID.
	GroupBatch
	// GroupWorker keys by worker ID.
	GroupWorker
	// GroupTaskType keys by task type.
	GroupTaskType
	// GroupWeek keys by the week index of the start time (pre-epoch
	// rows land in key -1).
	GroupWeek
	// GroupDay keys by the day index of the start time.
	GroupDay
	// Joined-attribute groupings: the key is an attribute probed from
	// Query.Tables through the row's worker or batch ID.
	GroupWorkerSource
	GroupWorkerCountry
	GroupWorkerClass
	GroupBatchWeek
)

var groupNames = map[GroupBy]string{
	GroupNone: "none", GroupBatch: "batch", GroupWorker: "worker",
	GroupTaskType: "tasktype", GroupWeek: "week", GroupDay: "day",
	GroupWorkerSource: "worker.source", GroupWorkerCountry: "worker.country",
	GroupWorkerClass: "worker.class", GroupBatchWeek: "batch.week",
}

// String names the grouping as the CLI spells it.
func (g GroupBy) String() string {
	if n, ok := groupNames[g]; ok {
		return n
	}
	return fmt.Sprintf("group(%d)", uint8(g))
}

// Value selects the column the numeric aggregates run over.
type Value uint8

const (
	// ValueNone aggregates counts only.
	ValueNone Value = iota
	// ValueDuration aggregates End-Start seconds.
	ValueDuration
	// ValueTrust aggregates the trust score.
	ValueTrust
	// ValueStart aggregates the start time in unix seconds (min/max give
	// a group's covered span).
	ValueStart
)

var valueNames = map[Value]string{
	ValueNone: "count", ValueDuration: "duration", ValueTrust: "trust", ValueStart: "start",
}

// String names the value column as the CLI spells it.
func (v Value) String() string {
	if n, ok := valueNames[v]; ok {
		return n
	}
	return fmt.Sprintf("value(%d)", uint8(v))
}

// A Query selects rows with conjunctive predicates and aggregates them
// into groups.
type Query struct {
	// Where is the conjunctive predicate list; empty selects every row.
	Where []Predicate
	// Or holds disjunctive clauses ANDed with Where: each inner slice is
	// an OR-group of predicates, at least one of which must match. The
	// group evaluates as a bitmap-OR over the same vectorized kernels the
	// conjuncts use.
	Or [][]Predicate
	// GroupBys keys the aggregation: no key (one group, key 0), one key,
	// or two keys, the second of which lands in Group.Key2.
	GroupBys []GroupBy
	// Value picks the column Sum/Min/Max/P50 run over; ValueNone keeps
	// only counts.
	Value Value
	// P50 additionally computes each group's median Value. It buffers the
	// matching values, so enable it only when needed.
	P50 bool
	// Distinct, when not ColNone, counts each group's distinct values of
	// this uint32 column (e.g. distinct workers per week).
	Distinct Column
	// Workers bounds the goroutine fan-out; 0 or negative means
	// GOMAXPROCS, 1 runs serially. Results are identical for every value.
	Workers int
	// Tables provides the worker/batch attribute tables that predicates
	// and group keys on joined columns (worker.*, batch.*) probe into.
	// Queries touching only physical columns leave it nil.
	Tables *SideTables
	// noReorder pins clause execution to the written order, bypassing
	// the greedy planner — the test hook that lets the property suite
	// compare planned against unplanned execution.
	noReorder bool
}

// groupKeys resolves the effective grouping key list: GroupBys, or the
// single GroupNone key when it is empty.
func (q *Query) groupKeys() []GroupBy {
	if len(q.GroupBys) > 0 {
		return q.GroupBys
	}
	return []GroupBy{GroupNone}
}

// NeedsTables reports whether the query references a joined attribute
// column — in a predicate or a group key — and so requires Query.Tables
// to execute.
func (q *Query) NeedsTables() bool {
	for i := range q.Where {
		if q.Where[i].Col.joinBase() != ColNone {
			return true
		}
	}
	for _, g := range q.Or {
		for i := range g {
			if g[i].Col.joinBase() != ColNone {
				return true
			}
		}
	}
	for _, g := range q.groupKeys() {
		if g.groupCol() != ColNone {
			return true
		}
	}
	return false
}

// Group is one aggregation bucket. Unrequested aggregates are zero: Sum,
// Min, Max and P50 are 0 when Value is ValueNone (or P50 unset), Distinct
// is 0 when no distinct column was requested, Key2 is 0 unless the query
// grouped by two keys. Groups exist only for keys with at least one
// matching row.
type Group struct {
	Key      int64
	Key2     int64
	Count    int64
	Sum      float64
	Min, Max float64
	P50      float64
	Distinct int
}

// Mean returns Sum/Count.
func (g Group) Mean() float64 { return g.Sum / float64(g.Count) }

// Stats reports how much work the scan did — the zone-map pruning
// effectiveness in particular.
type Stats struct {
	// Segments is the store's segment count; SegmentsPruned of them were
	// skipped whole via zone maps (or because they were empty).
	Segments, SegmentsPruned int
	// Granules counts the granules of the unpruned segments that carry a
	// granule directory (sealed in this process or derived as a store
	// loads; see store.Granule); GranulesPruned of them were skipped via
	// their zones. Both are zero when no unpruned segment has one (a live
	// store's open tail never does).
	Granules, GranulesPruned int
	// RowsScanned counts the rows of unpruned granules (a segment without
	// a directory counts whole) — what the filter had to consider;
	// RowsMatched counts rows that passed every predicate.
	RowsScanned, RowsMatched int64
	// Shard coverage, filled for a dataset source only: every non-empty
	// shard is exactly one of opened (scanned), pruned (manifest zone
	// excluded it), or skipped (failed and left out by degraded mode — see
	// Options.SkipFailedShards). Skipped is always zero for a strict
	// query.
	ShardsOpened, ShardsPruned, ShardsSkipped int
}

// Result is a query's output: groups in ascending key order.
type Result struct {
	Groups []Group
	Stats  Stats
	// SkippedShards names the shards a degraded dataset query left out
	// (with the errors that sidelined them); empty for strict queries and
	// in-memory runs. A result with skipped shards covers a subset of the
	// data — callers presenting it must surface that.
	SkippedShards []SkippedShard
	// Plan is the plan the scan ran, filled when Options.Explain is set.
	Plan *plan.Plan
}

// Group returns the group with the given key, if present.
func (r *Result) Group(key int64) (Group, bool) {
	i := sort.Search(len(r.Groups), func(i int) bool { return r.Groups[i].Key >= key })
	if i < len(r.Groups) && r.Groups[i].Key == key {
		return r.Groups[i], true
	}
	return Group{}, false
}

// validatePred rejects one malformed predicate; i is its position inside
// its clause, for the error message.
func validatePred(p *Predicate, i int) error {
	switch {
	case p.Col == ColTrust:
		if p.Set != nil {
			return fmt.Errorf("predicate %d: set membership on trust", i)
		}
		if math.IsNaN(p.FLo) || math.IsNaN(p.FHi) {
			return fmt.Errorf("predicate %d: NaN trust bound", i)
		}
	case p.Col.isU32() || p.Col.isTime() || p.Col == ColDuration || p.Col.joinBase() != ColNone:
		if p.Set != nil {
			if p.Col.isTime() || p.Col == ColDuration {
				return fmt.Errorf("predicate %d: set membership on %s", i, p.Col)
			}
			if len(p.Set) == 0 {
				return fmt.Errorf("predicate %d: empty set", i)
			}
		}
	default:
		return fmt.Errorf("predicate %d: unknown column", i)
	}
	return nil
}

// validate rejects malformed queries before any scan work.
func (q *Query) validate() error {
	for i := range q.Where {
		if err := validatePred(&q.Where[i], i); err != nil {
			return fmt.Errorf("query: %w", err)
		}
	}
	for gi := range q.Or {
		if len(q.Or[gi]) == 0 {
			return fmt.Errorf("query: or-group %d is empty", gi)
		}
		for i := range q.Or[gi] {
			if err := validatePred(&q.Or[gi][i], i); err != nil {
				return fmt.Errorf("query: or-group %d: %w", gi, err)
			}
		}
	}
	if len(q.GroupBys) > 2 {
		return fmt.Errorf("query: at most two group keys (got %d)", len(q.GroupBys))
	}
	for _, g := range q.GroupBys {
		if _, ok := groupNames[g]; !ok {
			return fmt.Errorf("query: unknown group-by")
		}
		if g == GroupNone && len(q.GroupBys) > 1 {
			return fmt.Errorf("query: group key none inside a multi-key grouping")
		}
	}
	if _, ok := valueNames[q.Value]; !ok {
		return fmt.Errorf("query: unknown value column")
	}
	if q.P50 && q.Value == ValueNone {
		return fmt.Errorf("query: p50 requires a value column")
	}
	if q.Distinct != ColNone && !q.Distinct.isU32() {
		return fmt.Errorf("query: distinct over %s (want a uint32 column)", q.Distinct)
	}
	return nil
}

// ChunkRows is the fixed execution granularity: segments are scanned in
// row chunks of this size, and chunk partials merge in row order. The
// boundaries depend only on the store's segment layout — never on
// Workers — which is what makes floating-point Sums (trust) identical
// for every worker count: each chunk folds its rows in row order, and
// chunk sums fold in chunk order.
const ChunkRows = 1 << 16

// Source names what a query scans: exactly one of a store or a sharded
// dataset.
type Source struct {
	Store   *store.Store
	Dataset *store.Dataset
}

// Options are a caller's choices about how Exec runs a query; none of them
// changes what a successful run returns.
type Options struct {
	// Planner serves a store's plan from its cache (nil plans afresh). A
	// dataset is planned from its manifest every time.
	Planner *Planner
	// Explain fills Result.Plan with the plan the scan runs.
	Explain bool
	// SkipFailedShards runs a dataset query in degraded mode: a shard that
	// fails to open or read is left out, counted in Stats and named in
	// Result.SkippedShards. The default (strict) fails on the first shard
	// error, so a damaged dataset never silently reports partial aggregates.
	SkipFailedShards bool
}

// DatasetOptions is Options under the name crowdbench imports.
type DatasetOptions = Options

// Run is Exec over a store with default options, kept for crowdbench.
func Run(st *store.Store, q Query) (*Result, error) {
	return Exec(context.Background(), Source{Store: st}, q, Options{})
}

// RunDatasetContext is Exec over a dataset, kept for crowdbench.
func RunDatasetContext(ctx context.Context, d *store.Dataset, q Query, opts DatasetOptions) (*Result, error) {
	return Exec(ctx, Source{Dataset: d}, q, opts)
}

// Exec runs the query against src through one pipeline: plan against the
// source's merged zones (a dataset's manifest zones also prune whole
// shards); open the surviving shards, each loading only the columns the
// query reads; bind each part's segments and granules to kernels; scan
// every part's chunks in one fan-out, in shard order; merge the chunk
// partials in that order. Results are bit-identical for every Workers
// value, and a dataset's to those of the store assembled from it.
//
// Cancellation is cooperative and ctx is its one signal: the scan checks
// ctx between chunks (and between shard opens), so a query whose ctx is
// cancelled or past its deadline stops within one chunk of work per
// worker, with ctx.Err() and never a partial result — under
// SkipFailedShards too, which skips damaged shards, not interrupted ones.
// A caller that wants a wall-clock budget arms it on ctx.
func Exec(ctx context.Context, src Source, q Query, opts Options) (*Result, error) {
	res := &Result{}
	var pr *prepared
	var keep []int
	var err error
	switch {
	case src.Dataset == nil && src.Store != nil:
		pr, res.Plan, err = planStore(src.Store, &q, opts)
	case src.Dataset != nil && src.Store == nil:
		pr, keep, err = planDataset(src.Dataset, &q, opts.Explain, res)
	default:
		err = errors.New("query: the source must name exactly one of a store or a dataset")
	}
	if err != nil {
		return nil, err
	}

	var parts []*chunkCtx
	if src.Dataset != nil {
		parts, err = openShards(ctx, src.Dataset, keep, &q, pr, opts.SkipFailedShards, res)
	} else {
		cc, t := bindPart(src.Store, &q, pr)
		res.Stats.Segments = len(cc.segs)
		res.Stats.addPruned(t)
		parts = []*chunkCtx{cc}
	}
	var tasks []span
	var partials []partial
	if err == nil {
		tasks = chunkTasks(parts)
		partials, err = scanChunks(ctx, tasks, q.Workers)
	}
	if err != nil {
		return nil, err
	}
	mergeFinalize(res, &q, tasks, partials)
	return res, nil
}

// addPruned adds what one part's binding pruned.
func (s *Stats) addPruned(t bindTally) {
	s.SegmentsPruned += t.segsPruned
	s.Granules += t.granules
	s.GranulesPruned += t.granPruned
}

// span is one fixed-size scan chunk: rows [lo, hi) of segment seg of the
// part cc binds, rows of them in live granules. Chunk boundaries step from
// each segment's RowLo, so a dataset's per-shard chunk lists concatenate
// into the chunk order of the assembled store; a chunk with no live
// granule is no task, which drops it without reordering the rest.
type span struct {
	cc                *chunkCtx
	lo, hi, seg, rows int
}

// bindPart binds one store — the whole source or one opened shard — for
// the scan: zone-pruned per-segment and per-granule clause bindings, the
// group keys' probe sources and the fold columns. It returns what the
// binding pruned.
func bindPart(st *store.Store, q *Query, pr *prepared) (*chunkCtx, bindTally) {
	raw := &rawCols{st: st}
	bound, t := bindStore(st, pr, raw)
	return newChunkCtx(st, q, raw, bound), t
}

// chunkTasks lists the live chunks of every part, in part order.
func chunkTasks(parts []*chunkCtx) []span {
	var tasks []span
	for _, cc := range parts {
		for i, si := range cc.segs {
			for k, live := range cc.bound[i].live {
				if live != 0 {
					lo := si.RowLo + k*ChunkRows
					hi := min(lo+ChunkRows, si.RowHi)
					tasks = append(tasks, span{cc, lo, hi, i, liveRows(live, hi-lo)})
				}
			}
		}
	}
	return tasks
}

// scanChunks is the one scan loop: chunk fan-out across workers, one
// partial per chunk in task order. ctx is checked once per chunk — the
// cooperative cancellation point — and a fired ctx aborts the whole scan
// with its error; rows statistics are deferred to mergeFinalize.
func scanChunks(ctx context.Context, tasks []span, workers int) ([]partial, error) {
	partials := make([]partial, len(tasks))
	err := par.EachShardCtx(ctx, len(tasks), workers, func(ctx context.Context, lo, hi int) error {
		sc := scratchPool.Get().(*scratch)
		defer scratchPool.Put(sc)
		for i := lo; i < hi; i++ {
			// Between chunks, never inside one: the partial slots written so
			// far stay untouched on abort, and abort always surfaces as an
			// error, so merge determinism cannot be affected.
			if err := admitChunk(ctx); err != nil {
				return err
			}
			t := &tasks[i]
			var err error
			if partials[i], err = evalChunk(t.cc, t.seg, t.lo, t.hi, sc); err != nil {
				return err
			}
		}
		return nil
	})
	return partials, err
}

// newChunkCtx binds what every chunk of one store's scan shares: segment
// bindings and zones, the group keys' probe sources, and the fold-phase
// columns, fetched only when the query shape reads them.
func newChunkCtx(st *store.Store, q *Query, raw *rawCols, bound []segBound) *chunkCtx {
	cc := &chunkCtx{q: q, segs: st.Segments(), zones: st.ZoneMaps(), bound: bound}
	cc.resolveKeys(q, raw, q.Tables, cc.bindRuns(st, q))
	switch q.Value {
	case ValueDuration:
		cc.starts = raw.startCol()
		cc.ends = raw.endCol()
	case ValueStart:
		cc.starts = raw.startCol()
	case ValueTrust:
		cc.trusts = raw.trustCol()
	}
	if q.Distinct != ColNone {
		cc.distCol = raw.u32Col(q.Distinct)
	}
	return cc
}

// bindRuns fills cc.runs for a query grouped by task type or batch alone:
// each unpruned segment that has an encoding and stores that key as
// CodeRLE folds by its runs — on a live view its sealed segments, not its
// open tail. It reports whether any unpruned segment still folds by rows,
// and so needs the key column.
func (cc *chunkCtx) bindRuns(st *store.Store, q *Query) (byRows bool) {
	encs := st.SegmentEncodings()
	if len(q.GroupBys) != 1 || len(encs) == 0 {
		return true
	}
	col := func(enc *store.SegmentEnc) *store.EncodedU32 { return &enc.TaskType }
	switch q.GroupBys[0] {
	case GroupTaskType:
	case GroupBatch:
		col = func(enc *store.SegmentEnc) *store.EncodedU32 { return &enc.Batch }
	default:
		return true
	}
	cc.runs = make([]*store.EncodedU32, len(cc.segs))
	for i := range cc.segs {
		if cc.bound != nil && cc.bound[i].pruned {
			continue
		}
		if i < len(encs) && col(&encs[i]).Code == store.CodeRLE {
			cc.runs[i] = col(&encs[i])
			continue
		}
		byRows = true
	}
	return byRows
}

// gkey is the composite group key: one or two int64 keys (the second is
// zero for single-key queries).
type gkey [2]int64

// mergeFinalize folds chunk partials (in chunk order) into result groups
// in ascending key order and accumulates the row statistics. Groups get
// their slots in first-seen order (mergeSlots) and their aggregates fold
// into columnar accumulators; a key occupies at most one slot per
// partial, so each group folds its chunk subtotals in chunk order.
func mergeFinalize(res *Result, q *Query, tasks []span, partials []partial) {
	keys, order := mergeSlots(partials)
	if order == nil {
		order = keyOrder(keys)
	}
	var m cols
	m.grow(q.Value, len(keys))
	// The merged distinct sets are a bitset when every partial's is and
	// their common range, times the groups, stays small (newDistinctSets).
	dlo, dhi := int64(math.MaxInt64), int64(-1)
	for i := range partials {
		p := &partials[i]
		res.Stats.RowsScanned += int64(tasks[i].rows)
		res.Stats.RowsMatched += p.matched
		for s, g := range p.gid {
			m.count[g] += p.count[s]
			switch q.Value {
			case ValueNone:
				continue
			case ValueTrust:
				// A chunk sum starts from +0 and so is never -0: adding it
				// to the +0 identity yields it bit for bit.
				m.sumF[g] += p.sumF[s]
			default:
				m.sumI[g] += p.sumI[s]
			}
			m.min[g] = math.Min(m.min[g], p.min[s])
			m.max[g] = math.Max(m.max[g], p.max[s])
		}
		if d := &p.dist; d.words > 0 {
			dlo, dhi = min(dlo, int64(d.base)), max(dhi, int64(d.base)+int64(d.words)*64-1)
		} else if d.pairs != nil {
			dlo = -1 // a map partial: the merged sets are a map too
		}
	}
	ng := len(keys)

	// p50: one buffer holds every value, scattered by group in chunk and
	// row order; each group's median then partitions its stretch in place.
	var vals []float64
	var end []int64
	if q.P50 {
		end = make([]int64, ng)
		var total int64
		for g, n := range m.count {
			end[g] = total // the group's write cursor; its end once filled
			total += n
		}
		vals = p50Merged.get(int(total))[:total] // every element is written below
		for i := range partials {
			p := &partials[i]
			for j, s := range p.vslot {
				g := p.gid[s]
				vals[end[g]] = p.vals[j]
				end[g]++
			}
		}
		defer p50Merged.put(vals)
	}
	var distinct []int
	if q.Distinct != ColNone {
		dist := newDistinctSets(dlo, dhi, ng)
		dist.bits = make([]uint64, ng*dist.words)
		for i := range partials {
			dist.union(&partials[i].dist, partials[i].gid)
		}
		distinct = dist.sizes(ng)
	}

	res.Groups = make([]Group, ng)
	for i, g := range order {
		k := keys[g]
		out := Group{Key: k[0], Key2: k[1], Count: m.count[g]}
		if q.Value == ValueTrust {
			out.Sum, out.Min, out.Max = m.sumF[g], m.min[g], m.max[g]
		} else if q.Value != ValueNone {
			out.Sum, out.Min, out.Max = float64(m.sumI[g]), m.min[g], m.max[g]
		}
		if q.P50 {
			out.P50 = stats.MedianInPlace(vals[end[g]-m.count[g] : end[g]])
		}
		if q.Distinct != ColNone {
			out.Distinct = distinct[g]
		}
		res.Groups[i] = out
	}
}

// mergeSlots gives every partial's keys their merged slots (p.gid), in
// first-seen order, and returns the merged keys. Where the keys' composite
// domain spans at most denseMaxSlots, a key finds its slot in a pooled
// direct table at offset (k0-lo0)*span1 + (k1-lo1), and a bitset marks the
// offsets taken; walking those in ascending order then lists the slots in
// key order (returned as order) and clears both tables for the next merge.
// A wider domain goes through a keyIndex and leaves the order to keyOrder.
func mergeSlots(partials []partial) (keys []gkey, order []uint32) {
	lo, hi := gkey{math.MaxInt64, math.MaxInt64}, gkey{math.MinInt64, math.MinInt64}
	for i := range partials {
		for _, k := range partials[i].idx.keys {
			lo[0], hi[0] = min(lo[0], k[0]), max(hi[0], k[0])
			lo[1], hi[1] = min(lo[1], k[1]), max(hi[1], k[1])
		}
	}
	// A span that overflows wraps to 0 or past denseMaxSlots.
	span0, span1 := uint64(hi[0]-lo[0])+1, uint64(hi[1]-lo[1])+1
	if hi[0] < lo[0] || span0-1 >= denseMaxSlots || span1-1 >= denseMaxSlots || span0*span1 > denseMaxSlots {
		var idx keyIndex
		for i := range partials {
			p := &partials[i]
			p.gid = make([]uint32, len(p.idx.keys))
			for s, k := range p.idx.keys {
				p.gid[s] = idx.slot(k)
			}
		}
		return idx.keys, nil
	}
	// Both tables are all zero in the pool: every merge clears what it set.
	n := span0 * span1
	direct := mergeDirect.get(int(n))[:n]
	taken := mergeTaken.get(int(n+63) / 64)[:(n+63)/64]
	for i := range partials {
		p := &partials[i]
		p.gid = make([]uint32, len(p.idx.keys))
		for s, k := range p.idx.keys {
			off := uint64(k[0]-lo[0])*span1 + uint64(k[1]-lo[1])
			if direct[off] == 0 {
				keys = append(keys, k)
				direct[off] = uint32(len(keys))
				taken[off/64] |= 1 << (off % 64)
			}
			p.gid[s] = direct[off] - 1
		}
	}
	order = make([]uint32, 0, len(keys))
	for w, word := range taken {
		if word == 0 {
			continue
		}
		taken[w] = 0
		for ; word != 0; word &= word - 1 {
			off := w*64 + bits.TrailingZeros64(word)
			order = append(order, direct[off]-1)
			direct[off] = 0
		}
	}
	mergeDirect.put(direct)
	mergeTaken.put(taken)
	return keys, order
}

// keyOrder returns the slots of distinct keys in ascending key order, so
// groups are built in place rather than sorted: one sort of the slot
// permutation under cmpKeys. Only a merge whose keys span more than
// denseMaxSlots needs it; a narrower one reads the order off its table.
func keyOrder(keys []gkey) []uint32 {
	order := make([]uint32, len(keys))
	for i := range order {
		order[i] = uint32(i)
	}
	slices.SortFunc(order, func(a, b uint32) int { return cmpKeys(keys[a], keys[b]) })
	return order
}

// cmpKeys orders composite keys by their first key, then their second.
func cmpKeys(a, b gkey) int {
	if c := cmp.Compare(a[0], b[0]); c != 0 {
		return c
	}
	return cmp.Compare(a[1], b[1])
}

// Text renders the query in the canonical pipeline form the language
// parser accepts: clauses in their written order (conjuncts first, then
// OR-groups), then the group / value / p50 / distinct stages. It is the
// plan-cache key and what EXPLAIN echoes, so two queries with the same
// text are the same query — up to clause order, which the planner
// canonicalizes separately.
func (q *Query) Text() string {
	var sb strings.Builder
	clauses := make([]string, 0, len(q.Where)+len(q.Or))
	for i := range q.Where {
		clauses = append(clauses, q.Where[i].String())
	}
	for _, group := range q.Or {
		parts := make([]string, len(group))
		for i := range group {
			parts[i] = group[i].String()
		}
		s := strings.Join(parts, " or ")
		if len(group) > 1 && len(q.Where)+len(q.Or) > 1 {
			s = "(" + s + ")"
		}
		clauses = append(clauses, s)
	}
	if len(clauses) > 0 {
		sb.WriteString("where ")
		sb.WriteString(strings.Join(clauses, " and "))
	}
	var keys []string
	for _, g := range q.groupKeys() {
		if g != GroupNone {
			keys = append(keys, g.String())
		}
	}
	if len(keys) > 0 {
		if sb.Len() > 0 {
			sb.WriteString(" | ")
		}
		sb.WriteString("group ")
		sb.WriteString(strings.Join(keys, ", "))
	}
	if sb.Len() > 0 {
		sb.WriteString(" | ")
	}
	sb.WriteString("value ")
	sb.WriteString(q.Value.String())
	if q.P50 {
		sb.WriteString(" | p50")
	}
	if q.Distinct != ColNone {
		sb.WriteString(" | distinct ")
		sb.WriteString(q.Distinct.String())
	}
	return sb.String()
}
