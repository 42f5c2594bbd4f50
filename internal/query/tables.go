package query

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"crowdscope/internal/model"
)

// SideTables carries the worker-attribute and batch-metadata tables a
// query joins instance rows against. The join is hash-build on the
// small side, streamed probe on the scan side — and because worker and
// batch IDs are dense, the "hash" degenerates into direct-indexed
// attribute arrays built once here: a predicate on worker.class becomes
// a set of worker IDs pushed down to the vectorized ColWorker kernels
// (and their zone maps), and a group-by on a joined attribute is one
// array probe per surviving row in the fold. No intermediate joined row
// set ever materializes.
type SideTables struct {
	// worker attributes, indexed by worker ID (dense).
	wSource, wCountry, wClass []int64
	// batch attributes, indexed by batch ID (dense).
	bItems, bRedundancy, bSampled, bWeek []int64

	// entity IDs present in each table, sorted ascending — the build
	// phase walks these (not the dense arrays, whose holes read as 0)
	// and its output set inherits their order, so lowering never sorts.
	wIDs, bIDs []uint32

	// bounds holds each attribute array's [min, max] (holes included), by
	// join column: the value domain of a group key on that attribute.
	bounds [ColBatchWeek + 1][2]int64

	// build-side memo: the tables are immutable once constructed, so a
	// lowered attribute predicate (its matching base-ID set) is reused
	// across plans — repeated planning never rescans the side tables.
	mu   sync.RWMutex
	memo map[string]Predicate

	// gen is the tables' process-monotonic identity, drawn at NewTables
	// and never reused; the plan cache keys on it instead of the tables'
	// address (which the allocator may recycle after a GC).
	gen uint64
}

// tablesGen is the process-wide SideTables generation counter; 0 is
// reserved for zero-value tables, which the planner refuses to cache.
var tablesGen atomic.Uint64

// Generation returns the tables' construction generation: non-zero and
// process-unique for tables built by NewTables, zero for zero-value
// tables.
func (t *SideTables) Generation() uint64 {
	if t == nil {
		return 0
	}
	return t.gen
}

// NewTables builds the join side tables from the inventory's worker and
// batch lists (synth.Generate/Inventory produce them; any source with
// dense IDs works). Rows referencing IDs beyond the tables are rejected
// at plan time, never probed blind.
func NewTables(workers []model.Worker, batches []model.Batch) *SideTables {
	t := &SideTables{gen: tablesGen.Add(1)}
	var maxW uint32
	for i := range workers {
		maxW = max(maxW, workers[i].ID)
	}
	if len(workers) > 0 {
		t.wSource = make([]int64, maxW+1)
		t.wCountry = make([]int64, maxW+1)
		t.wClass = make([]int64, maxW+1)
		t.wIDs = make([]uint32, len(workers))
		for i := range workers {
			w := &workers[i]
			t.wSource[w.ID] = int64(w.Source)
			t.wCountry[w.ID] = int64(w.Country)
			t.wClass[w.ID] = int64(w.Class)
			t.wIDs[i] = w.ID
		}
		t.wIDs = sortedUnique(t.wIDs)
	}
	var maxB uint32
	for i := range batches {
		maxB = max(maxB, batches[i].ID)
	}
	if len(batches) > 0 {
		t.bItems = make([]int64, maxB+1)
		t.bRedundancy = make([]int64, maxB+1)
		t.bSampled = make([]int64, maxB+1)
		t.bWeek = make([]int64, maxB+1)
		t.bIDs = make([]uint32, len(batches))
		for i := range batches {
			b := &batches[i]
			t.bItems[b.ID] = int64(b.Items)
			t.bRedundancy[b.ID] = int64(b.Redundancy)
			if b.Sampled {
				t.bSampled[b.ID] = 1
			}
			t.bWeek[b.ID] = int64(model.WeekIndex(b.CreatedAt))
			t.bIDs[i] = b.ID
		}
		t.bIDs = sortedUnique(t.bIDs)
	}
	for c := ColWorkerSource; c <= ColBatchWeek; c++ {
		if arr := t.attrArray(c); len(arr) > 0 {
			t.bounds[c] = [2]int64{slices.Min(arr), slices.Max(arr)}
		}
	}
	return t
}

// sortedUnique sorts ids ascending and drops duplicates in place.
func sortedUnique(ids []uint32) []uint32 {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	n := 0
	for i, v := range ids {
		if i == 0 || v != ids[n-1] {
			ids[n] = v
			n++
		}
	}
	return ids[:n]
}

// attrArray returns the dense attribute array a joined column probes,
// nil when the column is not a join column.
func (t *SideTables) attrArray(c Column) []int64 {
	if t == nil {
		return nil
	}
	switch c {
	case ColWorkerSource:
		return t.wSource
	case ColWorkerCountry:
		return t.wCountry
	case ColWorkerClass:
		return t.wClass
	case ColBatchItems:
		return t.bItems
	case ColBatchRedundancy:
		return t.bRedundancy
	case ColBatchSampled:
		return t.bSampled
	case ColBatchWeek:
		return t.bWeek
	}
	return nil
}

// matchesInt64 evaluates a join predicate against one attribute value.
func (p *Predicate) matchesInt64(v int64) bool {
	if p.Set != nil {
		if v < 0 || v > math.MaxUint32 {
			return false
		}
		u := uint32(v)
		i := sort.Search(len(p.Set), func(i int) bool { return p.Set[i] >= u })
		return i < len(p.Set) && p.Set[i] == u
	}
	return v >= p.Lo && v <= p.Hi
}

// lowerPredicate is the join's build phase: a predicate on a joined
// attribute column scans the small side table once and becomes a set
// predicate over the base ID column (ColWorker or ColBatch), which then
// flows through the existing zone pruning and vectorized set kernels
// like any hand-written ID set. Predicates on physical columns pass
// through unchanged. An attribute predicate matching no entity lowers
// to the canonical empty range, which every zone prunes.
//
// The walk follows the sorted ID list with the range check hoisted, so
// the output set is born sorted and unique — no In() re-sort — and the
// whole build stays microsecond-scale even at full batch-table size
// (planning is on the query's latency path; see BenchmarkPlan).
func lowerPredicate(p Predicate, tabs *SideTables) (Predicate, error) {
	base := p.Col.joinBase()
	if base == ColNone {
		return p, nil
	}
	if tabs == nil {
		return Predicate{}, fmt.Errorf("query: predicate on %s requires attribute tables (Query.Tables)", p.Col)
	}
	key := p.String()
	tabs.mu.RLock()
	lp, ok := tabs.memo[key]
	tabs.mu.RUnlock()
	if ok {
		return lp, nil
	}
	idList, side := tabs.wIDs, "worker"
	if base == ColBatch {
		idList, side = tabs.bIDs, "batch"
	}
	if len(idList) == 0 {
		return Predicate{}, fmt.Errorf("query: predicate on %s but the %s table is empty", p.Col, side)
	}
	arr := tabs.attrArray(p.Col)
	ids := make([]uint32, 0, len(idList))
	if p.Set == nil {
		lo, hi := p.Lo, p.Hi
		for _, id := range idList {
			if v := arr[id]; v >= lo && v <= hi {
				ids = append(ids, id)
			}
		}
	} else {
		for _, id := range idList {
			if p.matchesInt64(arr[id]) {
				ids = append(ids, id)
			}
		}
	}
	lp = Predicate{Col: base, Set: ids}
	if len(ids) == 0 {
		lp = Predicate{Col: base, Lo: 1, Hi: 0}
	}
	tabs.mu.Lock()
	if tabs.memo == nil {
		tabs.memo = make(map[string]Predicate)
	}
	tabs.memo[key] = lp
	tabs.mu.Unlock()
	return lp, nil
}

// coverage verifies the store's ID range fits the side tables before
// any probe: zone maps bound the actual IDs, so checking the merged
// zone once makes every later attr-array index in the fold safe.
func (t *SideTables) coverage(col Column, zr *zoneRanges) error {
	if t == nil {
		return fmt.Errorf("query: %s requires attribute tables (Query.Tables)", col)
	}
	if zr.rows == 0 {
		return nil
	}
	if col.joinBase() == ColWorker {
		if n := len(t.wClass); n == 0 || int(zr.z.WorkerMax) >= n {
			return fmt.Errorf("query: store holds worker IDs up to %d but the worker table covers %d", zr.z.WorkerMax, n)
		}
		return nil
	}
	if n := len(t.bItems); n == 0 || zr.batchHi > uint32(n) {
		return fmt.Errorf("query: store holds batch IDs up to %d but the batch table covers %d", int(zr.batchHi)-1, n)
	}
	return nil
}
