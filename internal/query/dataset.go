package query

import (
	"context"

	"crowdscope/internal/par"
	"crowdscope/internal/query/plan"
	"crowdscope/internal/store"
)

// colSet maps a query column to its store column-set bit.
func colSet(c Column) store.ColumnSet {
	switch c {
	case ColBatch:
		return store.ColSetBatch
	case ColTaskType:
		return store.ColSetTaskType
	case ColItem:
		return store.ColSetItem
	case ColWorker:
		return store.ColSetWorker
	case ColStart:
		return store.ColSetStart
	case ColEnd:
		return store.ColSetEnd
	case ColDuration:
		return store.ColSetDuration
	case ColTrust:
		return store.ColSetTrust
	case ColAnswer:
		return store.ColSetAnswer
	}
	if base := c.joinBase(); base != ColNone {
		// A join predicate lowers to a set over its base ID column; only
		// that column is ever read from the shard.
		return colSet(base)
	}
	return 0
}

// neededColumns derives the exact column set a query touches: every
// predicate column (conjuncts and OR-leaves), each group key's backing
// column, the value's inputs, and the distinct column. This is what
// makes dataset scans selective — a count grouped by week with a
// time-window predicate reads Start and nothing else, and a duration
// predicate or value reads the duration column and neither time column.
func neededColumns(q *Query) store.ColumnSet {
	var need store.ColumnSet
	for i := range q.Where {
		need |= colSet(q.Where[i].Col)
	}
	for _, g := range q.Or {
		for i := range g {
			need |= colSet(g[i].Col)
		}
	}
	for _, g := range q.groupKeys() {
		switch g {
		case GroupWeek, GroupDay:
			need |= store.ColSetStart
		case GroupBatch, GroupBatchWeek:
			need |= store.ColSetBatch
		case GroupWorker, GroupWorkerSource, GroupWorkerCountry, GroupWorkerClass:
			need |= store.ColSetWorker
		case GroupTaskType:
			need |= store.ColSetTaskType
		}
	}
	switch q.Value {
	case ValueDuration:
		need |= store.ColSetDuration
	case ValueStart:
		need |= store.ColSetStart
	case ValueTrust:
		need |= store.ColSetTrust
	}
	if q.Distinct != ColNone {
		need |= colSet(q.Distinct)
	}
	return need
}

// SkippedShard names one shard a degraded query left out, and why.
type SkippedShard struct {
	Name string
	Err  error
}

// planDataset plans q against a dataset's manifest and prunes the shards
// no clause can match — they are never opened — counting them into res;
// it returns the surviving shards' indexes. With explain it fills
// res.Plan from the same pruning: no shard is opened to plan, so a
// dataset plan has no kernel histogram.
func planDataset(d *store.Dataset, q *Query, explain bool, res *Result) (*prepared, []int, error) {
	man := d.Manifest()
	zr := manifestRanges(man.Shards)
	pr, err := prepareQuery(q, zr)
	if err != nil {
		return nil, nil, err
	}
	var keep []int
	for i := range man.Shards {
		si := &man.Shards[i]
		res.Stats.Segments += si.Segments
		if shardPruned(pr, si) {
			res.Stats.SegmentsPruned += si.Segments
			res.Stats.ShardsPruned++
			continue
		}
		keep = append(keep, i)
	}
	if explain {
		res.Plan = buildPlan(q, pr, "dataset", zr.rows)
		res.Plan.Shards = plan.SegmentSummary{Segments: len(keep), Pruned: res.Stats.ShardsPruned}
		res.Plan.Seg = plan.SegmentSummary{Segments: res.Stats.Segments - res.Stats.SegmentsPruned, Pruned: res.Stats.SegmentsPruned}
	}
	return pr, keep, nil
}

// openShards opens the kept shards, each loading only the columns q
// touches (via the shard footer index), and binds them, in one fan-out
// across shards; it returns the bound shards in shard order. Segments
// were already counted from the manifest, so only the pruning tallies of
// the opened shards add in. Under skipFailed a shard that fails to open
// or load is recorded in res and left out; any other error, and every
// interruption, fails the query — a cancelled shard is not a damaged one.
func openShards(ctx context.Context, d *store.Dataset, keep []int, q *Query, pr *prepared, skipFailed bool, res *Result) ([]*chunkCtx, error) {
	need := neededColumns(q)
	type shardOut struct {
		cc  *chunkCtx
		t   bindTally
		err error
	}
	outs := make([]shardOut, len(keep))
	err := par.EachShardCtx(ctx, len(keep), q.Workers, func(ctx context.Context, lo, hi int) error {
		for k := lo; k < hi; k++ {
			if err := ctx.Err(); err != nil {
				// A sibling failed or the caller gave up: stop before
				// opening the next shard.
				return err
			}
			sh, err := d.Shard(keep[k])
			if err == nil {
				err = sh.EnsureColumns(need)
			}
			if err != nil {
				if skipFailed && !IsInterrupt(err) {
					outs[k].err = err
					continue
				}
				return err
			}
			outs[k].cc, outs[k].t = bindPart(sh.Store(), q, pr)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	parts := make([]*chunkCtx, 0, len(keep))
	for k, o := range outs {
		if o.err != nil {
			res.Stats.ShardsSkipped++
			res.SkippedShards = append(res.SkippedShards, SkippedShard{Name: d.Manifest().Shards[keep[k]].Name, Err: o.err})
			continue
		}
		res.Stats.ShardsOpened++
		res.Stats.addPruned(o.t)
		parts = append(parts, o.cc)
	}
	return parts, nil
}
