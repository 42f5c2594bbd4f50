package query

import (
	"context"

	"crowdscope/internal/par"
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
	case ColTrust:
		return store.ColSetTrust
	case ColAnswer:
		return store.ColSetAnswer
	case ColDuration:
		return store.ColSetStart | store.ColSetEnd
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
// predicate reads the stored end-start offsets and neither time column
// (resolvePred filters them packed).
func neededColumns(q *Query) store.ColumnSet {
	var need store.ColumnSet
	leaf := func(p *Predicate) {
		if p.Col == ColDuration {
			need |= store.ColSetDuration
		} else {
			need |= colSet(p.Col)
		}
	}
	for i := range q.Where {
		leaf(&q.Where[i])
	}
	for _, g := range q.Or {
		for i := range g {
			leaf(&g[i])
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
		need |= store.ColSetStart | store.ColSetEnd
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

// DatasetOptions tune RunDatasetContext beyond the query itself.
type DatasetOptions struct {
	// SkipFailedShards runs the query in degraded mode: a shard that
	// fails to open or read is skipped instead of failing the whole
	// query, and the result is annotated — Stats counts the skip and
	// Result.SkippedShards names it, with the error that sidelined it.
	// The default (strict) fails on the first shard error, so a damaged
	// dataset can never silently report partial aggregates.
	SkipFailedShards bool
}

// SkippedShard names one shard a degraded query left out, and why.
type SkippedShard struct {
	Name string
	Err  error
}

// RunDatasetContext executes the query against a sharded dataset without
// assembling it: shards whose manifest zone cannot intersect the
// predicates are never opened, surviving shards load only the columns
// the query touches (via the shard footer index), and per-shard chunk
// partials concatenate in shard order before the usual chunk-order
// merge. See DatasetOptions for the degraded mode.
//
// Results are bit-identical to Run over the assembled store for every
// Workers value: chunk boundaries step from each segment's RowLo, which
// is the same relative position in a shard-local store as in the global
// one, group keys are global (batch intervals are preserved through
// sharding), and the merge folds the same partials in the same order.
//
// Cancellation and budgets are cooperative. One governor spans the whole
// run — the row budget and deadline are global across shards, and
// cancelling ctx stops every shard within one chunk of work.
// Interruptions (ctx errors, budget violations) are always fatal, even
// under SkipFailedShards: degraded mode tolerates damaged shards, not an
// exhausted budget — skipping cancelled shards would silently shrink the
// result's coverage.
func RunDatasetContext(ctx context.Context, d *store.Dataset, q Query, opts DatasetOptions) (*Result, error) {
	pr, err := prepareDataset(d, &q)
	if err != nil {
		return nil, err
	}
	man := d.Manifest()
	res := &Result{}

	// Manifest-level pruning: shards no clause can match are never opened.
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

	need := neededColumns(&q)
	type shardOut struct {
		partials []partial
		tasks    []span
		stats    Stats
		err      error
	}
	return execute(ctx, &q, res, func(gov *governor) ([]partial, []span, error) {
		outs := make([]shardOut, len(keep))
		err := par.EachShardCtx(gov.ctx, len(keep), q.Workers, func(ctx context.Context, lo, hi int) error {
			for k := lo; k < hi; k++ {
				if err := ctx.Err(); err != nil {
					// A sibling failed or the caller gave up: stop before
					// opening the next shard.
					return gov.interruption(ctx)
				}
				sh, err := d.Shard(keep[k])
				if err == nil {
					err = sh.EnsureColumns(need)
				}
				if err != nil {
					if opts.SkipFailedShards && !IsInterrupt(err) {
						outs[k].err = err
						continue
					}
					return err
				}
				// Scan serially inside the shard — the fan-out is across
				// shards — and keep only the pruning tallies: Segments was
				// already counted from the manifest. The shared governor makes
				// the deadline and row budget span every shard.
				var qs Stats
				partials, tasks, err := scanStore(ctx, sh.Store(), &q, pr, 1, gov, &qs)
				if err != nil {
					return err
				}
				outs[k] = shardOut{partials: partials, tasks: tasks, stats: qs}
			}
			return nil
		})
		if err != nil {
			return nil, nil, err
		}

		var partials []partial
		var tasks []span
		for k := range outs {
			if outs[k].err != nil {
				si := &man.Shards[keep[k]]
				res.Stats.ShardsSkipped++
				res.SkippedShards = append(res.SkippedShards, SkippedShard{Name: si.Name, Err: outs[k].err})
				continue
			}
			res.Stats.ShardsOpened++
			res.Stats.SegmentsPruned += outs[k].stats.SegmentsPruned
			res.Stats.Granules += outs[k].stats.Granules
			res.Stats.GranulesPruned += outs[k].stats.GranulesPruned
			partials = append(partials, outs[k].partials...)
			tasks = append(tasks, outs[k].tasks...)
		}
		return partials, tasks, nil
	})
}
