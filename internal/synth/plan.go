package synth

import (
	"math"

	"crowdscope/internal/model"
	"crowdscope/internal/par"
	"crowdscope/internal/rng"
	"crowdscope/internal/store"
)

// The generation pipeline splits the old single-threaded materialize loop
// into two phases around the one piece of genuinely shared mutable state,
// the worker-day quota pools:
//
//   plan     — prep (parallel): per sampled batch, size the batch and draw
//              every slot's pickup time from a per-batch split stream;
//              assign (sequential): walk batches in canonical order and
//              draw a worker per slot from the shared pools.
//   render   — (parallel): shard the planned batches into contiguous
//              batch-ID intervals (cut by row count, see Config.shards),
//              render instance rows into one
//              store.Builder per shard from per-batch split streams, seal,
//              and Assemble the segments in canonical batch order.
//
// Every random draw comes either from a stream consumed in a fixed
// sequential order (assign) or from a per-batch stream seeded independently
// of the shard layout (prep, render), so the produced log is row-for-row
// identical for any Config.Parallelism.

// batchPlan carries one sampled batch through the pipeline.
type batchPlan struct {
	id         uint32
	taskType   uint32
	q          float64 // per-answer deviation probability
	renderSeed uint64
	items, red int

	// slotStart is the drawn start time per (item, rep) slot, item-major;
	// filled by prep, consumed and released by assign.
	slotStart []int64

	// Assigned instances, parallel arrays in row order.
	item   []uint32
	worker []uint32
	start  []int64
	learn  []float64 // nil unless the learning extension is on
}

// segmentTargetRows is the default rows-per-segment of a generated store
// (the value serve's CompactMaxRows merges live segments up to).
const segmentTargetRows = 1 << 18

// shards resolves how many segments (at least one) the planned rows
// render into. The layout is a function of the data, never of the host:
// by default one segment per segmentTargetRows rows; an explicit
// Parallelism asks for that many segments. Either way the count is raised
// until every segment fits store.MaxSegmentRows — shardCuts overshoots an
// even share by less than one batch, so the share leaves maxBatch rows of
// headroom. It never affects the generated rows.
func (c Config) shards(rows, maxBatch int) int {
	n := c.Parallelism
	if n <= 0 {
		n = ceilDiv(rows, segmentTargetRows)
	}
	return max(1, n, ceilDiv(rows, max(1, store.MaxSegmentRows-maxBatch)))
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// mixSeed derives an independent per-batch stream seed from the phase base
// seed; one SplitMix64-style finalization decorrelates consecutive IDs
// before rng.New's own seeding chain.
func mixSeed(base, id, salt uint64) uint64 {
	x := base + id*0x9E3779B97F4A7C15 + salt*0xD1342543DE82EF95
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// physicalItems scales a batch's declared item count to the materialized
// volume. Small scales must not collapse batches to a single item: the
// disagreement metric needs enough answer pairs per batch to resolve
// values near 0.1, so keep at least minItemsFloor items (never more than
// declared). This slightly inflates volume below ~10% scale and is a no-op
// at full scale.
func physicalItems(declared int32, scale float64) int {
	phys := int(math.Round(float64(declared) * scale))
	if floor := int(declared); floor > minItemsFloor {
		floor = minItemsFloor
		if phys < floor {
			phys = floor
		}
	} else if phys < floor {
		phys = floor
	}
	if phys < 1 {
		phys = 1
	}
	return phys
}

// prepPlans builds the plan skeletons for every sampled batch: sizes,
// deviation probabilities, per-batch stream seeds, and the pickup draw for
// every slot. Each batch draws from its own split stream, so the fan-out
// is deterministic regardless of how batches land on goroutines.
func prepPlans(d *Dataset, stubs []batchStub, sampled []bool, seedBase uint64) []*batchPlan {
	idx := make([]int, 0, SampledBatchesFull)
	for i := range stubs {
		if sampled[i] {
			idx = append(idx, i)
		}
	}
	plans := make([]*batchPlan, len(idx))

	par.EachShard(len(idx), d.Cfg.Parallelism, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			i := idx[k]
			stb := &stubs[i]
			tt := &d.TaskTypes[stb.taskType]
			bp := &batchPlan{
				id:         uint32(i),
				taskType:   stb.taskType,
				q:          deviationProb(tt.Ambiguity),
				renderSeed: mixSeed(seedBase, uint64(i), 2),
				items:      physicalItems(stb.declaredItems, d.Cfg.Scale),
				red:        int(stb.redundancy),
			}
			pickRand := rng.New(mixSeed(seedBase, uint64(i), 1))
			bp.slotStart = make([]int64, bp.items*bp.red)
			maxStart := model.Horizon.Unix() - 3600
			for s := range bp.slotStart {
				pickup := pickRand.LogNormalMedian(stb.pickupMedian, 1.1)
				start := stb.createdSec + int64(pickup)
				// The observation window closes at the horizon;
				// instances that would start beyond it are picked up at
				// the very end instead (the real dataset likewise only
				// contains observed work).
				if start > maxStart {
					start = maxStart
				}
				bp.slotStart[s] = start
			}
			plans[k] = bp
		}
	})
	return plans
}

// assignWorkers is the sequential heart of the plan phase: it walks the
// slots in canonical (batch, item, rep) order and draws a worker active on
// each slot's day from the shared quota pools. Each instance first has its
// pickup delay (when a worker starts it), then picks a worker who is
// active on that day — matching how real pickup works: a batch created
// today may be picked up weeks later by whoever is around then.
func assignWorkers(r *rng.Rand, d *Dataset, pools *dayPools, plans []*batchPlan, spend float64) {
	if d.Cfg.LearningGamma > 0 {
		d.experience = make([]float64, len(d.Workers))
	}
	var chosen []uint32
	for _, bp := range plans {
		n := len(bp.slotStart)
		bp.item = make([]uint32, 0, n)
		bp.worker = make([]uint32, 0, n)
		bp.start = make([]int64, 0, n)
		if d.experience != nil {
			bp.learn = make([]float64, 0, n)
		}
		for item := 0; item < bp.items; item++ {
			chosen = chosen[:0]
			for rep := 0; rep < bp.red; rep++ {
				start := bp.slotStart[item*bp.red+rep]
				day := model.DayOfUnix(start)
				wid, ok := pools.drawOne(r, day, chosen, spend)
				if !ok {
					continue
				}
				chosen = append(chosen, wid)
				bp.item = append(bp.item, uint32(item))
				bp.worker = append(bp.worker, wid)
				bp.start = append(bp.start, start)
				if bp.learn != nil {
					bp.learn = append(bp.learn, d.learningFactor(wid))
				}
			}
		}
		bp.slotStart = nil // release the skeleton as soon as it's consumed
	}
}

// renderPlans is the parallel materialize phase: contiguous shards of
// planned batches render into per-shard segment builders, and the sealed
// segments merge — in canonical batch order — into the analysis store.
// Parallelism bounds the goroutines rendering them.
func renderPlans(d *Dataset, plans []*batchPlan, numBatches int) *store.Store {
	if len(plans) == 0 {
		return store.New(numBatches)
	}
	rows, maxBatch := 0, 0
	for _, bp := range plans {
		rows += len(bp.item)
		maxBatch = max(maxBatch, len(bp.item))
	}
	cuts := shardCuts(plans, min(d.Cfg.shards(rows, maxBatch), len(plans)))
	segs := make([]*store.Segment, len(cuts)-1)
	par.EachShard(len(segs), d.Cfg.Parallelism, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			batchLo := uint32(0)
			if k > 0 {
				batchLo = plans[cuts[k]].id
			}
			batchHi := uint32(numBatches)
			if k+2 < len(cuts) {
				batchHi = plans[cuts[k+1]].id
			}
			bld := store.NewBuilder(batchLo, batchHi)
			for _, bp := range plans[cuts[k]:cuts[k+1]] {
				renderBatch(d, bp, bld)
			}
			segs[k] = bld.Seal()
		}
	})
	st, err := store.Assemble(numBatches, segs)
	if err != nil {
		// Shard intervals are contiguous ascending by construction.
		panic("synth: segment assembly failed: " + err.Error())
	}
	return st
}

// shardCuts partitions plans into nsh contiguous groups of roughly equal
// instance counts; returns len nsh+1 ascending indexes with cuts[0]=0 and
// cuts[nsh]=len(plans).
func shardCuts(plans []*batchPlan, nsh int) []int {
	total := 0
	for _, bp := range plans {
		total += len(bp.item)
	}
	cuts := make([]int, 1, nsh+1)
	acc := 0
	for i, bp := range plans {
		if len(cuts) == nsh {
			break
		}
		acc += len(bp.item)
		if acc*nsh >= total*len(cuts) && i+1 < len(plans) {
			cuts = append(cuts, i+1)
		}
	}
	return append(cuts, len(plans))
}

// renderBatch writes one planned batch's instance rows. All draws come
// from the batch's own render stream, so batches render identically no
// matter which shard or goroutine hosts them.
func renderBatch(d *Dataset, bp *batchPlan, bld *store.Builder) {
	r := rng.New(bp.renderSeed)
	tt := &d.TaskTypes[bp.taskType]
	bld.BeginBatch(bp.id)
	for i := range bp.item {
		wid := bp.worker[i]
		w := &d.Workers[wid]

		dur := r.LogNormalMedian(tt.BaseTaskSecs*w.Speed, 0.5)
		if bp.learn != nil {
			dur *= bp.learn[i]
		}
		if dur < 1 {
			dur = 1
		}
		start := bp.start[i]

		ans := answerToken(bp.id, bp.item[i], 0)
		qi := bp.q * (0.5 + w.ErrRate*5)
		if qi > 0.95 {
			qi = 0.95
		}
		if r.Bool(qi) {
			ans = answerToken(bp.id, bp.item[i], 1+uint32(r.Intn(3)))
		}

		trust := clampFloat(w.TrustMean+0.025*r.NormFloat64(), 0, 1)

		bld.Append(model.Instance{
			Batch:    bp.id,
			TaskType: tt.ID,
			Item:     bp.item[i],
			Worker:   wid,
			Start:    start,
			End:      start + int64(dur),
			Trust:    float32(trust),
			Answer:   ans,
		})
	}
}
