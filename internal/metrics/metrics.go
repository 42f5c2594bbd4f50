// Package metrics computes the paper's three task-effectiveness metrics
// (Section 4.1) from the instance log:
//
//   - disagreement — the average pairwise mismatch of worker answers per
//     item, the error proxy (no ground truth exists);
//   - task-time — the median seconds workers spend per instance, the cost
//     proxy (no payment data exists);
//   - pickup-time — the median delay from batch start to instance start,
//     the latency proxy (pickup dominates end-to-end turnaround).
package metrics

import (
	"math"
	"slices"

	"crowdscope/internal/par"
	"crowdscope/internal/stats"
	"crowdscope/internal/store"
)

// DisagreementPruneThreshold drops batches whose disagreement exceeds it
// (Section 4.1): very high-variance batches are dominated by subjective
// free-text answers and would swamp the objective signal.
const DisagreementPruneThreshold = 0.5

// Batch carries the metric values of one batch.
type Batch struct {
	// Disagreement in [0,1]; valid only when Pairs > 0.
	Disagreement float64
	// Pairs is the number of same-item answer pairs compared.
	Pairs int
	// TaskTime is the median instance duration in seconds.
	TaskTime float64
	// PickupTime is the median delay from the earliest instance start
	// (the paper's proxy for batch start) to each instance start.
	PickupTime float64
	// Instances is the number of rows the batch contributed.
	Instances int
}

// Valid reports whether the batch produced usable metrics.
func (b Batch) Valid() bool { return b.Instances > 0 }

// Pruned reports whether the disagreement pruning rule removes this batch
// from error analyses.
func (b Batch) Pruned() bool {
	return b.Pairs == 0 || b.Disagreement > DisagreementPruneThreshold
}

// Scratch carries the reusable buffers of the per-batch metrics kernel:
// duration and pickup arrays for the median selects and the run counters
// of the disagreement pass. A zero value is ready to use; reusing one
// across the batches of a scan chunk amortizes its allocations to zero.
type Scratch struct {
	durs, pickups []float64
	runItems      []uint32 // first item value of each run, in run order
	runCheck      []uint32 // sort buffer for the contiguity check
	runAns        []uint32 // sort buffer for long single-item runs
}

// ComputeBatch computes metrics for one batch from its store rows.
func ComputeBatch(st *store.Store, batchID uint32) Batch {
	var sc Scratch
	return sc.ComputeBatch(st, batchID)
}

// ComputeBatch computes metrics for one batch, reusing the scratch's
// buffers instead of allocating per batch.
func (sc *Scratch) ComputeBatch(st *store.Store, batchID uint32) Batch {
	lo, hi := st.BatchRange(batchID)
	return sc.computeRows(st, lo, hi)
}

// computeRows computes the metrics of one batch's rows [lo, hi).
func (sc *Scratch) computeRows(st *store.Store, lo, hi int) Batch {
	n := hi - lo
	if n == 0 {
		return Batch{}
	}
	starts := st.Starts()[lo:hi]
	secs := st.Durations()[lo:hi]
	items := st.Items()[lo:hi]
	answers := st.Answers()[lo:hi]

	// Fused first pass: durations and the earliest start in one scan.
	durs := grow(sc.durs, n)
	minStart := starts[0]
	for i := 0; i < n; i++ {
		durs[i] = float64(secs[i])
		if starts[i] < minStart {
			minStart = starts[i]
		}
	}
	pickups := grow(sc.pickups, n)
	for i := 0; i < n; i++ {
		pickups[i] = float64(starts[i] - minStart)
	}
	sc.durs, sc.pickups = durs, pickups

	agree, total := sc.disagreementCounts(items, answers)

	out := Batch{
		Pairs:      total,
		TaskTime:   stats.MedianInPlace(durs),
		PickupTime: stats.MedianInPlace(pickups),
		Instances:  n,
	}
	if total > 0 {
		out.Disagreement = 1 - float64(agree)/float64(total)
	} else {
		out.Disagreement = math.NaN()
	}
	return out
}

func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n, n+n/2)
	}
	return buf[:n]
}

// disagreementCounts returns (#agreeing pairs, #pairs) across all items
// of a batch. Generated data stores each item's rows contiguously, so the
// hot path counts pairs run by run without any map; if the run scan finds
// an item split across runs it falls back to the map-based grouping,
// which computes the same counts for arbitrary row orders.
func (sc *Scratch) disagreementCounts(items []uint32, answers []uint32) (agree, total int) {
	runItems := sc.runItems[:0]
	for i := 0; i < len(items); {
		j := i + 1
		for j < len(items) && items[j] == items[i] {
			j++
		}
		runItems = append(runItems, items[i])
		if k := j - i; k >= 2 {
			agree += sc.equalPairs(answers[i:j])
			total += k * (k - 1) / 2
		}
		i = j
	}
	sc.runItems = runItems
	if sc.itemRepeatsAcrossRuns() {
		return disagreementCountsByMap(items, answers)
	}
	return agree, total
}

// equalPairs counts the pairs of equal answers in one item's run. Runs
// are redundancy-sized (a handful of answers), where the quadratic scan
// beats any bookkeeping; long runs sort a scratch copy and sum
// multiplicities c*(c-1)/2 instead.
func (sc *Scratch) equalPairs(ans []uint32) int {
	eq := 0
	if len(ans) <= 16 {
		for i := 1; i < len(ans); i++ {
			for j := 0; j < i; j++ {
				if ans[j] == ans[i] {
					eq++
				}
			}
		}
		return eq
	}
	buf := append(sc.runAns[:0], ans...)
	sc.runAns = buf
	slices.Sort(buf)
	for i := 0; i < len(buf); {
		j := i + 1
		for j < len(buf) && buf[j] == buf[i] {
			j++
		}
		c := j - i
		eq += c * (c - 1) / 2
		i = j
	}
	return eq
}

// itemRepeatsAcrossRuns reports whether any item value started more than
// one run, i.e. the batch's rows are not grouped by item.
func (sc *Scratch) itemRepeatsAcrossRuns() bool {
	if len(sc.runItems) < 2 {
		return false
	}
	buf := append(sc.runCheck[:0], sc.runItems...)
	sc.runCheck = buf
	slices.Sort(buf)
	for i := 1; i < len(buf); i++ {
		if buf[i] == buf[i-1] {
			return true
		}
	}
	return false
}

// disagreementCountsByMap is the order-insensitive fallback (and the
// reference the run-based counter is tested against): group answers by
// item, then count equal pairs via answer multiplicities.
func disagreementCountsByMap(items []uint32, answers []uint32) (agree, total int) {
	byItem := make(map[uint32][]uint32, len(items)/3+1)
	for i, it := range items {
		byItem[it] = append(byItem[it], answers[i])
	}
	for _, ans := range byItem {
		k := len(ans)
		if k < 2 {
			continue
		}
		counts := make(map[uint32]int, k)
		for _, a := range ans {
			counts[a]++
		}
		for _, c := range counts {
			agree += c * (c - 1) / 2
		}
		total += k * (k - 1) / 2
	}
	return agree, total
}

// ComputeAll computes metrics for every batch with rows in the store.
// The result is indexed by batch ID. Contiguous runs of segments — already
// balanced by rows, and a batch never spans two — are processed in
// parallel; each run walks its segments' batch runs once and writes their
// batches, a disjoint slice of the result, through one reusable scratch.
func ComputeAll(st *store.Store) []Batch { return ComputeAllWorkers(st, 0) }

// ComputeAllWorkers is ComputeAll with an explicit goroutine bound:
// 0 means GOMAXPROCS, 1 the serial reference. The result is identical
// for every value.
func ComputeAllWorkers(st *store.Store, workers int) []Batch {
	out := make([]Batch, st.NumBatches())
	segs := st.Segments()
	par.EachShard(len(segs), workers, func(lo, hi int) {
		var sc Scratch
		for k := lo; k < hi; k++ {
			st.SegmentBatches(k, func(b uint32, rlo, rhi int) {
				out[b] = sc.computeRows(st, rlo, rhi)
			})
		}
	})
	return out
}

// ClusterMetrics reduces batch metrics to the cluster level by taking
// medians across the cluster's batches (Section 4.2's first step). Batches
// without valid values are skipped per metric.
type ClusterMetrics struct {
	Disagreement float64 // NaN when no batch has answer pairs
	TaskTime     float64
	PickupTime   float64
	Batches      int
}

// Reduce computes cluster-level metrics over the given batch IDs.
func Reduce(batchMetrics []Batch, ids []uint32) ClusterMetrics {
	var dis, tt, pt []float64
	n := 0
	for _, id := range ids {
		if int(id) >= len(batchMetrics) {
			continue
		}
		bm := batchMetrics[id]
		if !bm.Valid() {
			continue
		}
		n++
		if bm.Pairs > 0 && !math.IsNaN(bm.Disagreement) {
			dis = append(dis, bm.Disagreement)
		}
		tt = append(tt, bm.TaskTime)
		pt = append(pt, bm.PickupTime)
	}
	out := ClusterMetrics{Batches: n}
	if len(dis) > 0 {
		out.Disagreement = stats.Median(dis)
	} else {
		out.Disagreement = math.NaN()
	}
	out.TaskTime = stats.Median(tt)
	out.PickupTime = stats.Median(pt)
	return out
}
