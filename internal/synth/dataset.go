package synth

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"crowdscope/internal/htmlgen"
	"crowdscope/internal/model"
	"crowdscope/internal/rng"
	"crowdscope/internal/store"
)

// InstancesFull is the full-scale sampled-instance volume (~27M,
// Section 2.2); planning constants derive from it.
const InstancesFull = 27e6

// minItemsFloor bounds how far scaling may shrink a batch's item count;
// see materializeBatch.
const minItemsFloor = 6

// Config parameterizes dataset generation.
type Config struct {
	// Seed makes the whole dataset reproducible.
	Seed uint64
	// Scale in (0,1] scales the materialized instance volume and worker
	// population; batch/task/source/country inventories stay full-size so
	// the structural distributions (cluster sizes, label mixes, arrival
	// shapes) are preserved. Scale 1 ≈ 27M instances and ~69k workers.
	Scale float64
	// LearningGamma enables the worker-learning extension (Section 7
	// names "worker learning" as future work): a worker's task time
	// shrinks with accumulated experience as (1 + done/learningHalf)^-γ.
	// Zero disables learning (the paper-faithful default).
	LearningGamma float64
	// Parallelism bounds the goroutine fan-out of the generation
	// pipeline's parallel phases (batch prep and segment rendering); zero
	// or negative means GOMAXPROCS, 1 forces the serial reference path.
	// The generated rows are identical for every value. A positive value
	// also sets the store's segment count (raised if a segment would
	// exceed store.MaxSegmentRows); the default derives the segment count
	// from the row count alone, so the layout — and a default snapshot's
	// bytes — never depend on the host.
	Parallelism int
}

// learningHalf is the experience count at which the learning factor
// reaches 2^-γ.
const learningHalf = 64.0

// Dataset is a complete synthetic marketplace: the inventory tables plus
// the columnar instance log for the sampled batches. It corresponds to
// what the marketplace shared with the authors (Section 2.3): full data
// for the sample, title/date metadata for the rest.
type Dataset struct {
	Cfg       Config
	Sources   []model.Source
	Countries []string
	Workers   []model.Worker
	TaskTypes []model.TaskType
	Batches   []model.Batch
	Store     *store.Store

	htmlSeed uint64
	// experience tracks per-worker completed instances when the
	// worker-learning extension is enabled.
	experience []float64
}

// Hash fingerprints the parts of the configuration that determine the
// generated data, for snapshot provenance: a reloaded instance log can be
// checked against the config a pipeline is about to analyze it under.
// Parallelism is deliberately excluded — it never changes the rows.
func (c Config) Hash() uint64 {
	h := fnv.New64a()
	binary.Write(h, binary.LittleEndian, c.Seed)
	binary.Write(h, binary.LittleEndian, c.Scale)
	binary.Write(h, binary.LittleEndian, c.LearningGamma)
	return h.Sum64()
}

// Generate builds a dataset from the configuration. Generation is
// deterministic in Config.
func Generate(cfg Config) *Dataset {
	d, stubs, sampled, matRand := newInventory(cfg)
	d.Store = materialize(matRand, d, stubs, sampled)
	observeWorkerActivity(d)
	return d
}

// Inventory regenerates only the deterministic inventory tables
// (sources, countries, workers, task types, batches) for the
// configuration, without materializing the instance log. This is what a
// query needs to join a snapshot or sharded dataset against worker and
// batch attributes: the tables depend only on Config, so any consumer
// holding the generation parameters can rebuild them in milliseconds.
// Workers lack the observed FirstDay/LastDay activity bounds (those
// come from the materialized log); the static attributes — source,
// country, engagement class — are exact.
func Inventory(cfg Config) *Dataset {
	d, _, _, _ := newInventory(cfg)
	return d
}

// Rehydrate rebuilds a dataset around an instance log restored from a
// snapshot: the inventory tables (sources, countries, workers, task
// types, batches) regenerate deterministically from the config — exactly
// as Generate builds them — and the given store stands in for the
// materialization phase. Snapshot provenance (when present) is the
// caller's first line of defense against a config mismatch; because a
// snapshot may be written without one, Rehydrate additionally refuses
// any store whose worker or batch IDs fall outside the regenerated
// inventory instead of letting downstream indexing panic. With a
// matching store the result is indistinguishable from Generate's.
func Rehydrate(cfg Config, st *store.Store) (*Dataset, error) {
	d, _, _, _ := newInventory(cfg)
	if st.NumBatches() > len(d.Batches) {
		return nil, fmt.Errorf("synth: snapshot holds %d batch ranges but seed %d / scale %g generates %d batches — was it written under a different config?",
			st.NumBatches(), cfg.Seed, cfg.Scale, len(d.Batches))
	}
	nw := uint32(len(d.Workers))
	nb := uint32(len(d.Batches))
	workers, batches := st.Workers(), st.Batches()
	for i := range workers {
		if workers[i] >= nw {
			return nil, fmt.Errorf("synth: snapshot row %d references worker %d but seed %d / scale %g generates only %d workers — was it written under a different config?",
				i, workers[i], cfg.Seed, cfg.Scale, nw)
		}
		if batches[i] >= nb {
			return nil, fmt.Errorf("synth: snapshot row %d references batch %d but seed %d / scale %g generates only %d batches — was it written under a different config?",
				i, batches[i], cfg.Seed, cfg.Scale, nb)
		}
	}
	d.Store = st
	observeWorkerActivity(d)
	return d, nil
}

// newInventory builds everything that precedes instance materialization.
// The rng.Split sequence must stay identical between callers: Split mixes
// the receiver's stream position, so inventory content depends on the
// order of these calls.
func newInventory(cfg Config) (*Dataset, []batchStub, []bool, *rng.Rand) {
	if cfg.Scale <= 0 || cfg.Scale > 1 {
		panic(fmt.Sprintf("synth: scale %v out of (0,1]", cfg.Scale))
	}
	root := rng.New(cfg.Seed)

	d := &Dataset{
		Cfg:       cfg,
		Sources:   BuildSources(),
		Countries: CountryNames(),
		htmlSeed:  cfg.Seed ^ 0xC0FFEE,
	}

	d.TaskTypes = BuildCatalog(root.Split(1))

	nWorkers := int(float64(NumWorkersFull) * cfg.Scale)
	if nWorkers < 300 {
		nWorkers = 300
	}
	d.Workers = BuildWorkers(root.Split(2), d.Sources, nWorkers)

	schedRand := root.Split(3)
	stubs, _ := buildSchedule(schedRand, d.TaskTypes)
	sampled := chooseSampled(root.Split(4), stubs, d.TaskTypes, SampledBatchesFull)

	d.Batches = make([]model.Batch, len(stubs))
	for i, st := range stubs {
		tt := &d.TaskTypes[st.taskType]
		d.Batches[i] = model.Batch{
			ID:         uint32(i),
			TaskType:   st.taskType,
			CreatedAt:  time.Unix(st.createdSec, 0).UTC(),
			Items:      st.declaredItems,
			Redundancy: st.redundancy,
			Sampled:    sampled[i],
			Title:      batchTitle(tt),
		}
	}
	return d, stubs, sampled, root.Split(5)
}

// batchTitle writes a short textual description like the one-sentence
// batch metadata in the real dataset.
func batchTitle(tt *model.TaskType) string {
	return fmt.Sprintf("%s task (%s on %s)", primaryGoal(tt.Goals).LongName(), tt.Operators.String(), tt.Data.String())
}

// BatchHTML renders the sample task page of a batch on demand; batches of
// the same task type render near-identical pages, as the clustering step
// requires. Only sampled batches expose HTML (the paper had HTML for the
// 12k sample only).
func (d *Dataset) BatchHTML(batchID uint32) (string, bool) {
	if int(batchID) >= len(d.Batches) {
		return "", false
	}
	b := &d.Batches[batchID]
	if !b.Sampled {
		return "", false
	}
	tt := d.TaskTypes[b.TaskType]
	return htmlgen.Render(tt, htmlgen.Options{
		Seed:     d.htmlSeed + uint64(tt.ID)*2654435761,
		BatchTag: fmt.Sprintf("%08x", batchID),
	}), true
}

// SampledBatchIDs returns the IDs of the fully visible batches.
func (d *Dataset) SampledBatchIDs() []uint32 {
	out := make([]uint32, 0, SampledBatchesFull)
	for i := range d.Batches {
		if d.Batches[i].Sampled {
			out = append(out, uint32(i))
		}
	}
	return out
}

// ObservedWorkers returns the workers that performed at least one sampled
// instance — the population every worker analysis runs on.
func (d *Dataset) ObservedWorkers() []model.Worker {
	out := make([]model.Worker, 0, len(d.Workers))
	for i := range d.Workers {
		if d.Workers[i].LastDay >= d.Workers[i].FirstDay && d.Workers[i].FirstDay >= 0 {
			out = append(out, d.Workers[i])
		}
	}
	return out
}

// materialize generates the instance rows for every sampled batch through
// the two-phase pipeline (see plan.go): a plan phase — parallel per-batch
// prep plus the sequential worker-day pool assignment — and a parallel
// render phase that fills per-shard segment builders and assembles them in
// canonical batch order.
func materialize(r *rng.Rand, d *Dataset, stubs []batchStub, sampled []bool) *store.Store {
	// Assignment pools: per-worker quota proportional to workload weight.
	quota := workloadWeights(r.Split(11), d.Workers)
	totalQuota := 0.0
	for _, q := range quota {
		totalQuota += q
	}
	plannedDraws := InstancesFull * d.Cfg.Scale
	spend := totalQuota / plannedDraws
	pools := newDayPools(d.Workers, quota)

	assignRand := r.Split(12)
	seedBase := r.Split(13).Uint64()

	plans := prepPlans(d, stubs, sampled, seedBase)
	assignWorkers(assignRand, d, pools, plans, spend)
	return renderPlans(d, plans, len(stubs))
}

// learningFactor returns the task-time multiplier for a worker's next
// instance and advances their experience counter.
func (d *Dataset) learningFactor(wid uint32) float64 {
	if d.experience == nil {
		return 1
	}
	done := d.experience[wid]
	d.experience[wid] = done + 1
	return math.Pow(1+done/learningHalf, -d.Cfg.LearningGamma)
}

// deviationProb inverts E[pair disagreement] = 1 - [(1-q)^2 + q^2/3] for
// q, clamping at the model's 0.75 maximum.
func deviationProb(d float64) float64 {
	if d <= 0 {
		return 0
	}
	if d >= 0.74 {
		d = 0.74
	}
	return 0.75 * (1 - math.Sqrt(1-4*d/3))
}

// answerToken encodes an answer as truth (alt=0) or one of three
// alternates per (batch,item).
func answerToken(batch, item, alt uint32) uint32 {
	h := batch*2654435761 + item*40503 + alt
	return h&0xFFFFFFF0 | alt
}

// observeWorkerActivity overwrites each worker's activity window with the
// observed first/last instance days; workers with no instances get an
// empty (invalid) window so ObservedWorkers excludes them.
func observeWorkerActivity(d *Dataset) {
	first := make([]int32, len(d.Workers))
	last := make([]int32, len(d.Workers))
	for i := range first {
		first[i] = math.MaxInt32
		last[i] = -1
	}
	starts := d.Store.Starts()
	workers := d.Store.Workers()
	for i, sec := range starts {
		day := model.DayOfUnix(sec)
		w := workers[i]
		if day < first[w] {
			first[w] = day
		}
		if day > last[w] {
			last[w] = day
		}
	}
	for i := range d.Workers {
		if last[i] < 0 {
			d.Workers[i].FirstDay, d.Workers[i].LastDay = -1, -2
		} else {
			d.Workers[i].FirstDay, d.Workers[i].LastDay = first[i], last[i]
		}
	}
}
