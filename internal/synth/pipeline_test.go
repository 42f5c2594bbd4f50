package synth

import (
	"bytes"
	"runtime"
	"testing"
	"testing/quick"

	"crowdscope/internal/rng"
	"crowdscope/internal/store"
)

// equalStores compares two stores column by column, element for element,
// including the batch range tables.
func equalStores(t *testing.T, label string, a, b *store.Store) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("%s: row counts differ: %d vs %d", label, a.Len(), b.Len())
	}
	if a.NumBatches() != b.NumBatches() {
		t.Fatalf("%s: batch counts differ: %d vs %d", label, a.NumBatches(), b.NumBatches())
	}
	check := func(col string, eq func(i int) bool) {
		for i := 0; i < a.Len(); i++ {
			if !eq(i) {
				t.Fatalf("%s: column %s differs at row %d: %+v vs %+v", label, col, i, a.Row(i), b.Row(i))
			}
		}
	}
	check("batch", func(i int) bool { return a.Batches()[i] == b.Batches()[i] })
	check("taskType", func(i int) bool { return a.TaskTypes()[i] == b.TaskTypes()[i] })
	check("item", func(i int) bool { return a.Items()[i] == b.Items()[i] })
	check("worker", func(i int) bool { return a.Workers()[i] == b.Workers()[i] })
	check("start", func(i int) bool { return a.Starts()[i] == b.Starts()[i] })
	check("end", func(i int) bool { return a.Ends()[i] == b.Ends()[i] })
	check("trust", func(i int) bool { return a.Trusts()[i] == b.Trusts()[i] })
	check("answer", func(i int) bool { return a.Answers()[i] == b.Answers()[i] })
	for bi := 0; bi < a.NumBatches(); bi++ {
		alo, ahi := a.BatchRange(uint32(bi))
		blo, bhi := b.BatchRange(uint32(bi))
		if alo != blo || ahi != bhi {
			t.Fatalf("%s: batch %d range [%d,%d) vs [%d,%d)", label, bi, alo, ahi, blo, bhi)
		}
	}
}

// TestPipelineSerialParallelIdentical is the pipeline's determinism
// property: for a fixed Config, the segmented parallel pipeline produces a
// store whose every column is element-for-element equal to the serial
// reference path (Parallelism: 1).
func TestPipelineSerialParallelIdentical(t *testing.T) {
	cfg := Config{Seed: 777, Scale: 0.004}
	serialCfg := cfg
	serialCfg.Parallelism = 1
	serial := Generate(serialCfg)
	for _, par := range []int{2, 3, 8} {
		parCfg := cfg
		parCfg.Parallelism = par
		parallel := Generate(parCfg)
		equalStores(t, "parallelism", serial.Store, parallel.Store)
		// Derived worker-activity windows must match too.
		for i := range serial.Workers {
			if serial.Workers[i] != parallel.Workers[i] {
				t.Fatalf("worker %d differs between serial and parallel paths", i)
			}
		}
	}
}

// TestPipelineSerialParallelIdenticalProperty drives the same equivalence
// over random seeds, including the learning extension, whose factors are
// planned sequentially and must survive the parallel render unchanged.
func TestPipelineSerialParallelIdenticalProperty(t *testing.T) {
	f := func(seed uint64, gammaOn bool) bool {
		cfg := Config{Seed: seed, Scale: 0.002}
		if gammaOn {
			cfg.LearningGamma = 0.25
		}
		serialCfg, parCfg := cfg, cfg
		serialCfg.Parallelism = 1
		parCfg.Parallelism = 5
		a, b := Generate(serialCfg), Generate(parCfg)
		if a.Store.Len() != b.Store.Len() {
			return false
		}
		for i := 0; i < a.Store.Len(); i++ {
			if a.Store.Row(i) != b.Store.Row(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 4}); err != nil {
		t.Fatal(err)
	}
}

// TestPipelineSegmentLayout: the generated store is genuinely segmented
// and structurally valid.
func TestPipelineSegmentLayout(t *testing.T) {
	cfg := Config{Seed: 31, Scale: 0.002, Parallelism: 4}
	d := Generate(cfg)
	if got := len(d.Store.Segments()); got != 4 {
		t.Fatalf("%d segments, want 4", got)
	}
	if err := d.Store.Validate(); err != nil {
		t.Fatalf("segmented store invalid: %v", err)
	}
	segs := d.Store.Segments()
	rows := 0
	for _, si := range segs {
		rows += si.Rows()
	}
	if rows != d.Store.Len() {
		t.Fatalf("segments cover %d of %d rows", rows, d.Store.Len())
	}
	// Shards are balanced by instance count: no segment should be empty
	// while another holds everything.
	for i, si := range segs {
		if si.Rows() == 0 {
			t.Errorf("segment %d is empty", i)
		}
	}
}

// TestPipelineParallelismDefaults: zero and negative parallelism fan out
// to GOMAXPROCS goroutines without affecting the data.
func TestPipelineParallelismDefaults(t *testing.T) {
	base := Generate(Config{Seed: 8, Scale: 0.002, Parallelism: 1})
	def := Generate(Config{Seed: 8, Scale: 0.002})
	neg := Generate(Config{Seed: 8, Scale: 0.002, Parallelism: -3})
	equalStores(t, "default", base.Store, def.Store)
	equalStores(t, "negative", base.Store, neg.Store)
}

// TestPipelineDefaultLayoutFromData: with Parallelism unset the segment
// layout — and so the default snapshot's bytes — is a function of the
// rows alone: one segment per segmentTargetRows, whatever GOMAXPROCS is.
func TestPipelineDefaultLayoutFromData(t *testing.T) {
	cfg := Config{Seed: 31, Scale: 0.02} // ~750k rows: three default segments
	snapshot := func(procs int) (int, []byte) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		d := Generate(cfg)
		var buf bytes.Buffer
		if _, err := d.Store.WriteTo(&buf); err != nil {
			t.Fatalf("GOMAXPROCS=%d: WriteTo: %v", procs, err)
		}
		if want := ceilDiv(d.Store.Len(), segmentTargetRows); len(d.Store.Segments()) != want {
			t.Fatalf("GOMAXPROCS=%d: %d segments for %d rows, want %d", procs, len(d.Store.Segments()), d.Store.Len(), want)
		}
		return len(d.Store.Segments()), buf.Bytes()
	}
	nseg, ref := snapshot(1)
	if nseg < 2 {
		t.Fatalf("fixture too small to tell layouts apart: %d segments", nseg)
	}
	for _, procs := range []int{2, 4} {
		if _, got := snapshot(procs); !bytes.Equal(got, ref) {
			t.Errorf("default snapshot at GOMAXPROCS=%d differs from GOMAXPROCS=1", procs)
		}
	}
}

// TestShardCutsRespectSegmentCap: at the paper's 27M rows no Parallelism
// value yields a segment above store.MaxSegmentRows — the rule that lets
// the store keep one snapshot layout. Plans are sized synthetically (row
// counts only, one shared backing array), so nothing is generated.
func TestShardCutsRespectSegmentCap(t *testing.T) {
	const total = 27_000_000
	r := rng.New(5)
	backing := make([]uint32, 400_000)
	var plans []*batchPlan
	for rows := 0; rows < total; {
		// Skewed batch sizes, a few of them very large.
		n := 1 + r.Intn(3000)
		if r.Intn(200) == 0 {
			n = 100_000 + r.Intn(300_000)
		}
		n = min(n, total-rows)
		plans = append(plans, &batchPlan{id: uint32(len(plans)), item: backing[:n]})
		rows += n
	}
	maxBatch := 0
	for _, bp := range plans {
		maxBatch = max(maxBatch, len(bp.item))
	}
	for _, par := range []int{0, 1, 2, 16} {
		nsh := Config{Parallelism: par}.shards(total, maxBatch)
		cuts := shardCuts(plans, nsh)
		if len(cuts)-1 != nsh {
			t.Errorf("Parallelism=%d: %d segments, want %d", par, len(cuts)-1, nsh)
		}
		covered, largest := 0, 0
		for k := 0; k+1 < len(cuts); k++ {
			rows := 0
			for _, bp := range plans[cuts[k]:cuts[k+1]] {
				rows += len(bp.item)
			}
			covered += rows
			largest = max(largest, rows)
		}
		if covered != total {
			t.Errorf("Parallelism=%d: segments cover %d of %d rows", par, covered, total)
		}
		if largest > store.MaxSegmentRows {
			t.Errorf("Parallelism=%d: largest of %d segments holds %d rows, cap %d", par, nsh, largest, store.MaxSegmentRows)
		}
		if par == 16 && nsh != 16 {
			t.Errorf("explicit Parallelism 16 resolved to %d segments", nsh)
		}
		if par == 0 && nsh != ceilDiv(total, segmentTargetRows) {
			t.Errorf("default resolved to %d segments, want %d", nsh, ceilDiv(total, segmentTargetRows))
		}
	}
}
