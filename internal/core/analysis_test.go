package core

import (
	"math"
	"reflect"
	"testing"

	"crowdscope/internal/cluster"
	"crowdscope/internal/corr"
	"crowdscope/internal/htmlfeat"
	"crowdscope/internal/metrics"
	"crowdscope/internal/model"
	"crowdscope/internal/rng"
	"crowdscope/internal/stats"
	"crowdscope/internal/synth"
)

// The integration analysis is expensive (clustering 12k pages); build it
// once at a smaller scale shared by all tests in this package.
var testAnalysis = New(synth.Generate(synth.Config{Seed: 1701, Scale: 0.02}), DefaultOptions())

func TestClusteringRecoversCatalog(t *testing.T) {
	a := testAnalysis
	// The clustering should land near the number of distinct sampled
	// tasks (~4-5k at this seed).
	sampledTypes := map[uint32]bool{}
	for _, bid := range a.SampledIDs {
		sampledTypes[a.DS.Batches[bid].TaskType] = true
	}
	got := a.Clustering.NumClusters()
	want := len(sampledTypes)
	if got < want*8/10 || got > want*12/10 {
		t.Errorf("clusters = %d, underlying types = %d", got, want)
	}
	// Cluster purity: members should overwhelmingly share a task type.
	impure := 0
	for _, members := range a.Clustering.Members {
		first := a.DS.Batches[a.Clustering.IDs[members[0]]].TaskType
		for _, m := range members[1:] {
			if a.DS.Batches[a.Clustering.IDs[m]].TaskType != first {
				impure++
				break
			}
		}
	}
	if frac := float64(impure) / float64(got); frac > 0.02 {
		t.Errorf("impure cluster fraction = %.3f", frac)
	}
}

func TestClusterTableComplete(t *testing.T) {
	a := testAnalysis
	if len(a.Clusters) != a.Clustering.NumClusters() {
		t.Fatalf("table rows %d != clusters %d", len(a.Clusters), a.Clustering.NumClusters())
	}
	totalBatches := 0
	for i := range a.Clusters {
		c := &a.Clusters[i]
		totalBatches += len(c.Batches)
		if c.Features.Words <= 0 {
			t.Fatalf("cluster %d has no extracted words", i)
		}
		if c.ItemsFeature <= 0 {
			t.Fatalf("cluster %d items feature %v", i, c.ItemsFeature)
		}
		if c.Metrics.Batches == 0 {
			t.Fatalf("cluster %d has no metric batches", i)
		}
	}
	if totalBatches != len(a.SampledIDs) {
		t.Fatalf("cluster table covers %d of %d sampled batches", totalBatches, len(a.SampledIDs))
	}
}

func TestStandardCorrelationsDirection(t *testing.T) {
	a := testAnalysis
	obs := a.Observations(true)
	results := corr.RunMatrix(obs, StandardSpecs())
	// Expected direction per experiment: +1 means bin2 (high/positive
	// feature) has the LARGER metric median.
	wantDir := map[[2]string]float64{
		{FeatWords, MetricDisagreement}:     -1, // more words → less disagreement
		{FeatItems, MetricDisagreement}:     -1,
		{FeatItems, MetricTaskTime}:         -1,
		{FeatItems, MetricPickupTime}:       +1,
		{FeatTextBoxes, MetricDisagreement}: +1,
		{FeatTextBoxes, MetricTaskTime}:     +1,
		{FeatExamples, MetricDisagreement}:  -1,
		{FeatExamples, MetricPickupTime}:    -1,
		{FeatImages, MetricTaskTime}:        -1,
		{FeatImages, MetricPickupTime}:      -1,
	}
	for _, r := range results {
		dir := wantDir[[2]string{r.Feature, r.Metric}]
		diff := r.Bin2.Median - r.Bin1.Median
		if dir > 0 && diff <= 0 {
			t.Errorf("%s vs %s: bin2 median %.4g not above bin1 %.4g", r.Feature, r.Metric, r.Bin2.Median, r.Bin1.Median)
		}
		if dir < 0 && diff >= 0 {
			t.Errorf("%s vs %s: bin2 median %.4g not below bin1 %.4g", r.Feature, r.Metric, r.Bin2.Median, r.Bin1.Median)
		}
	}
}

func TestStandardCorrelationsSignificant(t *testing.T) {
	a := testAnalysis
	obs := a.Observations(true)
	results := corr.RunMatrix(obs, StandardSpecs())
	insignificant := 0
	for _, r := range results {
		if !r.Significant() {
			insignificant++
			t.Logf("not significant: %s", r.String())
		}
	}
	// All ten paper effects should reach p<0.01 at this scale; allow one
	// marginal miss (the #examples experiments have only ~3% positive
	// clusters).
	if insignificant > 1 {
		t.Errorf("%d of %d standard effects not significant", insignificant, len(results))
	}
}

func TestTable1DisagreementMagnitudes(t *testing.T) {
	a := testAnalysis
	obs := a.Observations(true)
	results := corr.RunMatrix(obs, StandardSpecs())
	// Paper medians (Table 1): ratios matter more than absolutes.
	for _, r := range results {
		if r.Metric != MetricDisagreement {
			continue
		}
		ratio := r.Bin2.Median / r.Bin1.Median
		var wantRatio float64
		switch r.Feature {
		case FeatWords:
			wantRatio = 0.108 / 0.147
		case FeatItems:
			wantRatio = 0.086 / 0.169
		case FeatTextBoxes:
			wantRatio = 0.160 / 0.102
		case FeatExamples:
			wantRatio = 0.101 / 0.128
		default:
			continue
		}
		if ratio < wantRatio*0.55 || ratio > wantRatio*1.8 {
			t.Errorf("%s disagreement ratio = %.3f, paper %.3f", r.Feature, ratio, wantRatio)
		}
		// Absolute medians within a factor of ~2.5 of the paper's.
		if r.Bin1.Median < 0.03 || r.Bin1.Median > 0.45 {
			t.Errorf("%s bin1 median = %.3f far from paper range", r.Feature, r.Bin1.Median)
		}
	}
}

func TestTable2TaskTimeMagnitudes(t *testing.T) {
	a := testAnalysis
	obs := a.Observations(true)
	results := corr.RunMatrix(obs, StandardSpecs())
	for _, r := range results {
		if r.Metric != MetricTaskTime {
			continue
		}
		ratio := r.Bin2.Median / r.Bin1.Median
		var wantRatio float64
		switch r.Feature {
		case FeatItems:
			wantRatio = 136.0 / 230.0
		case FeatTextBoxes:
			wantRatio = 285.7 / 119.0
		case FeatImages:
			wantRatio = 129.0 / 183.6
		default:
			continue
		}
		if ratio < wantRatio*0.5 || ratio > wantRatio*2.0 {
			t.Errorf("%s task-time ratio = %.3f, paper %.3f", r.Feature, ratio, wantRatio)
		}
		// Medians in the right second-scale ballpark (paper: 119-286s).
		if r.Bin1.Median < 30 || r.Bin1.Median > 1200 {
			t.Errorf("%s task-time bin1 median = %.0fs out of ballpark", r.Feature, r.Bin1.Median)
		}
	}
}

func TestTable3PickupTimeMagnitudes(t *testing.T) {
	a := testAnalysis
	obs := a.Observations(true)
	results := corr.RunMatrix(obs, StandardSpecs())
	for _, r := range results {
		if r.Metric != MetricPickupTime {
			continue
		}
		ratio := r.Bin2.Median / r.Bin1.Median
		var wantRatio float64
		switch r.Feature {
		case FeatItems:
			wantRatio = 8132.0 / 4521.0
		case FeatExamples:
			wantRatio = 1353.0 / 6303.0
		case FeatImages:
			wantRatio = 2431.0 / 7838.0
		default:
			continue
		}
		if ratio < wantRatio*0.4 || ratio > wantRatio*2.5 {
			t.Errorf("%s pickup ratio = %.3f, paper %.3f", r.Feature, ratio, wantRatio)
		}
	}
}

func TestNullEffectsStayNull(t *testing.T) {
	a := testAnalysis
	obs := a.Observations(true)
	results := corr.RunMatrix(obs, NullSpecs())
	significant := 0
	for _, r := range results {
		if r.Significant() {
			significant++
			t.Logf("unexpectedly significant: %s", r.String())
		}
	}
	// The paper found none of these significant; tolerate one false
	// positive at p<0.01 over four tests.
	if significant > 1 {
		t.Errorf("%d of %d null effects flagged significant", significant, len(results))
	}
}

func TestPickupDominatesTaskTime(t *testing.T) {
	// Section 4.1/Figure 13: pickup-time is orders of magnitude above
	// task-time.
	a := testAnalysis
	var pickups, times []float64
	for i := range a.Clusters {
		m := a.Clusters[i].Metrics
		if !math.IsNaN(m.PickupTime) && !math.IsNaN(m.TaskTime) && m.TaskTime > 0 {
			pickups = append(pickups, m.PickupTime)
			times = append(times, m.TaskTime)
		}
	}
	var ratios []float64
	for i := range pickups {
		ratios = append(ratios, pickups[i]/times[i])
	}
	med := medianOf(ratios)
	if med < 5 {
		t.Errorf("median pickup/task-time ratio = %.1f, want ≫ 1", med)
	}
}

func TestLabelDistributions(t *testing.T) {
	a := testAnalysis
	ls := a.LabelDistributions()
	if ls.TotalInstances == 0 || ls.LabeledClusters == 0 {
		t.Fatal("no labeled instance volume")
	}
	// Figure 9: filter is the dominant operator (~33%), rate ~13%.
	filt := ls.OperatorShare(model.OpFilter)
	rate := ls.OperatorShare(model.OpRate)
	if filt < 0.18 || filt > 0.50 {
		t.Errorf("filter share = %.2f, want ~0.33", filt)
	}
	if rate < 0.06 || rate > 0.28 {
		t.Errorf("rate share = %.2f, want ~0.13", rate)
	}
	if filt <= rate {
		t.Error("filter should dominate rate")
	}
	// Text and image are the leading data types (~40%/26%).
	text := ls.DataShare(model.DataText)
	image := ls.DataShare(model.DataImage)
	if text < 0.25 || text > 0.60 {
		t.Errorf("text share = %.2f, want ~0.40", text)
	}
	if image < 0.12 || image > 0.40 {
		t.Errorf("image share = %.2f, want ~0.26", image)
	}
	for d := 0; d < model.NumDataTypes; d++ {
		dt := model.DataType(d)
		if dt == model.DataText || dt == model.DataImage || dt == model.DataOther {
			continue
		}
		if s := ls.DataShare(dt); s >= text {
			t.Errorf("%v share %.2f exceeds text", dt, s)
		}
	}
	// LU and T are heavyweight goals (~17%/13%).
	lu := ls.GoalShare(model.GoalLU)
	tr := ls.GoalShare(model.GoalT)
	if lu < 0.08 || lu > 0.35 {
		t.Errorf("LU share = %.2f, want ~0.17", lu)
	}
	if tr < 0.05 || tr > 0.28 {
		t.Errorf("T share = %.2f, want ~0.13", tr)
	}
}

func TestLabelConditionals(t *testing.T) {
	a := testAnalysis
	ls := a.LabelDistributions()
	// Figure 10b: transcription is extraction-dominated.
	opsT := ls.OpMixForGoal(model.GoalT)
	if opsT[model.OpExtract] < 30 {
		t.Errorf("extract share of T = %.1f%%, want dominant", opsT[model.OpExtract])
	}
	best := 0.0
	for _, v := range opsT {
		if v > best {
			best = v
		}
	}
	if opsT[model.OpExtract] != best {
		t.Error("extract should be T's top operator")
	}
	// Figure 10a: web data is prominent for SR (~37%) and ER (~24%).
	dataSR := ls.DataMixForGoal(model.GoalSR)
	if dataSR[model.DataWeb] < 15 {
		t.Errorf("web share of SR = %.1f%%, want ~37%%", dataSR[model.DataWeb])
	}
	dataER := ls.DataMixForGoal(model.GoalER)
	if dataER[model.DataWeb] < 8 {
		t.Errorf("web share of ER = %.1f%%, want ~24%%", dataER[model.DataWeb])
	}
	// Social media matters for SA (~13%).
	dataSA := ls.DataMixForGoal(model.GoalSA)
	if dataSA[model.DataSocial] < 4 {
		t.Errorf("social share of SA = %.1f%%, want ~13%%", dataSA[model.DataSocial])
	}
	// Row mixes are percentages.
	sum := 0.0
	for _, v := range ls.OpMixForGoal(model.GoalLU) {
		sum += v
	}
	if math.Abs(sum-100) > 1e-6 {
		t.Errorf("mix row sums to %v", sum)
	}
}

func TestTrendComplexDominates(t *testing.T) {
	a := testAnalysis
	tr := a.Trend()
	last := len(tr.Weeks) - 1
	// Figure 12a/12c: complex goals and non-text data outnumber simple
	// ones and grow faster.
	if tr.GoalComplexC[last] <= tr.GoalSimpleC[last] {
		t.Errorf("complex goals %v not above simple %v", tr.GoalComplexC[last], tr.GoalSimpleC[last])
	}
	if tr.DataComplex[last] <= tr.DataSimple[last] {
		t.Errorf("complex data %v not above simple %v", tr.DataComplex[last], tr.DataSimple[last])
	}
	// Figure 12b: operators are comparable (within ~2x).
	ratio := tr.OpComplex[last] / tr.OpSimple[last]
	if ratio < 0.5 || ratio > 2.5 {
		t.Errorf("operator complex/simple = %.2f, want comparable", ratio)
	}
	// Cumulative series must be non-decreasing.
	for w := 1; w < len(tr.Weeks); w++ {
		if tr.GoalComplexC[w] < tr.GoalComplexC[w-1] {
			t.Fatal("cumulative series decreased")
		}
	}
}

func TestWorkerTable(t *testing.T) {
	a := testAnalysis
	workers := a.WorkerTable()
	if len(workers) == 0 {
		t.Fatal("no workers")
	}
	// Sorted by descending tasks.
	for i := 1; i < len(workers); i++ {
		if workers[i].Tasks > workers[i-1].Tasks {
			t.Fatal("worker table not sorted")
		}
	}
	total := 0
	for i := range workers {
		w := &workers[i]
		total += w.Tasks
		if w.Tasks <= 0 {
			t.Fatal("worker with zero tasks in table")
		}
		if w.WorkingDays <= 0 || int32(w.WorkingDays) > w.Lifetime {
			t.Fatalf("worker %d: %d working days over lifetime %d", w.ID, w.WorkingDays, w.Lifetime)
		}
		if w.MeanTrust < 0 || w.MeanTrust > 1 {
			t.Fatalf("worker %d trust %v", w.ID, w.MeanTrust)
		}
	}
	if total != a.DS.Store.Len() {
		t.Errorf("worker tasks sum %d != %d rows", total, a.DS.Store.Len())
	}
	// Top-10% share (Section 5.2).
	loads := make([]float64, len(workers))
	for i := range workers {
		loads[i] = float64(workers[i].Tasks)
	}
	if share := stats.TopShare(loads, 0.10); share < 0.70 {
		t.Errorf("top-10%% share = %.2f", share)
	}
}

func TestSourceTable(t *testing.T) {
	a := testAnalysis
	workers := a.WorkerTable()
	sources := a.SourceTable(workers)
	if len(sources) == 0 {
		t.Fatal("no sources")
	}
	totTasks := 0
	for _, s := range sources {
		totTasks += s.Tasks
		if s.Workers <= 0 {
			t.Fatalf("source %s has no workers", s.Name)
		}
		if s.AvgTasksPerWorker <= 0 {
			t.Fatalf("source %s avg tasks %v", s.Name, s.AvgTasksPerWorker)
		}
	}
	if totTasks != a.DS.Store.Len() {
		t.Errorf("source tasks sum %d != %d", totTasks, a.DS.Store.Len())
	}
	// Sorted descending; top-10 carry ~95%.
	top := 0
	for i := 0; i < 10 && i < len(sources); i++ {
		top += sources[i].Tasks
	}
	if f := float64(top) / float64(totTasks); f < 0.85 {
		t.Errorf("top-10 source share = %.2f", f)
	}
}

func TestCountryTable(t *testing.T) {
	a := testAnalysis
	workers := a.WorkerTable()
	countries := a.CountryTable(workers)
	if len(countries) < 10 {
		t.Fatalf("only %d countries observed", len(countries))
	}
	if countries[0].Name != "United States" {
		t.Errorf("top country = %s, want United States", countries[0].Name)
	}
	total := 0
	for _, c := range countries {
		total += c.Workers
	}
	if total != len(workers) {
		t.Errorf("country workers %d != %d", total, len(workers))
	}
	top5 := 0
	for i := 0; i < 5 && i < len(countries); i++ {
		top5 += countries[i].Workers
	}
	if f := float64(top5) / float64(total); f < 0.35 || f > 0.75 {
		t.Errorf("top-5 country share = %.2f, want ~0.5", f)
	}
}

// TestSourceCountryTablesDeterministic: Figures 26–28 must not depend on
// map iteration order. Tied counts (common among small sources and
// countries) break by ID, so repeated calls return identical slices.
func TestSourceCountryTablesDeterministic(t *testing.T) {
	a := testAnalysis
	// Twelve single-task workers over three sources and four countries:
	// every source and every country ties.
	var workers []WorkerStats
	for i := 0; i < 12; i++ {
		workers = append(workers, WorkerStats{
			ID: uint32(i), Source: uint16(i % 3), Country: uint16(i % 4),
			Tasks: 1, MeanTrust: 0.5, MeanRelTime: 1,
		})
	}
	wantS, wantC := a.SourceTable(workers), a.CountryTable(workers)
	for i := range wantS {
		if wantS[i].Source != uint16(i) {
			t.Fatalf("tied sources not in ID order: %+v", wantS)
		}
	}
	for i := range wantC {
		if wantC[i].Country != uint16(i) {
			t.Fatalf("tied countries not in ID order: %+v", wantC)
		}
	}
	real := a.WorkerTable()
	realS, realC := a.SourceTable(real), a.CountryTable(real)
	for call := 0; call < 20; call++ {
		if !reflect.DeepEqual(a.SourceTable(workers), wantS) || !reflect.DeepEqual(a.CountryTable(workers), wantC) {
			t.Fatalf("call %d: tied tables changed order", call)
		}
		if !reflect.DeepEqual(a.SourceTable(real), realS) || !reflect.DeepEqual(a.CountryTable(real), realC) {
			t.Fatalf("call %d: tables over the generated workers changed order", call)
		}
	}
}

func TestDrillDownObservations(t *testing.T) {
	a := testAnalysis
	g := model.GoalLU
	obs := a.ObservationsWithLabels(&g, nil, nil)
	if len(obs) == 0 {
		t.Fatal("no LU observations")
	}
	all := a.Observations(true)
	if len(obs) >= len(all) {
		t.Error("drill down did not restrict")
	}
	op := model.OpGather
	obsOp := a.ObservationsWithLabels(nil, &op, nil)
	if len(obsOp) == 0 {
		t.Fatal("no gather observations")
	}
	// Figure 25d: examples reduce disagreement within LU. The positive
	// bin holds only a few percent of clusters at test scale, so compare
	// means (medians can tie exactly on the discrete small-batch grid).
	res := corr.RunMatrix(obs, []corr.Spec{{Feature: FeatExamples, Metric: MetricDisagreement, Kind: corr.SplitAtZero}})
	if res[0].Bin2.Count >= 5 && res[0].Bin2.Mean >= res[0].Bin1.Mean {
		t.Errorf("LU drill down: examples mean %.3f not below %.3f (n=%d)",
			res[0].Bin2.Mean, res[0].Bin1.Mean, res[0].Bin2.Count)
	}
}

// TestAnalysisSerialParallelIdentical is the analysis front end's
// determinism property, mirroring synth's
// TestPipelineSerialParallelIdentical: for a fixed dataset, the parallel
// page prep, signature build, metrics scan, and cluster-table build
// produce an Analysis identical to the Workers=1 serial reference —
// clustering, batch metrics (bit-equal floats, NaNs included), and every
// cluster row.
func TestAnalysisSerialParallelIdentical(t *testing.T) {
	ds := synth.Generate(synth.Config{Seed: 777, Scale: 0.002})
	serialOpts := DefaultOptions()
	serialOpts.Workers = 1
	serial := New(ds, serialOpts)
	for _, w := range []int{0, 2, 5} {
		opts := DefaultOptions()
		opts.Workers = w
		par := New(ds, opts)
		if !reflect.DeepEqual(par.SampledIDs, serial.SampledIDs) {
			t.Fatalf("workers=%d: sampled IDs differ", w)
		}
		if !reflect.DeepEqual(par.Clustering, serial.Clustering) {
			t.Fatalf("workers=%d: clustering differs from serial reference", w)
		}
		if len(par.BatchMetrics) != len(serial.BatchMetrics) {
			t.Fatalf("workers=%d: batch metric count differs", w)
		}
		for b := range par.BatchMetrics {
			if !batchBitEqual(par.BatchMetrics[b], serial.BatchMetrics[b]) {
				t.Fatalf("workers=%d: batch %d metrics differ", w, b)
			}
		}
		if len(par.Clusters) != len(serial.Clusters) {
			t.Fatalf("workers=%d: cluster row count differs", w)
		}
		for ci := range par.Clusters {
			if !clusterRowBitEqual(&par.Clusters[ci], &serial.Clusters[ci]) {
				t.Fatalf("workers=%d: cluster row %d differs:\n%+v\n%+v",
					w, ci, par.Clusters[ci], serial.Clusters[ci])
			}
		}
	}
}

// TestAnalysisMatchesSlowPathReference: the memoized, fused front end
// changes nothing New returns. The reference is assembled page by page
// from the public slow path — htmlfeat.Extract for the features,
// htmlfeat.Shingles capped bottom-k for the set, a set-major MinHash over
// the documented hash family for the signature — merged by the same LSH +
// union-find tail and tabulated by the same table builder; New must equal
// it for every worker count, while having run its kernels on fewer pages
// than were sampled.
func TestAnalysisMatchesSlowPathReference(t *testing.T) {
	ds := synth.Generate(synth.Config{Seed: 4242, Scale: 0.002})
	ids := ds.SampledBatchIDs()

	// The hash family of cluster.minHasher: odd multiplier, then offset,
	// drawn in turn from rng.New(HashSeed).
	r := rng.New(cluster.HashSeed)
	ha, hb := make([]uint64, cluster.Hashes), make([]uint64, cluster.Hashes)
	for i := range ha {
		ha[i] = r.Uint64() | 1
		hb[i] = r.Uint64()
	}
	const maxShingles = 512 // cluster's bottom-k cap
	ref := &cluster.Sketches{
		Options:  cluster.DefaultOptions(),
		IDs:      ids,
		Features: make([]htmlfeat.Features, len(ids)),
		Sets:     make([][]uint64, len(ids)),
		Sigs:     make([][]uint64, len(ids)),
	}
	for i, id := range ids {
		page, ok := ds.BatchHTML(id)
		if !ok {
			t.Fatalf("sampled batch %d has no page", id)
		}
		ref.Features[i] = htmlfeat.Extract(page)
		set := htmlfeat.Shingles(page, cluster.ShingleK) // sorted: the bottom k are a prefix
		if len(set) > maxShingles {
			set = set[:maxShingles]
		}
		sig := make([]uint64, cluster.Hashes)
		for h := range sig {
			sig[h] = ^uint64(0)
			for _, v := range set {
				sig[h] = min(sig[h], ha[h]*v+hb[h])
			}
		}
		ref.Sets[i], ref.Sigs[i] = set, sig
	}
	want := &Analysis{DS: ds, SampledIDs: ids, Clustering: ref.Cluster(), BatchMetrics: metrics.ComputeAllWorkers(ds.Store, 1)}
	want.buildClusterTable(ref.Features, 1)

	for _, w := range []int{1, 2, 3, 8} {
		opts := DefaultOptions()
		opts.Workers = w
		got := New(ds, opts)
		if !reflect.DeepEqual(got.Clustering, want.Clustering) {
			t.Fatalf("workers=%d: clustering differs from the slow-path reference", w)
		}
		if !reflect.DeepEqual(got.Signatures, ref.Sigs) {
			t.Fatalf("workers=%d: retained signatures differ from the slow-path reference", w)
		}
		if len(got.Clusters) != len(want.Clusters) {
			t.Fatalf("workers=%d: %d cluster rows, reference %d", w, len(got.Clusters), len(want.Clusters))
		}
		for ci := range got.Clusters {
			if !clusterRowBitEqual(&got.Clusters[ci], &want.Clusters[ci]) {
				t.Fatalf("workers=%d: cluster row %d differs:\n%+v\n%+v", w, ci, got.Clusters[ci], want.Clusters[ci])
			}
		}
		if got.DistinctPages <= 0 || got.DistinctPages >= len(ids) {
			t.Errorf("workers=%d: kernels ran on %d pages of %d sampled; re-issued batches should share", w, got.DistinctPages, len(ids))
		}
	}
}

// f64BitEqual compares floats bit-for-bit so NaN metric slots (pair-less
// batches) compare equal instead of poisoning reflect.DeepEqual.
func f64BitEqual(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

func batchBitEqual(a, b metrics.Batch) bool {
	return f64BitEqual(a.Disagreement, b.Disagreement) && a.Pairs == b.Pairs &&
		f64BitEqual(a.TaskTime, b.TaskTime) && f64BitEqual(a.PickupTime, b.PickupTime) &&
		a.Instances == b.Instances
}

func clusterRowBitEqual(a, b *ClusterRow) bool {
	return a.Cluster == b.Cluster &&
		reflect.DeepEqual(a.Batches, b.Batches) &&
		a.TaskType == b.TaskType &&
		a.Labels == b.Labels &&
		a.Labeled == b.Labeled &&
		a.Features == b.Features &&
		f64BitEqual(a.ItemsFeature, b.ItemsFeature) &&
		f64BitEqual(a.IssueWeekday, b.IssueWeekday) &&
		f64BitEqual(a.IssueHour, b.IssueHour) &&
		f64BitEqual(a.Metrics.Disagreement, b.Metrics.Disagreement) &&
		f64BitEqual(a.Metrics.TaskTime, b.Metrics.TaskTime) &&
		f64BitEqual(a.Metrics.PickupTime, b.Metrics.PickupTime) &&
		a.Metrics.Batches == b.Metrics.Batches &&
		a.Instances == b.Instances
}

func medianOf(xs []float64) float64 {
	buf := append([]float64(nil), xs...)
	n := len(buf)
	for i := 1; i < n; i++ {
		for j := i; j > 0 && buf[j] < buf[j-1]; j-- {
			buf[j], buf[j-1] = buf[j-1], buf[j]
		}
	}
	return buf[n/2]
}
