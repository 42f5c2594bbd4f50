package synth

import (
	"bytes"
	"math"
	"sort"
	"testing"

	"crowdscope/internal/model"
	"crowdscope/internal/rng"
	"crowdscope/internal/stats"
	"crowdscope/internal/store"
	"crowdscope/internal/timeseries"
)

// testDataset is generated once and shared across the calibration tests;
// generation is deterministic so sharing is safe.
var testDataset = Generate(Config{Seed: 1701, Scale: 0.02})

func TestSourceTableComplete(t *testing.T) {
	srcs := BuildSources()
	if len(srcs) != 139 {
		t.Fatalf("got %d sources, Table 4 lists 139", len(srcs))
	}
	seen := map[string]bool{}
	for _, s := range srcs {
		if s.Name == "" {
			t.Fatal("empty source name")
		}
		if seen[s.Name] {
			t.Fatalf("duplicate source %q", s.Name)
		}
		seen[s.Name] = true
		if s.TrustMean <= 0 || s.TrustMean >= 1 {
			t.Errorf("source %s trust %v out of (0,1)", s.Name, s.TrustMean)
		}
		if s.RelTaskTime <= 0 {
			t.Errorf("source %s relative task time %v", s.Name, s.RelTaskTime)
		}
	}
	for _, name := range []string{"neodev", "clixsense", "amt", "internal", "imerit_india", "yute_jamaica", "fsprizes"} {
		if !seen[name] {
			t.Errorf("source %q missing", name)
		}
	}
}

func TestSourceQualitySpread(t *testing.T) {
	srcs := BuildSources()
	lowTrust, slow3, slow10 := 0, 0, 0
	for _, s := range srcs {
		if s.TrustMean < 0.8 {
			lowTrust++
		}
		if s.RelTaskTime >= 3 {
			slow3++
		}
		if s.RelTaskTime >= 10 {
			slow10++
		}
	}
	// Figure 27: ~10% of sources below 0.8 trust; ~5% at >=3x task time;
	// three sources at >=10x.
	if frac := float64(lowTrust) / float64(len(srcs)); frac < 0.05 || frac > 0.18 {
		t.Errorf("low-trust source share = %.2f, want ~0.10", frac)
	}
	if frac := float64(slow3) / float64(len(srcs)); frac < 0.03 || frac > 0.10 {
		t.Errorf(">=3x task-time share = %.2f, want ~0.05", frac)
	}
	if slow10 != 3 {
		t.Errorf(">=10x sources = %d, want 3", slow10)
	}
	// amt specifically: poor trust and >5x latency.
	for _, s := range srcs {
		if s.Name == "amt" {
			if s.TrustMean > 0.78 {
				t.Errorf("amt trust = %v, want ~0.75", s.TrustMean)
			}
			if s.RelTaskTime <= 5 {
				t.Errorf("amt relative task time = %v, want > 5", s.RelTaskTime)
			}
		}
	}
}

func TestSourceWorkerWeights(t *testing.T) {
	w := sourceWorkerWeights()
	if len(w) != 139 {
		t.Fatalf("weights length %d", len(w))
	}
	total := 0.0
	top := 0.0
	for i, v := range w {
		if v < 0 {
			t.Fatalf("negative weight at %d", i)
		}
		total += v
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("weights sum to %v", total)
	}
	for _, name := range []string{"neodev", "clixsense", "prodege", "elite", "instagc", "tremorgames", "internal", "bitcoinget", "amt", "superrewards"} {
		for i, s := range sourceNames {
			if s == name {
				top += w[i]
			}
		}
	}
	// Section 5.1: top 10 sources ≈ 86% of workers.
	if top < 0.82 || top > 0.90 {
		t.Errorf("top-10 worker share = %.3f, want ~0.86", top)
	}
}

func TestCountryTable(t *testing.T) {
	names := CountryNames()
	if len(names) != NumCountries {
		t.Fatalf("got %d countries, want %d", len(names), NumCountries)
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Fatalf("duplicate country %q", n)
		}
		seen[n] = true
	}
	// Close to 50% of workers from the top five countries (Figure 28).
	w := countryWeights()
	total := stats.Sum(w)
	top5 := (w[0] + w[1] + w[2] + w[3] + w[4]) / total
	if top5 < 0.45 || top5 > 0.62 {
		t.Errorf("top-5 country share = %.3f, want ~0.5-0.55", top5)
	}
	if names[0] != "United States" || names[1] != "Venezuela" {
		t.Errorf("head countries = %v", names[:2])
	}
	if _, ok := countryIndex("India"); !ok {
		t.Error("countryIndex failed for India")
	}
	if _, ok := countryIndex("Atlantis"); ok {
		t.Error("countryIndex matched a non-country")
	}
}

func TestCatalogStructure(t *testing.T) {
	types := BuildCatalog(rng.New(7))
	if len(types) != NumTaskTypes {
		t.Fatalf("catalog size %d", len(types))
	}
	heavy := 0
	labeled := 0
	for i := range types {
		tt := &types[i]
		if tt.Goals.Len() == 0 || tt.Operators.Len() == 0 || tt.Data.Len() == 0 {
			t.Fatalf("type %d missing labels", i)
		}
		if tt.Design.Words <= 0 || tt.Design.Items <= 0 || tt.Design.Fields <= 0 {
			t.Fatalf("type %d has degenerate design %+v", i, tt.Design)
		}
		if tt.Ambiguity <= 0 || tt.Ambiguity > 0.75 {
			t.Fatalf("type %d ambiguity %v", i, tt.Ambiguity)
		}
		if tt.BaseTaskSecs <= 0 || tt.BasePickupSecs <= 0 {
			t.Fatalf("type %d non-positive latent times", i)
		}
		if tt.FirstWeek < 0 || tt.LastWeek < tt.FirstWeek || tt.LastWeek >= int32(model.NumWeeks) {
			t.Fatalf("type %d window [%d,%d]", i, tt.FirstWeek, tt.LastWeek)
		}
		if tt.HeavyHitter {
			heavy++
		}
		if tt.Labeled {
			labeled++
		}
	}
	if heavy != megaTypes+heavyTypes {
		t.Errorf("heavy hitters = %d", heavy)
	}
	if frac := float64(labeled) / float64(len(types)); frac < 0.55 || frac > 0.75 {
		t.Errorf("labeled fraction = %.2f", frac)
	}
}

func TestCatalogFeatureMedians(t *testing.T) {
	types := BuildCatalog(rng.New(8))
	words := make([]float64, 0, len(types))
	items := make([]float64, 0, len(types))
	withText, withExample, withImage := 0, 0, 0
	for i := range types {
		if i < megaTypes+heavyTypes {
			continue // size-class overrides skew items deliberately
		}
		d := types[i].Design
		words = append(words, float64(d.Words))
		items = append(items, float64(d.Items))
		if d.TextBoxes > 0 {
			withText++
		}
		if d.Examples > 0 {
			withExample++
		}
		if d.Images > 0 {
			withImage++
		}
	}
	n := float64(len(words))
	if m := stats.Median(words); m < 380 || m > 560 {
		t.Errorf("#words median = %v, want ~466", m)
	}
	if m := stats.Median(items); m < 28 || m > 56 {
		t.Errorf("#items median = %v, want ~40", m)
	}
	// Tables 1-3 feature-presence fractions.
	if f := float64(withText) / n; f < 0.38 || f > 0.58 {
		t.Errorf("text-box presence = %.2f, want ~0.47", f)
	}
	if f := float64(withExample) / n; f < 0.015 || f > 0.06 {
		t.Errorf("example presence = %.3f, want ~0.03", f)
	}
	if f := float64(withImage) / n; f < 0.18 || f > 0.40 {
		t.Errorf("image presence = %.2f, want ~0.25", f)
	}
}

func TestCatalogDesignEffects(t *testing.T) {
	// The latent metric model must carry the paper's directional effects
	// at the catalog level before any instance noise.
	types := BuildCatalog(rng.New(9))
	var disNoText, disText, timeNoText, timeText []float64
	var pickNoEx, pickEx []float64
	for i := range types {
		tt := &types[i]
		if tt.Design.TextBoxes > 0 {
			disText = append(disText, tt.Ambiguity)
			timeText = append(timeText, tt.BaseTaskSecs)
		} else {
			disNoText = append(disNoText, tt.Ambiguity)
			timeNoText = append(timeNoText, tt.BaseTaskSecs)
		}
		if tt.Design.Examples > 0 {
			pickEx = append(pickEx, tt.BasePickupSecs)
		} else {
			pickNoEx = append(pickNoEx, tt.BasePickupSecs)
		}
	}
	if stats.Median(disText) <= stats.Median(disNoText) {
		t.Error("text boxes should raise latent disagreement")
	}
	if stats.Median(timeText) <= stats.Median(timeNoText)*1.5 {
		t.Errorf("text boxes should raise task time substantially: %v vs %v",
			stats.Median(timeText), stats.Median(timeNoText))
	}
	if stats.Median(pickEx) >= stats.Median(pickNoEx)*0.6 {
		t.Errorf("examples should cut pickup time: %v vs %v",
			stats.Median(pickEx), stats.Median(pickNoEx))
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Config{Seed: 4242, Scale: 0.004})
	b := Generate(Config{Seed: 4242, Scale: 0.004})
	if a.Store.Len() != b.Store.Len() {
		t.Fatalf("row counts differ: %d vs %d", a.Store.Len(), b.Store.Len())
	}
	for i := 0; i < a.Store.Len(); i += 997 {
		if a.Store.Row(i) != b.Store.Row(i) {
			t.Fatalf("row %d differs", i)
		}
	}
	c := Generate(Config{Seed: 4243, Scale: 0.004})
	if c.Store.Len() == a.Store.Len() {
		// Extremely unlikely to match exactly across seeds.
		same := true
		for i := 0; i < a.Store.Len(); i += 991 {
			if a.Store.Row(i) != c.Store.Row(i) {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical datasets")
		}
	}
}

func TestGenerateInventory(t *testing.T) {
	d := testDataset
	if len(d.Sources) != 139 {
		t.Errorf("sources = %d", len(d.Sources))
	}
	if len(d.Countries) != NumCountries {
		t.Errorf("countries = %d", len(d.Countries))
	}
	if len(d.TaskTypes) != NumTaskTypes {
		t.Errorf("task types = %d", len(d.TaskTypes))
	}
	// ~58k batches, 12k sampled (Section 2.2).
	if len(d.Batches) < 40000 || len(d.Batches) > 75000 {
		t.Errorf("batches = %d, want ~58k", len(d.Batches))
	}
	if got := len(d.SampledBatchIDs()); got != SampledBatchesFull {
		t.Errorf("sampled batches = %d, want %d", got, SampledBatchesFull)
	}
	// Instance volume ~27M × scale.
	want := InstancesFull * d.Cfg.Scale
	if n := float64(d.Store.Len()); n < want*0.7 || n > want*1.4 {
		t.Errorf("instances = %.0f, want ~%.0f", n, want)
	}
	if err := d.Store.Validate(); err != nil {
		t.Fatalf("store invalid: %v", err)
	}
}

func TestGenerateSampleCoverage(t *testing.T) {
	d := testDataset
	sampledTypes := map[uint32]bool{}
	allTypes := map[uint32]bool{}
	coveredBatches := 0
	for i := range d.Batches {
		allTypes[d.Batches[i].TaskType] = true
		if d.Batches[i].Sampled {
			sampledTypes[d.Batches[i].TaskType] = true
		}
	}
	for i := range d.Batches {
		if sampledTypes[d.Batches[i].TaskType] {
			coveredBatches++
		}
	}
	// Section 2.2: sample covers ~76% of distinct tasks and ~88% of
	// batches have representatives.
	typeFrac := float64(len(sampledTypes)) / float64(len(allTypes))
	if typeFrac < 0.70 || typeFrac > 0.85 {
		t.Errorf("sampled task-type fraction = %.2f, want ~0.76", typeFrac)
	}
	batchFrac := float64(coveredBatches) / float64(len(d.Batches))
	if batchFrac < 0.72 || batchFrac > 0.95 {
		t.Errorf("batch coverage = %.2f, want ~0.88", batchFrac)
	}
}

func TestGenerateArrivalShape(t *testing.T) {
	d := testDataset
	// Daily *arrival* load counted at batch creation (Figure 2a / 3).
	daily := timeseries.NewDaily()
	for i := range d.Batches {
		b := &d.Batches[i]
		if b.Sampled {
			daily.AddAt(b.CreatedAt.Unix(), float64(b.Instances()))
		}
	}
	post := daily.Slice(int(model.PostBoomWeek)*7, daily.Len())
	ls := timeseries.SummarizeLoad(post)
	// Median daily ~30k full scale. Declared batch volumes are already
	// full-scale (only materialization is scaled), so no rescaling here.
	if ls.Median < 10000 || ls.Median > 60000 {
		t.Errorf("full-scale daily median = %.0f, want ~30k", ls.Median)
	}
	// Busiest day up to ~30x the median (Section 3.1).
	if ls.PeakRatio < 8 || ls.PeakRatio > 80 {
		t.Errorf("peak ratio = %.1f, want ~30", ls.PeakRatio)
	}
	// Lightest day far below the median.
	if ls.TroughRatio > 0.2 {
		t.Errorf("trough ratio = %.4f, want ≪ 1", ls.TroughRatio)
	}
	// Pre-2015 is sparse: post-2015 holds the bulk of volume.
	pre := daily.Slice(0, int(model.PostBoomWeek)*7)
	if pre.Total() > 0.25*daily.Total() {
		t.Errorf("pre-2015 volume share = %.2f, want small", pre.Total()/daily.Total())
	}
}

func TestGenerateWeekdayEffect(t *testing.T) {
	d := testDataset
	daily := timeseries.NewDaily()
	for i := range d.Batches {
		b := &d.Batches[i]
		if b.Sampled {
			daily.AddAt(b.CreatedAt.Unix(), float64(b.Instances()))
		}
	}
	fold := timeseries.WeekdayFold(daily)
	weekday := (fold[0] + fold[1] + fold[2] + fold[3] + fold[4]) / 5
	weekend := (fold[5] + fold[6]) / 2
	// Weekdays carry up to ~2x the weekend volume (Figure 3).
	ratio := weekday / weekend
	if ratio < 1.3 || ratio > 3.0 {
		t.Errorf("weekday/weekend ratio = %.2f, want ~2", ratio)
	}
	// Monday is among the heaviest days; individual mega-batches land on
	// arbitrary weekdays, so allow sampling slack around the planted
	// decaying-week profile.
	for i := 1; i < 7; i++ {
		if fold[i] > fold[0]*1.4 {
			t.Errorf("day %d (%.0f) far exceeds Monday (%.0f)", i, fold[i], fold[0])
		}
	}
	if fold[5] > fold[0] || fold[6] > fold[0] {
		t.Error("weekend exceeds Monday")
	}
}

func TestGenerateWorkerEngagement(t *testing.T) {
	d := testDataset
	obs := d.ObservedWorkers()
	if len(obs) == 0 {
		t.Fatal("no observed workers")
	}
	oneDay, lt100 := 0, 0
	for _, w := range obs {
		if w.Lifetime() == 1 {
			oneDay++
		}
		if w.Lifetime() < 100 {
			lt100++
		}
	}
	// Section 5.3: 52.7% one-day lifetimes; 79% under 100 days.
	if f := float64(oneDay) / float64(len(obs)); f < 0.40 || f > 0.65 {
		t.Errorf("one-day worker share = %.2f, want ~0.53", f)
	}
	if f := float64(lt100) / float64(len(obs)); f < 0.70 || f > 0.90 {
		t.Errorf("lifetime<100d share = %.2f, want ~0.79", f)
	}
}

func TestGenerateWorkloadSkew(t *testing.T) {
	d := testDataset
	counts := map[uint32]float64{}
	for _, w := range d.Store.Workers() {
		counts[w]++
	}
	loads := make([]float64, 0, len(counts))
	for _, c := range counts {
		loads = append(loads, c)
	}
	// Section 5.2: top 10% of workers do >80% of tasks.
	if share := stats.TopShare(loads, 0.10); share < 0.72 || share > 0.95 {
		t.Errorf("top-10%% workload share = %.2f, want >0.80", share)
	}
	// One-day workers complete only a small sliver (~2.4%).
	oneDayTasks := 0.0
	for _, wid := range d.Store.Workers() {
		if d.Workers[wid].Class == model.ClassOneDay {
			oneDayTasks++
		}
	}
	if f := oneDayTasks / float64(d.Store.Len()); f > 0.12 {
		t.Errorf("one-day task share = %.3f, want small (~0.024)", f)
	}
}

func TestGenerateSourceShares(t *testing.T) {
	d := testDataset
	bySource := map[uint16]float64{}
	for _, wid := range d.Store.Workers() {
		bySource[d.Workers[wid].Source]++
	}
	shares := make([]float64, 0, len(bySource))
	for _, c := range bySource {
		shares = append(shares, c)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(shares)))
	top10 := 0.0
	for i := 0; i < 10 && i < len(shares); i++ {
		top10 += shares[i]
	}
	// Section 5.1: top 10 sources perform ~95% of tasks.
	if f := top10 / float64(d.Store.Len()); f < 0.88 || f > 0.995 {
		t.Errorf("top-10 source task share = %.3f, want ~0.95", f)
	}
	// internal ≈ 2% of tasks.
	var internalIdx uint16
	for i, s := range d.Sources {
		if s.Name == "internal" {
			internalIdx = uint16(i)
		}
	}
	if f := bySource[internalIdx] / float64(d.Store.Len()); f < 0.002 || f > 0.08 {
		t.Errorf("internal task share = %.3f, want ~0.02", f)
	}
}

func TestGenerateTrustDistribution(t *testing.T) {
	d := testDataset
	for _, tr := range d.Store.Trusts() {
		if tr < 0 || tr > 1 {
			t.Fatalf("trust %v out of range", tr)
		}
	}
	// Active workers' mean trust is high (Section 5.4: ≥0.91 mean; 90%
	// above 0.84).
	var activeTrust []float64
	for _, w := range d.ObservedWorkers() {
		if w.Class == model.ClassActive || w.Class == model.ClassSuper {
			activeTrust = append(activeTrust, w.TrustMean)
		}
	}
	if m := stats.Mean(activeTrust); m < 0.85 {
		t.Errorf("active worker mean trust = %.3f, want ≥ ~0.9", m)
	}
}

func TestGenerateTimesValid(t *testing.T) {
	d := testDataset
	starts := d.Store.Starts()
	ends := d.Store.Ends()
	epoch := model.Epoch.Unix()
	horizon := model.Horizon.Unix()
	for i := range starts {
		if starts[i] < epoch {
			t.Fatalf("row %d starts before epoch", i)
		}
		if starts[i] > horizon {
			t.Fatalf("row %d starts after horizon", i)
		}
		if ends[i] < starts[i] {
			t.Fatalf("row %d ends before start", i)
		}
	}
}

func TestGenerateHTML(t *testing.T) {
	d := testDataset
	ids := d.SampledBatchIDs()
	page, ok := d.BatchHTML(ids[0])
	if !ok || page == "" {
		t.Fatal("sampled batch has no HTML")
	}
	// Unsampled batches expose no HTML (the paper's sample restriction).
	for i := range d.Batches {
		if !d.Batches[i].Sampled {
			if _, ok := d.BatchHTML(uint32(i)); ok {
				t.Fatal("unsampled batch exposed HTML")
			}
			break
		}
	}
	// Two batches of the same type render near-identical pages.
	typeOf := d.Batches[ids[0]].TaskType
	for _, id := range ids[1:] {
		if d.Batches[id].TaskType == typeOf {
			other, _ := d.BatchHTML(id)
			if other == page {
				t.Error("batch tag should differentiate pages")
			}
			return
		}
	}
}

func TestGenerateItemRedundancy(t *testing.T) {
	d := testDataset
	// Within a batch, an item's answers come from distinct workers.
	ids := d.SampledBatchIDs()
	checked := 0
	for _, bid := range ids {
		lo, hi := d.Store.BatchRange(bid)
		if hi-lo < 4 {
			continue
		}
		seen := map[[2]uint32]bool{}
		items := d.Store.Items()
		workers := d.Store.Workers()
		for i := lo; i < hi; i++ {
			key := [2]uint32{items[i], workers[i]}
			if seen[key] {
				t.Fatalf("batch %d: worker %d answered item %d twice", bid, workers[i], items[i])
			}
			seen[key] = true
		}
		checked++
		if checked >= 50 {
			break
		}
	}
	if checked == 0 {
		t.Fatal("no batches checked")
	}
}

func TestDeviationProb(t *testing.T) {
	// q inverts the pairwise-disagreement formula: verify round trip.
	for _, d := range []float64{0.01, 0.1, 0.3, 0.6} {
		q := deviationProb(d)
		got := 1 - ((1-q)*(1-q) + q*q/3)
		if math.Abs(got-d) > 1e-9 {
			t.Errorf("deviationProb(%v): round trip %v", d, got)
		}
	}
	if deviationProb(0) != 0 {
		t.Error("deviationProb(0) != 0")
	}
	if q := deviationProb(0.9); q > 0.751 {
		t.Errorf("clamped q = %v", q)
	}
}

func TestScaleValidation(t *testing.T) {
	for _, bad := range []float64{0, -1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("scale %v should panic", bad)
				}
			}()
			Generate(Config{Seed: 1, Scale: bad})
		}()
	}
}

// TestRehydrateMatchesGenerate: rebuilding a dataset around a
// snapshot-restored store is indistinguishable from generating it — the
// load path every -snapshot CLI flow rides on.
func TestRehydrateMatchesGenerate(t *testing.T) {
	cfg := Config{Seed: 4242, Scale: 0.004}
	gen := Generate(cfg)

	var buf bytes.Buffer
	if _, err := gen.Store.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	var restored store.Store
	if _, err := restored.ReadFrom(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("ReadFrom: %v", err)
	}
	re, err := Rehydrate(cfg, &restored)
	if err != nil {
		t.Fatalf("Rehydrate: %v", err)
	}

	if re.Store.Len() != gen.Store.Len() {
		t.Fatalf("rows %d vs %d", re.Store.Len(), gen.Store.Len())
	}
	for i := 0; i < gen.Store.Len(); i += 499 {
		if re.Store.Row(i) != gen.Store.Row(i) {
			t.Fatalf("row %d differs", i)
		}
	}
	if len(re.Batches) != len(gen.Batches) || len(re.Workers) != len(gen.Workers) ||
		len(re.TaskTypes) != len(gen.TaskTypes) || len(re.Sources) != len(gen.Sources) {
		t.Fatal("inventory shapes differ")
	}
	for i := range gen.Batches {
		if re.Batches[i].Title != gen.Batches[i].Title || re.Batches[i].CreatedAt != gen.Batches[i].CreatedAt {
			t.Fatalf("batch %d differs", i)
		}
	}
	// Worker activity windows derive from the store, so the observed
	// populations must agree too.
	if got, want := len(re.ObservedWorkers()), len(gen.ObservedWorkers()); got != want {
		t.Fatalf("observed workers %d vs %d", got, want)
	}
	for i := range gen.Workers {
		if re.Workers[i] != gen.Workers[i] {
			t.Fatalf("worker %d differs: %+v vs %+v", i, re.Workers[i], gen.Workers[i])
		}
	}
	// Sampled HTML must render identically (clustering depends on it).
	for _, id := range gen.SampledBatchIDs()[:10] {
		a, _ := gen.BatchHTML(id)
		b, _ := re.BatchHTML(id)
		if a != b {
			t.Fatalf("batch %d HTML differs", id)
		}
	}
}

// TestConfigHash: the provenance hash tracks data-affecting fields only.
func TestConfigHash(t *testing.T) {
	base := Config{Seed: 1701, Scale: 0.02}
	if base.Hash() != (Config{Seed: 1701, Scale: 0.02, Parallelism: 8}).Hash() {
		t.Error("Parallelism must not affect the config hash")
	}
	if base.Hash() == (Config{Seed: 1702, Scale: 0.02}).Hash() {
		t.Error("seed change should change the hash")
	}
	if base.Hash() == (Config{Seed: 1701, Scale: 0.04}).Hash() {
		t.Error("scale change should change the hash")
	}
	if base.Hash() == (Config{Seed: 1701, Scale: 0.02, LearningGamma: 0.3}).Hash() {
		t.Error("learning gamma change should change the hash")
	}
}

// TestRehydrateRejectsForeignStore: a snapshot whose worker IDs exceed
// the inventory regenerated from the config (e.g. a snapshot written with
// no provenance, loaded under the wrong -scale) must error, not panic in
// observeWorkerActivity.
func TestRehydrateRejectsForeignStore(t *testing.T) {
	big := Generate(Config{Seed: 9, Scale: 0.008}) // larger worker population
	if _, err := Rehydrate(Config{Seed: 9, Scale: 0.004}, big.Store); err == nil {
		t.Fatal("foreign store accepted")
	}
	// A store of more batches than the inventory is refused too.
	st := store.New(int(1e6))
	if _, err := Rehydrate(Config{Seed: 9, Scale: 0.004}, st); err == nil {
		t.Fatal("oversized batch table accepted")
	}
}
