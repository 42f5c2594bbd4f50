// Package core assembles the paper's full analysis pipeline over a
// marketplace dataset: batch clustering into distinct tasks (Section 3.3),
// HTML design-feature extraction (Section 2.4), effectiveness metrics
// (Section 4.1) and their cluster-level reduction, plus the worker- and
// label-level aggregate tables the marketplace and worker analyses consume
// (Sections 3 and 5). Every experiment and example builds on this package.
package core

import (
	"fmt"
	"math"
	"sync"

	"crowdscope/internal/cluster"
	"crowdscope/internal/corr"
	"crowdscope/internal/htmlfeat"
	"crowdscope/internal/metrics"
	"crowdscope/internal/model"
	"crowdscope/internal/par"
	"crowdscope/internal/stats"
	"crowdscope/internal/store"
	"crowdscope/internal/synth"
)

// Analysis carries a dataset and everything derived from it.
type Analysis struct {
	DS *synth.Dataset

	// SampledIDs are the fully visible batch IDs, ascending.
	SampledIDs []uint32

	// Clustering groups the sampled batches into distinct tasks.
	Clustering *cluster.Clustering

	// Signatures are the MinHash signatures Clustering was merged from,
	// parallel to SampledIDs. Batches with the same page alias one
	// signature — read-only. Kept so that re-merging at another threshold
	// (cluster.SweepThreshold) renders and sketches no page again.
	Signatures [][]uint64
	// DistinctPages counts the sampled pages that differ outside comment
	// bodies: the number the page kernels ran on.
	DistinctPages int

	// BatchMetrics is indexed by batch ID (only sampled batches valid).
	BatchMetrics []metrics.Batch

	// Clusters is the cluster-level table behind Sections 3.3-4.9.
	Clusters []ClusterRow
}

// ClusterRow is one distinct task with its features and metric levels.
type ClusterRow struct {
	// Cluster is the cluster index within Clustering.
	Cluster int
	// Batches are the member batch IDs.
	Batches []uint32
	// TaskType is the dominant underlying type (from batch metadata).
	TaskType uint32
	// Labels are the manual labels (valid when Labeled).
	Labels  model.Labels
	Labeled bool
	// Features are extracted from the cluster's representative HTML.
	Features htmlfeat.Features
	// ItemsFeature is the median declared #items per batch — the paper's
	// #items design parameter, which comes from batch metadata rather
	// than markup.
	ItemsFeature float64
	// IssueWeekday and IssueHour are the median issue weekday (0=Monday)
	// and hour of the cluster's batches — the paper's null-effect
	// features (Section 4.8).
	IssueWeekday float64
	IssueHour    float64
	// Metrics are the cluster-median effectiveness values.
	Metrics metrics.ClusterMetrics
	// Instances is the materialized row count across member batches.
	Instances int
}

// Options tune analysis assembly.
type Options struct {
	// Workers bounds the goroutine fan-out of each parallel phase of the
	// analysis front end (page sketching, metrics, cluster table). Zero
	// or negative means GOMAXPROCS; 1 is the serial reference, which also
	// disables the merge/metrics overlap — with Workers >= 2 those two
	// independent phases run concurrently. The assembled Analysis is
	// identical for every value.
	Workers int
}

// DefaultOptions returns the paper-faithful configuration: the tuned
// clustering (cluster.DefaultOptions) at GOMAXPROCS workers.
func DefaultOptions() Options {
	return Options{}
}

// New runs the full assembly over a dataset. Every sampled page goes
// through cluster.SketchPages once — design features, shingle set and
// signature from one pass, computed once per distinct page — and both the
// clustering and the cluster table read the sketches, never a page. The
// merge into clusters and the batch metrics are independent and run
// concurrently (except under Workers=1, the serial reference).
func New(ds *synth.Dataset, opts Options) *Analysis {
	a := &Analysis{DS: ds, SampledIDs: ds.SampledBatchIDs()}
	copts := cluster.DefaultOptions()
	copts.Workers = opts.Workers
	pages := cluster.SketchPages(a.SampledIDs, ds.BatchHTML, copts)
	a.Signatures, a.DistinctPages = pages.Sigs, pages.Distinct
	if opts.Workers == 1 {
		a.Clustering = pages.Cluster()
		a.BatchMetrics = metrics.ComputeAllWorkers(ds.Store, 1)
	} else {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			a.BatchMetrics = metrics.ComputeAllWorkers(ds.Store, opts.Workers)
		}()
		a.Clustering = pages.Cluster()
		wg.Wait()
	}
	a.buildClusterTable(pages.Features, opts.Workers)
	return a
}

// FromSnapshot runs the full assembly over an instance log restored from
// a snapshot instead of a freshly materialized one: the inventory
// regenerates deterministically from cfg (synth.Rehydrate) and the store
// stands in for the generation phase. When the snapshot carries
// provenance, its config hash must match cfg — analyzing rows under a
// config that did not produce them silently skews every table, which is
// exactly what provenance exists to catch.
func FromSnapshot(cfg synth.Config, st *store.Store, prov *store.Provenance, opts Options) (*Analysis, error) {
	if prov != nil && prov.ConfigHash != cfg.Hash() {
		return nil, fmt.Errorf("core: snapshot provenance mismatch: snapshot written by %q under config hash %016x, analyzing under %016x (seed %d, scale %g)",
			prov.Tool, prov.ConfigHash, cfg.Hash(), cfg.Seed, cfg.Scale)
	}
	ds, err := synth.Rehydrate(cfg, st)
	if err != nil {
		return nil, err
	}
	return New(ds, opts), nil
}

// buildClusterTable assembles one ClusterRow per cluster, parallel over
// clusters. Rows are independent and indexed by cluster, so any worker
// count produces the identical table; a row's features are those sketched
// for its first member's page (feats runs parallel to SampledIDs, zero
// where a batch has no page), never a re-render.
func (a *Analysis) buildClusterTable(feats []htmlfeat.Features, workers int) {
	ds := a.DS
	rows := make([]ClusterRow, len(a.Clustering.Members))
	par.EachShard(len(rows), workers, func(clo, chi int) {
		var itemFeats, weekdays, hours []float64
		typeVotes := map[uint32]int{}
		for ci := clo; ci < chi; ci++ {
			members := a.Clustering.Members[ci]
			row := ClusterRow{Cluster: ci, Batches: make([]uint32, 0, len(members))}
			itemFeats, weekdays, hours = itemFeats[:0], weekdays[:0], hours[:0]
			clear(typeVotes)
			for _, pos := range members {
				bid := a.Clustering.IDs[pos]
				row.Batches = append(row.Batches, bid)
				b := &ds.Batches[bid]
				typeVotes[b.TaskType]++
				itemFeats = append(itemFeats, float64(b.Items))
				weekdays = append(weekdays, float64((int(b.CreatedAt.Weekday())+6)%7))
				hours = append(hours, float64(b.CreatedAt.Hour()))
				lo, hi := ds.Store.BatchRange(bid)
				row.Instances += hi - lo
			}
			// Dominant type carries the labels; ties break toward the
			// type seen first in member order, keeping the row
			// deterministic (the historical map iteration was not).
			best, bestN := uint32(0), -1
			for _, pos := range members {
				tt := ds.Batches[a.Clustering.IDs[pos]].TaskType
				if typeVotes[tt] > bestN {
					best, bestN = tt, typeVotes[tt]
				}
			}
			row.TaskType = best
			tt := &ds.TaskTypes[best]
			row.Labels = tt.Labels
			row.Labeled = tt.Labeled
			row.ItemsFeature = stats.MedianInPlace(itemFeats)
			row.IssueWeekday = stats.MedianInPlace(weekdays)
			row.IssueHour = stats.MedianInPlace(hours)
			row.Features = feats[members[0]]
			row.Metrics = metrics.Reduce(a.BatchMetrics, row.Batches)
			rows[ci] = row
		}
	})
	a.Clusters = rows
}

// Metric and feature names shared by the correlation experiments.
const (
	MetricDisagreement = "disagreement"
	// MetricDisagreementRaw skips the >0.5 pruning rule; the Section 4.9
	// prediction task bucketizes the full [0,1] range.
	MetricDisagreementRaw = "disagreement-raw"
	MetricTaskTime        = "task-time"
	MetricPickupTime      = "pickup-time"

	FeatWords        = "#words"
	FeatTextBoxes    = "#text-boxes"
	FeatItems        = "#items"
	FeatExamples     = "#examples"
	FeatImages       = "#images"
	FeatFields       = "#fields"
	FeatIssueWeekday = "issue-weekday"
	FeatIssueHour    = "issue-hour"
)

// Observations converts the cluster table to correlation observations.
// Disagreement respects the paper's pruning rule: clusters whose
// disagreement exceeds the threshold (subjective free-text tasks) carry
// NaN and drop out of error analyses only.
func (a *Analysis) Observations(labeledOnly bool) []corr.Observation {
	var out []corr.Observation
	for i := range a.Clusters {
		c := &a.Clusters[i]
		if labeledOnly && !c.Labeled {
			continue
		}
		dis := c.Metrics.Disagreement
		if dis > metrics.DisagreementPruneThreshold {
			dis = math.NaN()
		}
		out = append(out, corr.Observation{
			Features: map[string]float64{
				FeatWords:        float64(c.Features.Words),
				FeatTextBoxes:    float64(c.Features.TextBoxes),
				FeatItems:        c.ItemsFeature,
				FeatExamples:     float64(c.Features.Examples),
				FeatImages:       float64(c.Features.Images),
				FeatFields:       float64(c.Features.Fields),
				FeatIssueWeekday: c.IssueWeekday,
				FeatIssueHour:    c.IssueHour,
			},
			Metrics: map[string]float64{
				MetricDisagreement:    dis,
				MetricDisagreementRaw: c.Metrics.Disagreement,
				MetricTaskTime:        c.Metrics.TaskTime,
				MetricPickupTime:      c.Metrics.PickupTime,
			},
		})
	}
	return out
}

// ObservationsWithLabels returns observations restricted to clusters
// carrying a specific goal / operator / data label — the Section 4 drill
// downs (Figure 25). Nil selectors match everything.
func (a *Analysis) ObservationsWithLabels(goal *model.Goal, op *model.Operator, data *model.DataType) []corr.Observation {
	var out []corr.Observation
	for i := range a.Clusters {
		c := &a.Clusters[i]
		if !c.Labeled {
			continue
		}
		if goal != nil && !c.Labels.Goals.Has(*goal) {
			continue
		}
		if op != nil && !c.Labels.Operators.Has(*op) {
			continue
		}
		if data != nil && !c.Labels.Data.Has(*data) {
			continue
		}
		dis := c.Metrics.Disagreement
		if dis > metrics.DisagreementPruneThreshold {
			dis = math.NaN()
		}
		out = append(out, corr.Observation{
			Features: map[string]float64{
				FeatWords:     float64(c.Features.Words),
				FeatTextBoxes: float64(c.Features.TextBoxes),
				FeatItems:     c.ItemsFeature,
				FeatExamples:  float64(c.Features.Examples),
				FeatImages:    float64(c.Features.Images),
			},
			Metrics: map[string]float64{
				MetricDisagreement: dis,
				MetricTaskTime:     c.Metrics.TaskTime,
				MetricPickupTime:   c.Metrics.PickupTime,
			},
		})
	}
	return out
}

// StandardSpecs returns the experiment matrix of Sections 4.3-4.8: the
// five influential features against their affected metrics plus the
// null-effect features the paper verified as insignificant.
func StandardSpecs() []corr.Spec {
	return []corr.Spec{
		{Feature: FeatWords, Metric: MetricDisagreement, Kind: corr.SplitAtMedian},
		{Feature: FeatItems, Metric: MetricDisagreement, Kind: corr.SplitAtMedian},
		{Feature: FeatItems, Metric: MetricTaskTime, Kind: corr.SplitAtMedian},
		{Feature: FeatItems, Metric: MetricPickupTime, Kind: corr.SplitAtMedian},
		{Feature: FeatTextBoxes, Metric: MetricDisagreement, Kind: corr.SplitAtZero},
		{Feature: FeatTextBoxes, Metric: MetricTaskTime, Kind: corr.SplitAtZero},
		{Feature: FeatExamples, Metric: MetricDisagreement, Kind: corr.SplitAtZero},
		{Feature: FeatExamples, Metric: MetricPickupTime, Kind: corr.SplitAtZero},
		{Feature: FeatImages, Metric: MetricTaskTime, Kind: corr.SplitAtZero},
		{Feature: FeatImages, Metric: MetricPickupTime, Kind: corr.SplitAtZero},
	}
}

// NullSpecs returns the features the paper found no significant
// correlation for (Section 4.8).
func NullSpecs() []corr.Spec {
	return []corr.Spec{
		{Feature: FeatIssueWeekday, Metric: MetricDisagreement, Kind: corr.SplitAtMedian},
		{Feature: FeatIssueWeekday, Metric: MetricTaskTime, Kind: corr.SplitAtMedian},
		{Feature: FeatIssueHour, Metric: MetricPickupTime, Kind: corr.SplitAtMedian},
		{Feature: FeatFields, Metric: MetricPickupTime, Kind: corr.SplitAtMedian},
	}
}
