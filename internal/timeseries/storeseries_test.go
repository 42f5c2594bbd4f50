package timeseries

import (
	"math/rand"
	"reflect"
	"testing"

	"crowdscope/internal/model"
	"crowdscope/internal/query"
	"crowdscope/internal/store"
)

// seriesStore builds a small two-segment store with workers and start
// times spread over the span (plus one pre-epoch row, which every weekly
// series must drop).
func seriesStore(t *testing.T) *store.Store {
	t.Helper()
	r := rand.New(rand.NewSource(99))
	var segs []*store.Segment
	for k := 0; k < 2; k++ {
		b := store.NewBuilder(uint32(k), uint32(k+1))
		b.BeginBatch(uint32(k))
		for i := 0; i < 500; i++ {
			start := model.Epoch.Unix() + int64(r.Intn(int(model.NumDays)*86400))
			if i == 0 && k == 0 {
				start = model.Epoch.Unix() - 1000 // pre-epoch: dropped by weekly series
			}
			b.Append(model.Instance{
				Batch:  uint32(k),
				Worker: uint32(r.Intn(40)),
				Start:  start,
				End:    start + int64(r.Intn(900)),
			})
		}
		segs = append(segs, b.Seal())
	}
	s, err := store.Assemble(2, segs)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestActiveWorkerSeriesMatchesManualScan pins the engine-backed series
// to the historical hand-rolled DistinctCounter full scan.
func TestActiveWorkerSeriesMatchesManualScan(t *testing.T) {
	st := seriesStore(t)
	want := NewWeeklyDistinct()
	starts := st.Starts()
	workers := st.Workers()
	for i := range starts {
		want.Observe(starts[i], workers[i])
	}
	got, err := ActiveWorkerSeries(st, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Values, want.Series().Values) {
		t.Error("ActiveWorkerSeries differs from the manual DistinctCounter scan")
	}
}

// TestWorkerEngagementSeriesMatchesManualScan pins the per-cohort weekly
// task/seconds series to the historical IncrAt/AddAt full scan.
func TestWorkerEngagementSeriesMatchesManualScan(t *testing.T) {
	st := seriesStore(t)
	cohort := []uint32{1, 3, 5, 7, 11, 13}
	in := map[uint32]bool{}
	for _, w := range cohort {
		in[w] = true
	}
	wantTasks, wantSecs := NewWeekly(), NewWeekly()
	starts, ends, wcol := st.Starts(), st.Ends(), st.Workers()
	for i := range starts {
		if in[wcol[i]] {
			wantTasks.IncrAt(starts[i])
			wantSecs.AddAt(starts[i], float64(ends[i]-starts[i]))
		}
	}
	tasks, secs, err := WorkerEngagementSeries(st, 0, query.In(query.ColWorker, cohort...))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tasks.Values, wantTasks.Values) {
		t.Error("engagement task series differs from the manual scan")
	}
	if !reflect.DeepEqual(secs.Values, wantSecs.Values) {
		t.Error("engagement seconds series differs from the manual scan")
	}
}
