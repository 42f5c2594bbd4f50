package crowdscope_test

import (
	"bytes"
	"slices"
	"testing"

	"crowdscope/internal/model"
	"crowdscope/internal/query"
	"crowdscope/internal/store"
)

// TestDerivedGranulesSound: the granule directories a store read from disk
// derives (store.Granule) are sound. On the strict-reloaded snapshot of
// the scale-0.02 fixture, and on every shard of its dataset after each
// step of loading its columns, every derived granule contains the exact
// granule the generated store sealed over the same rows, and every row of
// every loaded column lies inside its granule. A one-week window on the
// reloaded snapshot then scans the 8,192 rows the sealed store does, where
// the same rows without a directory scan 47,205.
func TestDerivedGranulesSound(t *testing.T) {
	e2eSetup(t)
	exact := e2eStore.Granules()
	if len(exact) != len(e2eStore.Segments()) {
		t.Fatalf("generated store sealed %d directories for %d segments", len(exact), len(e2eStore.Segments()))
	}
	var twin store.Store
	if _, err := twin.ReadFrom(bytes.NewReader(e2eSnap)); err != nil {
		t.Fatal(err)
	}
	containsExact(t, "snapshot", twin.Granules(), exact)
	rowsInside(t, "snapshot", &twin)

	d := e2eFS.dataset(t)
	first := 0
	for i, si := range d.Manifest().Shards {
		sh, err := d.Shard(i)
		if err != nil {
			t.Fatal(err)
		}
		if g := sh.Store().Granules(); g != nil {
			t.Fatalf("shard %d: %d directories before any column is loaded", i, len(g))
		}
		for _, cols := range []store.ColumnSet{store.ColSetStart, store.ColSetDuration, store.ColSetTrust, store.ColSetAll} {
			if err := sh.EnsureColumns(cols); err != nil {
				t.Fatal(err)
			}
			containsExact(t, si.Name, sh.Store().Granules(), exact[first:first+si.Segments])
		}
		rowsInside(t, si.Name, sh.Store())
		first += si.Segments
	}

	// A repair-mode load trusts no stored zone and derives no directory.
	var bare store.Store
	if _, err := bare.ReadSnapshot(bytes.NewReader(e2eSnap), store.LoadOptions{Mode: store.LoadRepair}); err != nil {
		t.Fatal(err)
	}
	q := query.Query{Where: []query.Predicate{query.Range(query.ColStart, model.DayUnix(70), model.DayUnix(77))}, Workers: 1}
	var groups []query.Group
	for _, c := range []struct {
		name string
		st   *store.Store
		want int64
	}{{"sealed", e2eStore, 8192}, {"derived", &twin, 8192}, {"no directory", &bare, 47205}} {
		res, err := runQuery(c.st, q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.RowsScanned != c.want {
			t.Errorf("%s: scanned %d rows, want %d", c.name, res.Stats.RowsScanned, c.want)
		}
		if groups == nil {
			groups = res.Groups
		} else if !groupsEqual(res.Groups, groups) {
			t.Errorf("%s: groups differ from the sealed store's", c.name)
		}
	}
}

// containsExact holds each derived granule to containing the exact one:
// the same rows, every bound at least as wide, every kept set a superset.
func containsExact(t *testing.T, what string, derived, exact [][]store.Granule) {
	t.Helper()
	if len(derived) != len(exact) {
		t.Fatalf("%s: %d directories, want %d", what, len(derived), len(exact))
	}
	subset := func(in, out []uint32) bool {
		return out == nil || in != nil && !slices.ContainsFunc(in, func(v uint32) bool { return !slices.Contains(out, v) })
	}
	for i := range exact {
		if len(derived[i]) != len(exact[i]) {
			t.Fatalf("%s: segment %d has %d granules, want %d", what, i, len(derived[i]), len(exact[i]))
		}
		for g, x := range exact[i] {
			o := derived[i][g]
			if o.Rows != x.Rows || o.BatchMin > x.BatchMin || o.BatchMax < x.BatchMax ||
				o.TaskTypeMin > x.TaskTypeMin || o.TaskTypeMax < x.TaskTypeMax ||
				o.ItemMin > x.ItemMin || o.ItemMax < x.ItemMax ||
				o.WorkerMin > x.WorkerMin || o.WorkerMax < x.WorkerMax ||
				o.AnswerMin > x.AnswerMin || o.AnswerMax < x.AnswerMax ||
				o.StartMin > x.StartMin || o.StartMax < x.StartMax ||
				o.EndMin > x.EndMin || o.EndMax < x.EndMax ||
				o.TrustMin > x.TrustMin || o.TrustMax < x.TrustMax ||
				!subset(x.TaskTypes, o.TaskTypes) || !subset(x.Answers, o.Answers) {
				t.Fatalf("%s: segment %d granule %d: derived %+v does not contain exact %+v", what, i, g, o, x)
			}
		}
	}
}

// rowsInside holds every row of every column of st to its granule's zone.
func rowsInside(t *testing.T, what string, st *store.Store) {
	t.Helper()
	batch, tt, item, worker, answer := st.Batches(), st.TaskTypes(), st.Items(), st.Workers(), st.Answers()
	start, end, trust := st.Starts(), st.Ends(), st.Trusts()
	grans := st.Granules()
	for i, si := range st.Segments() {
		for r := si.RowLo; r < si.RowHi; r++ {
			g := grans[i][(r-si.RowLo)/store.GranuleRows]
			if batch[r] < g.BatchMin || batch[r] > g.BatchMax ||
				tt[r] < g.TaskTypeMin || tt[r] > g.TaskTypeMax || (g.TaskTypes != nil && !slices.Contains(g.TaskTypes, tt[r])) ||
				item[r] < g.ItemMin || item[r] > g.ItemMax || worker[r] < g.WorkerMin || worker[r] > g.WorkerMax ||
				answer[r] < g.AnswerMin || answer[r] > g.AnswerMax || (g.Answers != nil && !slices.Contains(g.Answers, answer[r])) ||
				start[r] < g.StartMin || start[r] > g.StartMax || end[r] < g.EndMin || end[r] > g.EndMax ||
				trust[r] < g.TrustMin || trust[r] > g.TrustMax {
				t.Fatalf("%s: row %d lies outside its granule's zone %+v", what, r, g)
			}
		}
	}
}
