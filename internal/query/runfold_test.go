package query

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"crowdscope/internal/model"
	"crowdscope/internal/store"
	"crowdscope/internal/wal"
)

// runStore builds a store whose task-type and batch columns every segment
// stores as runs: batches of 1 to 2,500 rows (so some runs outrun a
// vector), one task type held over 1 to 5 batches, one segment per entry
// of segRows. Trust is quantised to 21 levels with the odd NaN, ±0 and
// ±Inf, so bounds repeat and the special values meet them.
func runStore(t testing.TB, r *rand.Rand, segRows []int) *store.Store {
	t.Helper()
	specials := []float32{float32(math.NaN()), float32(math.Copysign(0, -1)), 0, float32(math.Inf(1)), float32(math.Inf(-1))}
	var segs []*store.Segment
	batch, start, tt, ttLeft := uint32(0), model.Epoch.Unix(), uint32(0), 0
	for _, n := range segRows {
		var sizes []int
		for left := n; left > 0; left -= sizes[len(sizes)-1] {
			sizes = append(sizes, min(left, 1+r.Intn(2500)))
		}
		b := store.NewBuilder(batch, batch+uint32(len(sizes)))
		for _, rows := range sizes {
			if ttLeft == 0 {
				tt, ttLeft = uint32(3+r.Intn(60)), 1+r.Intn(5)
			}
			ttLeft--
			b.BeginBatch(batch)
			for i := 0; i < rows; i++ {
				start += int64(r.Intn(200))
				trust := float32(r.Intn(21)) / 20
				if r.Intn(500) == 0 {
					trust = specials[r.Intn(len(specials))]
				}
				b.Append(model.Instance{
					Batch: batch, TaskType: tt, Item: uint32(r.Intn(300)), Worker: uint32(r.Intn(80)),
					Start: start, End: start + int64(r.Intn(2400)), Trust: trust, Answer: uint32(r.Intn(6)),
				})
			}
			batch++
		}
		segs = append(segs, b.Seal())
	}
	st, err := store.Assemble(int(batch), segs)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// runShapes lists every aggregate shape grouped by task type and by batch,
// each without a filter and under filters of every kind the scan binds.
func runShapes() []string {
	var out []string
	for _, key := range []string{"tasktype", "batch"} {
		for _, where := range []string{"", "where duration >= 600 | ", "where tasktype in {3, 9, 17, 30, 44} | ",
			"where trust in [0.3, 0.8] and batch < 40 | ", "where worker < 20 or duration < 100 | "} {
			for _, agg := range []string{"", " | value duration", " | value trust | p50", " | value start | distinct worker",
				" | value trust | distinct tasktype", " | distinct batch", " | value duration | p50 | distinct item"} {
				out = append(out, where+"group "+key+agg)
			}
		}
	}
	return out
}

// TestRunFoldMatchesRowFold is the run-vs-row differential: every shape of
// runShapes answers bit for bit the same groups, and the same Stats, on an
// encoded store (run form) and on raw-backed twins of its rows with no
// segment encodings (row form), at Workers 1, 2, 3 and 8. One twin pair
// shares the encoded store's layout exactly: two repair-mode reloads, one
// given its encodings back, the pure row-form witness. The other is a
// compacted live view, whose sealed segments carry their encodings and
// fold by runs while its open tail folds by rows, against the strict
// reload of its own snapshot; there the directories differ (exact against
// derived), so Stats agree on the rows matched and segments pruned.
func TestRunFoldMatchesRowFold(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	segRows := []int{ChunkRows + 7000, 3000, ChunkRows/2 + 100, 1}
	if testing.Short() {
		segRows = []int{ChunkRows + 700, 3000, 1}
	}
	st := runStore(t, r, segRows)
	rows := repairLoaded(t, st)
	runs := repairLoaded(t, st)
	runs.CompressionStats() // fills the encodings a repair load lacks
	// Writing a snapshot fills a store's encodings, so the encoded side is
	// the snapshot of a second view over the same rows and layout.
	ls, view := liveViewOf(t, st, st.Len(), 1<<13, nil)
	_, twinView := liveViewOf(t, st, st.Len(), 1<<13, nil)
	viewRuns := reloaded(t, twinView, store.LoadStrict)
	if sealed := ls.SealedSegments(); len(view.SegmentEncodings()) != sealed || len(view.Segments()) != sealed+1 || !slices.Equal(view.Segments(), viewRuns.Segments()) {
		t.Fatalf("the live view has %d segment encodings for %d sealed segments, layout %v against %v", len(view.SegmentEncodings()), sealed, view.Segments(), viewRuns.Segments())
	}

	pairs := []struct {
		name      string
		runs, raw *store.Store
		exact     bool
	}{{"repair twins", runs, rows, true}, {"live view", viewRuns, view, false}}
	for _, text := range runShapes() {
		q, err := ParseQuery(text)
		if err != nil {
			t.Fatal(err)
		}
		for _, pr := range pairs {
			if cc, _ := bindPart(pr.runs, &q, mustPrepare(t, pr.runs, &q)); cc.runs == nil {
				t.Fatalf("%s on the %s: no segment folds by runs", text, pr.name)
			}
			var want *Result
			for _, w := range []int{1, 2, 3, 8} {
				q.Workers = w
				got, err := Run(pr.runs, q)
				if err != nil {
					t.Fatalf("%s on the %s, workers %d: %v", text, pr.name, w, err)
				}
				ref, err := Run(pr.raw, q)
				if err != nil {
					t.Fatalf("%s on the %s's raw twin, workers %d: %v", text, pr.name, w, err)
				}
				if want == nil {
					want = ref
					if len(want.Groups) == 0 || totalCount(want.Groups) != want.Stats.RowsMatched {
						t.Fatalf("%s on the %s: %d groups hold %d of %d matched rows", text, pr.name, len(want.Groups), totalCount(want.Groups), want.Stats.RowsMatched)
					}
				}
				if !sameGroups(got.Groups, want.Groups) || !sameGroups(ref.Groups, want.Groups) {
					t.Fatalf("%s on the %s, workers %d: run form and row form differ\n runs %+v\n rows %+v", text, pr.name, w, got.Groups, want.Groups)
				}
				s, ws := got.Stats, want.Stats
				if !pr.exact {
					s = Stats{RowsMatched: s.RowsMatched, Segments: s.Segments, SegmentsPruned: s.SegmentsPruned}
					ws = Stats{RowsMatched: ws.RowsMatched, Segments: ws.Segments, SegmentsPruned: ws.SegmentsPruned}
				}
				if s != ws {
					t.Fatalf("%s on the %s, workers %d: stats %+v by runs, %+v by rows", text, pr.name, w, got.Stats, want.Stats)
				}
			}
		}
	}
}

// TestViewFoldMatchesReload is the differential of live views: a view's
// sealed segments fold by runs from the encodings their seal or compaction
// computed and its open tail folds by rows, and every shape of runShapes
// answers bit for bit the groups of the strict reload of the view's own
// snapshot and of a store rebuilt from its rows over its layout (every
// segment freshly encoded, so no encoding of the view's reaches it), at
// Workers 1, 2, 3 and 8. The views are taken after plain seals, after
// Compact, and after an ingest that sealed one more segment, each with an
// open tail. Directories differ (exact, derived, rebuilt), so Stats agree
// on the rows matched and segments pruned.
func TestViewFoldMatchesReload(t *testing.T) {
	segRows := []int{ChunkRows + 7000, 3000, ChunkRows/2 + 100, 1}
	if testing.Short() {
		segRows = []int{ChunkRows/2 + 700, 3000, 1}
	}
	st := runStore(t, rand.New(rand.NewSource(42)), segRows)
	ls, err := store.OpenLive(t.TempDir(), store.LiveConfig{SealRows: 1 << 13, CheckpointRows: -1, Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ls.Close() })
	next := uint32(0)
	ingest := func(rows int) { // appends whole batches, one per record, until rows are held
		for ; int(next) < st.NumBatches() && ls.Rows() < rows; next++ {
			lo, hi := st.BatchRange(next)
			recs := make([]model.Instance, 0, hi-lo)
			for i := lo; i < hi; i++ {
				recs = append(recs, st.Row(i))
			}
			if len(recs) > 0 {
				if err := ls.Append(recs); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	type taken struct {
		name string
		view *store.Store
	}
	var views []taken
	take := func(name string) *store.Store {
		v := ls.View()
		sealed := ls.SealedSegments()
		if len(v.SegmentEncodings()) != sealed || len(v.Segments()) != sealed+1 || sealed == 0 {
			t.Fatalf("view %s: %d encodings, %d segments, %d sealed; want one encoding per sealed segment and an open tail", name, len(v.SegmentEncodings()), len(v.Segments()), sealed)
		}
		if err := v.Validate(); err != nil {
			t.Fatalf("view %s: %v", name, err)
		}
		views = append(views, taken{name, v})
		return v
	}
	ingest(st.Len() * 3 / 5)
	take("after seals")
	if ls.Compact(1<<15) == 0 {
		t.Fatal("Compact merged nothing")
	}
	compacted := take("after Compact")
	ingest(st.Len())
	grown := take("after an ingest that sealed")
	if len(grown.SegmentEncodings()) <= len(compacted.SegmentEncodings()) || grown.Generation() == compacted.Generation() {
		t.Fatalf("the ingest sealed nothing: %d encodings after, %d before", len(grown.SegmentEncodings()), len(compacted.SegmentEncodings()))
	}

	for _, v := range views {
		// Writing the view's snapshot would fill its tail's encoding, so the
		// reload reads the rebuilt store's snapshot, and the view's own is
		// held to those bytes once its queries ran.
		fresh := rebuilt(t, v.view)
		var snap bytes.Buffer
		if _, err := fresh.WriteTo(&snap); err != nil {
			t.Fatal(err)
		}
		strict := new(store.Store)
		if _, err := strict.ReadSnapshot(bytes.NewReader(snap.Bytes()), store.LoadOptions{Mode: store.LoadStrict}); err != nil {
			t.Fatal(err)
		}
		refs := []taken{{"strict reload", strict}, {"rebuilt store", fresh}}
		byRuns := 0
		for _, text := range runShapes() {
			q, err := ParseQuery(text)
			if err != nil {
				t.Fatal(err)
			}
			// Every unpruned sealed segment that stores the key as runs
			// folds by them; the open tail never does.
			cc, _ := bindPart(v.view, &q, mustPrepare(t, v.view, &q))
			encs := v.view.SegmentEncodings()
			for i := range cc.segs {
				key := &store.EncodedU32{}
				if i < len(encs) {
					key = &encs[i].TaskType
					if q.GroupBys[0] == GroupBatch {
						key = &encs[i].Batch
					}
				}
				want := key.Code == store.CodeRLE && !cc.bound[i].pruned
				if got := cc.runs[i] != nil; got != want {
					t.Fatalf("%s on the view %s: segment %d of %d folds by runs %v, want %v", text, v.name, i, len(cc.segs), got, want)
				}
				if want {
					byRuns++
				}
			}
			for _, w := range []int{1, 2, 3, 8} {
				q.Workers = w
				got, err := Run(v.view, q)
				if err != nil {
					t.Fatalf("%s on the view %s, workers %d: %v", text, v.name, w, err)
				}
				if len(got.Groups) == 0 || totalCount(got.Groups) != got.Stats.RowsMatched {
					t.Fatalf("%s on the view %s: %d groups hold %d of %d matched rows", text, v.name, len(got.Groups), totalCount(got.Groups), got.Stats.RowsMatched)
				}
				for _, ref := range refs {
					want, err := Run(ref.view, q)
					if err != nil {
						t.Fatalf("%s on the %s of the view %s, workers %d: %v", text, ref.name, v.name, w, err)
					}
					if !sameGroups(got.Groups, want.Groups) {
						t.Fatalf("%s, workers %d: the view %s and its %s differ\n view %+v\n  ref %+v", text, w, v.name, ref.name, got.Groups, want.Groups)
					}
					s, ws := got.Stats, want.Stats
					if s.RowsMatched != ws.RowsMatched || s.Segments != ws.Segments || s.SegmentsPruned != ws.SegmentsPruned {
						t.Fatalf("%s, workers %d: stats %+v on the view %s, %+v on its %s", text, w, s, v.name, ws, ref.name)
					}
				}
			}
		}
		if byRuns == 0 {
			t.Fatalf("no segment of the view %s folded by runs", v.name)
		}
		var own bytes.Buffer
		if _, err := v.view.WriteTo(&own); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(own.Bytes(), snap.Bytes()) {
			t.Fatalf("the view %s's snapshot differs from the rebuilt store's", v.name)
		}
	}
}

// rebuilt returns v's rows sealed afresh by Builders over v's segment
// layout: a store built in process whose encodings owe nothing to v's.
func rebuilt(t *testing.T, v *store.Store) *store.Store {
	t.Helper()
	var segs []*store.Segment
	for _, si := range v.Segments() {
		b := store.NewBuilder(si.BatchLo, si.BatchHi)
		for i := si.RowLo; i < si.RowHi; i++ {
			in := v.Row(i)
			if i == si.RowLo || in.Batch != v.Row(i-1).Batch {
				b.BeginBatch(in.Batch)
			}
			b.Append(in)
		}
		segs = append(segs, b.Seal())
	}
	st, err := store.Assemble(v.NumBatches(), segs)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(st.Segments(), v.Segments()) {
		t.Fatalf("rebuilt layout %v, view %v", st.Segments(), v.Segments())
	}
	return st
}

// mustPrepare plans q against st the way Exec does.
func mustPrepare(t *testing.T, st *store.Store, q *Query) *prepared {
	t.Helper()
	pr, _, err := planStore(st, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return pr
}

// TestRunFoldForgedRunIsCorrupt: a run whose value lies outside the key's
// zone domain fails the query with an error wrapping store.ErrCorrupt, as
// a lying key does in the row form — above and below the domain, for both
// run keys.
func TestRunFoldForgedRunIsCorrupt(t *testing.T) {
	for _, c := range []struct {
		key    string
		forged func(z store.ZoneMap, si store.SegmentInfo) uint32
		runs   func(e *store.SegmentEnc) *store.EncodedU32
	}{
		{"tasktype", func(z store.ZoneMap, _ store.SegmentInfo) uint32 { return z.TaskTypeMax + 1 },
			func(e *store.SegmentEnc) *store.EncodedU32 { return &e.TaskType }},
		{"tasktype", func(z store.ZoneMap, _ store.SegmentInfo) uint32 { return z.TaskTypeMin - 1 },
			func(e *store.SegmentEnc) *store.EncodedU32 { return &e.TaskType }},
		{"batch", func(_ store.ZoneMap, si store.SegmentInfo) uint32 { return si.BatchHi },
			func(e *store.SegmentEnc) *store.EncodedU32 { return &e.Batch }},
		{"batch", func(_ store.ZoneMap, si store.SegmentInfo) uint32 { return si.BatchLo - 1 },
			func(e *store.SegmentEnc) *store.EncodedU32 { return &e.Batch }},
	} {
		st := runStore(t, rand.New(rand.NewSource(7)), []int{4000, 9000})
		q, err := ParseQuery("group " + c.key + " | value trust")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Run(st, q); err != nil {
			t.Fatalf("group %s before forging: %v", c.key, err)
		}
		e := c.runs(&st.SegmentEncodings()[1])
		e.RunVals[len(e.RunVals)/2] = c.forged(st.ZoneMaps()[1], st.Segments()[1])
		for _, w := range []int{1, 2} {
			q.Workers = w
			if _, err := Run(st, q); !errors.Is(err, store.ErrCorrupt) {
				t.Errorf("group %s over a forged run, workers %d: err = %v, want one wrapping store.ErrCorrupt", c.key, w, err)
			}
		}
	}
}

// TestRunFoldLeavesKeyColumnCold: on a strict reload, the S1 shape and a
// batch grouping fold by runs and never materialise their key column;
// their groups equal the in-process store's.
func TestRunFoldLeavesKeyColumnCold(t *testing.T) {
	st := runStore(t, rand.New(rand.NewSource(3)), []int{20000, 5000})
	var snap bytes.Buffer
	if _, err := st.WriteTo(&snap); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		text string
		key  store.ColumnSet
	}{
		{"where duration >= 300 | group tasktype | value trust", store.ColSetTaskType},
		{"group batch | value duration | p50", store.ColSetBatch},
	} {
		twin := new(store.Store)
		if _, err := twin.ReadFrom(bytes.NewReader(snap.Bytes())); err != nil {
			t.Fatal(err)
		}
		q, err := ParseQuery(c.text)
		if err != nil {
			t.Fatal(err)
		}
		got := mustRun(t, twin, q)
		if want := mustRun(t, st, q); !sameGroups(got.Groups, want.Groups) {
			t.Fatalf("%s: the strict reload's groups differ from the store's", c.text)
		}
		if r := twin.Residency(); r&c.key != 0 {
			t.Fatalf("%s materialised its key column: residency %#x", c.text, r)
		}
	}
}

// TestKeyOrderMatchesSort: mergeFinalize emits groups in the order
// slices.SortFunc gives the keys, for dense, sparse, negative, two-key and
// presorted key sets, each in first-seen order as a chunk would leave it.
func TestKeyOrderMatchesSort(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	sets := map[string]func(n int) []gkey{
		"dense": func(n int) []gkey {
			keys := make([]gkey, n)
			for i, k := range r.Perm(n + n/3)[:n] {
				keys[i] = gkey{int64(k) + 1000}
			}
			return keys
		},
		"sparse": func(n int) []gkey {
			keys := make([]gkey, n)
			for i := range keys {
				keys[i] = gkey{r.Int63n(1 << 40)}
			}
			return keys
		},
		"negative": func(n int) []gkey {
			keys := make([]gkey, n)
			for i := range keys {
				keys[i] = gkey{int64(r.Intn(3*n+1)) - int64(2*n)}
			}
			keys = append(keys, gkey{math.MinInt64}, gkey{math.MaxInt64})
			return keys
		},
		"two-key": func(n int) []gkey {
			keys := make([]gkey, n)
			for i := range keys {
				keys[i] = gkey{int64(r.Intn(8)), int64(r.Intn(n+1)) - 3}
			}
			return keys
		},
		"presorted": func(n int) []gkey {
			keys := make([]gkey, n)
			for i := range keys {
				keys[i] = gkey{int64(i * (1 + r.Intn(3))), int64(r.Intn(2))}
			}
			return keys
		},
	}
	for name, draw := range sets {
		for _, n := range []int{0, 1, 2, 3, 17, 500, 5000} {
			var p partial
			for _, k := range draw(n) {
				p.idx.slot(k) // distinct keys in first-seen order
			}
			ng := len(p.idx.keys)
			p.matched, p.count = int64(ng), make([]int64, ng)
			for s := range p.count {
				p.count[s] = 1
			}
			q := &Query{GroupBys: []GroupBy{GroupWorker}}
			if name == "two-key" || name == "presorted" {
				q.GroupBys = append(q.GroupBys, GroupWeek)
			}
			res := &Result{}
			mergeFinalize(res, q, []span{{rows: ng}}, []partial{p})
			want := slices.Clone(p.idx.keys)
			slices.SortFunc(want, func(a, b gkey) int {
				if c := cmp.Compare(a[0], b[0]); c != 0 {
					return c
				}
				return cmp.Compare(a[1], b[1])
			})
			got := make([]gkey, len(res.Groups))
			for i, g := range res.Groups {
				got[i] = gkey{g.Key, g.Key2}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s keys, %d drawn: merged order %v, sorted %v", name, n, got, want)
			}
		}
	}
}

// TestMinMaxStep: the fold's min/max step — a value inside the bounds and
// not zero leaves them, any other goes through minMax — gives, value by
// value, math.Min and math.Max bit for bit, over sequences of ±0, ±Inf,
// NaN and values repeating a bound.
func TestMinMaxStep(t *testing.T) {
	negZero := math.Copysign(0, -1)
	specials := []float64{0, negZero, math.NaN(), math.Inf(1), math.Inf(-1), 0.5, 0.5, 1, 1, -1, 0.25, math.SmallestNonzeroFloat64}
	bitsEq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	for _, mn := range append(specials, math.Inf(1)) {
		for _, mx := range append(specials, math.Inf(-1)) {
			for _, v := range specials {
				gm, gx := minMax(mn, mx, v)
				if wm, wx := math.Min(mn, v), math.Max(mx, v); !bitsEq(gm, wm) || !bitsEq(gx, wx) {
					t.Fatalf("minMax(%v, %v, %v) = %v, %v; math.Min/Max give %v, %v", mn, mx, v, gm, gx, wm, wx)
				}
			}
		}
	}
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 2000; trial++ {
		mn, mx := math.Inf(1), math.Inf(-1)
		wm, wx := mn, mx
		var seq []float64
		for i := r.Intn(30); i >= 0; i-- {
			v := specials[r.Intn(len(specials))]
			if r.Intn(3) == 0 && len(seq) > 0 {
				v = seq[r.Intn(len(seq))] // repeat a value, often a bound
			}
			seq = append(seq, v)
			if !(v >= mn && v <= mx) || v == 0 {
				mn, mx = minMax(mn, mx, v)
			}
			wm, wx = math.Min(wm, v), math.Max(wx, v)
			if !bitsEq(mn, wm) || !bitsEq(mx, wx) {
				t.Fatalf("%s: step gives [%v, %v], math.Min/Max [%v, %v]", fmt.Sprint(seq), mn, mx, wm, wx)
			}
		}
	}
}
