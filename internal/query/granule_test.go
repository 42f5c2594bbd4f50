package query

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"crowdscope/internal/model"
	"crowdscope/internal/store"
	"crowdscope/internal/synth"
	"crowdscope/internal/wal"
)

// liveViewOf appends st's first batches, up to maxRows rows, to a fresh
// live store one batch per record, each row passed through edit first,
// compacts to a fixed point and returns the store and its view: compacted
// segments with recomputed granule directories, plus whatever open tail
// the last seal left.
func liveViewOf(t testing.TB, st *store.Store, maxRows, sealRows int, edit func(row int, in *model.Instance)) (*store.LiveStore, *store.Store) {
	t.Helper()
	ls, err := store.OpenLive(t.TempDir(), store.LiveConfig{SealRows: sealRows, CheckpointRows: -1, Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ls.Close() })
	for b := 0; b < st.NumBatches(); b++ {
		lo, hi := st.BatchRange(uint32(b))
		if lo == hi {
			continue
		}
		if hi > maxRows {
			break
		}
		rows := make([]model.Instance, 0, hi-lo)
		for i := lo; i < hi; i++ {
			in := st.Row(i)
			if edit != nil {
				edit(i, &in)
			}
			rows = append(rows, in)
		}
		if err := ls.Append(rows); err != nil {
			t.Fatal(err)
		}
	}
	for ls.Compact(1<<18) > 0 {
	}
	return ls, ls.View()
}

// leafMatchesRow evaluates one lowered leaf on one row the obvious way.
func leafMatchesRow(raw *rawCols, c *compiled, row int) bool {
	var v int64
	switch c.col {
	case ColTrust:
		f := float64(raw.trustCol()[row])
		return f >= c.flo && f <= c.fhi
	case ColStart:
		v = raw.startCol()[row]
	case ColEnd:
		v = raw.startCol()[row] + raw.durCol()[row]
	case ColDuration:
		v = raw.durCol()[row]
	default:
		v = int64(raw.u32Col(c.col)[row])
	}
	if c.set != nil {
		_, in := slices.BinarySearch(c.set, uint32(v))
		return in
	}
	return v >= c.lo && v <= c.hi
}

// checkGranuleVerdicts binds q the way a scan does and holds every granule
// verdict to a naive scan of the granule's rows: a dead granule holds no
// row the query matches, a clause no leaf is tested for is true of every
// row, a leaf left out of a tested clause matches no row. It returns how
// many granules it saw dead and how many clause verdicts covered.
func checkGranuleVerdicts(t *testing.T, st *store.Store, q Query) (dead, covered int) {
	t.Helper()
	pr, err := prepareQuery(&q, storeRanges(st))
	if err != nil {
		t.Fatalf("%s: %v", q.Text(), err)
	}
	raw := &rawCols{st: st}
	bound, _ := bindStore(st, pr, raw)
	grans := st.Granules()
	for i, si := range st.Segments() {
		if bound[i].pruned || i >= len(grans) {
			continue
		}
		sb := &bound[i]
		for g := range grans[i] {
			lo := si.RowLo + g*store.GranuleRows
			hi := min(lo+store.GranuleRows, si.RowHi)
			k, bit := g/chunkGranules, granMask(1)<<(g%chunkGranules)
			if sb.live[k]&bit == 0 {
				dead++
				for row := lo; row < hi; row++ {
					if refMatchesQuery(st, q.Tables, &q, row) {
						t.Fatalf("%s: segment %d granule %d judged dead but row %d matches", q.Text(), i, g, row)
					}
				}
				continue
			}
			for ci, cl := range sb.clauses {
				tested := false
				for li := range cl {
					tested = tested || cl[li].test[k]&bit != 0
				}
				if !tested {
					covered++
				}
				for row := lo; row < hi; row++ {
					any := false
					for li := range cl {
						m := leafMatchesRow(raw, cl[li].c, row)
						any = any || m
						if m && tested && cl[li].test[k]&bit == 0 {
							t.Fatalf("%s: segment %d granule %d clause %d: leaf %d judged dead but row %d matches it", q.Text(), i, g, ci, li, row)
						}
					}
					if !tested && !any {
						t.Fatalf("%s: segment %d granule %d: clause %d judged covered but row %d fails it", q.Text(), i, g, ci, row)
					}
				}
			}
		}
	}
	return dead, covered
}

// granuleQueries is the predicate table of the granule soundness test:
// eq, range and set on every column, trust ranges, duration, joined
// batch.* and worker.* predicates (lowered to ID sets at plan time) and
// OR-groups, with their constants read off rows spread over the store.
func granuleQueries(st *store.Store, tabs *SideTables) []Query {
	n := st.Len()
	at := func(frac float64) model.Instance { return st.Row(int(frac * float64(n-1))) }
	a, b, c := at(0.1), at(0.5), at(0.9)
	week := func(in model.Instance) int32 { return model.WeekOfUnix(in.Start) }
	weeks := func(in model.Instance, k int32) Predicate {
		return Range(ColStart, model.DayUnix(7*week(in)), model.DayUnix(7*(week(in)+k)))
	}
	rng := func(col Column, lo, hi int64) Predicate { return Predicate{Col: col, Lo: lo, Hi: hi} }
	mid := st.Granules()[0][len(st.Granules()[0])/2] // its batch bounds are the edge cases of the batch domain
	leaves := []Predicate{
		Eq(ColBatch, b.Batch), rng(ColBatch, int64(a.Batch), int64(a.Batch)+3), In(ColBatch, a.Batch, b.Batch, c.Batch),
		Eq(ColBatch, mid.BatchMin), Eq(ColBatch, mid.BatchMax), In(ColBatch, mid.BatchMax, c.Batch),
		Eq(ColTaskType, b.TaskType), In(ColTaskType, a.TaskType, c.TaskType), rng(ColTaskType, 0, int64(b.TaskType)),
		Eq(ColItem, b.Item), rng(ColItem, int64(a.Item), int64(a.Item)+40), In(ColItem, a.Item, b.Item, c.Item),
		Eq(ColWorker, b.Worker), In(ColWorker, a.Worker, b.Worker, c.Worker), rng(ColWorker, 0, int64(a.Worker)),
		Eq(ColAnswer, b.Answer), In(ColAnswer, a.Answer, c.Answer), rng(ColAnswer, int64(b.Answer), math.MaxUint32),
		weeks(a, 1), weeks(b, 4), rng(ColStart, c.Start, math.MaxInt64), rng(ColStart, math.MinInt64, a.Start), rng(ColStart, 1, 0),
		rng(ColEnd, b.End-86400, b.End+86400), rng(ColEnd, math.MinInt64, a.End),
		rng(ColDuration, 600, math.MaxInt64), rng(ColDuration, 0, 60), rng(ColDuration, -100, -1), rng(ColDuration, 0, math.MaxInt64),
		TrustRange(0, 1), TrustRange(0.9, 1), TrustRange(0, 0.5), TrustRange(0.8, 0.2), TrustRange(math.Inf(-1), math.Inf(1)),
		Eq(ColBatchSampled, 1), Eq(ColBatchWeek, uint32(week(b))), rng(ColBatchItems, 0, 50), rng(ColBatchRedundancy, 3, 5),
		Eq(ColWorkerClass, uint32(model.NumEngagementClasses-1)), In(ColWorkerCountry, 0, 3), Eq(ColWorkerSource, 1),
	}
	var qs []Query
	for _, p := range leaves {
		qs = append(qs, Query{Where: []Predicate{p}, Tables: tabs})
	}
	return append(qs,
		// The benchmark's point template and OR-groups over it.
		Query{Where: []Predicate{Eq(ColWorker, b.Worker), weeks(b, 4)}, Tables: tabs},
		Query{Or: [][]Predicate{{Eq(ColBatch, a.Batch), weeks(c, 1)}}, Tables: tabs},
		Query{Or: [][]Predicate{{weeks(a, 2), weeks(c, 2), TrustRange(2, 3)}}, Tables: tabs},
		Query{Where: []Predicate{weeks(b, 8)}, Or: [][]Predicate{{Eq(ColWorker, b.Worker), rng(ColDuration, 600, math.MaxInt64)}, {Eq(ColBatchSampled, 1), Eq(ColTaskType, b.TaskType)}}, Tables: tabs},
		Query{Where: []Predicate{Eq(ColWorkerClass, 3)}, Or: [][]Predicate{{Eq(ColBatchSampled, 1), rng(ColDuration, 600, math.MaxInt64)}}, Tables: tabs},
		Query{Or: [][]Predicate{{rng(ColStart, math.MinInt64, b.Start), TrustRange(0, 1)}, {Eq(ColBatchWeek, uint32(week(a))), Eq(ColBatchWeek, uint32(week(c)))}}, Tables: tabs},
	)
}

// testGranuleVerdicts is the granule half of TestZoneTestsSoundAndPinned:
// leafDisjoint and containsSeg, asked about granule zones by bindGranules,
// against naive scans — on a generated store (directories from
// Builder.Seal) and on the head of the same log as a compacted live view
// (directories recomputed by Compact, an open tail with none), the latter
// with NaN and signed-zero trusts planted.
func testGranuleVerdicts(t *testing.T) {
	ds := synth.Generate(synth.Config{Seed: 1701, Scale: 0.001, Parallelism: 3})
	tabs := NewTables(ds.Workers, ds.Batches)
	_, live := liveViewOf(t, ds.Store, 120000, 3000, func(row int, in *model.Instance) {
		switch row % 9001 {
		case 17:
			in.Trust = float32(math.NaN())
		case 4500:
			in.Trust = float32(math.Copysign(0, -1))
		}
	})
	for name, st := range map[string]*store.Store{"generated": ds.Store, "compacted live view": live} {
		granules := 0
		for _, dir := range st.Granules() {
			granules += len(dir)
		}
		if granules < 20 {
			t.Fatalf("%s: only %d granules over %d rows", name, granules, st.Len())
		}
		dead, covered := 0, 0
		for _, q := range granuleQueries(st, tabs) {
			d, c := checkGranuleVerdicts(t, st, q)
			dead, covered = dead+d, covered+c
		}
		if dead == 0 || covered == 0 {
			t.Errorf("%s: table exercised %d dead and %d covered verdicts; want both", name, dead, covered)
		}
	}
	if n := len(live.Segments()); n != len(live.Granules())+1 {
		t.Errorf("live view: %d segments, %d directories; want an open tail without one", n, len(live.Granules()))
	}
}

// clusteredStore builds a store shaped like the log: batches of a few
// hundred rows with one task type each, start times ascending with the row,
// one segment per entry of segRows.
func clusteredStore(t testing.TB, r *rand.Rand, segRows []int) *store.Store {
	t.Helper()
	var segs []*store.Segment
	batch, start := uint32(0), model.Epoch.Unix()
	for _, n := range segRows {
		first := batch
		type span struct {
			id   uint32
			rows int
		}
		var plan []span
		for left := n; left > 0; batch++ {
			rows := min(left, 150+r.Intn(600))
			plan = append(plan, span{batch, rows})
			left -= rows
		}
		b := store.NewBuilder(first, batch)
		for _, sp := range plan {
			b.BeginBatch(sp.id)
			tt := uint32(r.Intn(40))
			for i := 0; i < sp.rows; i++ {
				start += int64(r.Intn(240))
				b.Append(model.Instance{
					Batch: sp.id, TaskType: tt, Item: uint32(r.Intn(200)), Worker: uint32(r.Intn(60)),
					Start: start, End: start + int64(r.Intn(3600)), Trust: float32(r.Intn(1000)) / 999, Answer: uint32(r.Intn(40)),
				})
			}
		}
		segs = append(segs, b.Seal())
	}
	st, err := store.Assemble(int(batch), segs)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// randClusteredQuery draws a query over the full language surface whose
// constants follow clusteredStore's domains, so time windows, batch and
// joined batch predicates select narrow row ranges.
func randClusteredQuery(r *rand.Rand, st *store.Store) Query {
	n := st.Len()
	leaf := func() Predicate {
		in := st.Row(r.Intn(n))
		switch r.Intn(9) {
		case 0:
			return Range(ColStart, in.Start, in.Start+int64(r.Intn(14*86400)))
		case 1:
			return Range(ColBatch, int64(in.Batch), int64(in.Batch)+int64(r.Intn(12)))
		case 2:
			return Eq(ColBatchWeek, uint32(model.WeekOfUnix(in.Start)))
		case 3:
			return In(ColTaskType, in.TaskType, uint32(r.Intn(40)))
		case 4:
			return Predicate{Col: ColEnd, Lo: math.MinInt64, Hi: in.End}
		default:
			return randLeafEx(r)
		}
	}
	q := randQueryEx(r)
	q.Where, q.Or = nil, nil
	for k := r.Intn(3); k > 0; k-- {
		q.Where = append(q.Where, leaf())
	}
	for k := r.Intn(2); k > 0; k-- {
		q.Or = append(q.Or, []Predicate{leaf(), leaf()})
	}
	return q
}

// reparsed sends q through its canonical text and the language front end.
func reparsed(t *testing.T, q Query) Query {
	t.Helper()
	out, err := ParseQuery(q.Text())
	if err != nil {
		t.Fatalf("%s: %v", q.Text(), err)
	}
	out.Tables = q.Tables
	return out
}

// reloaded returns st's rows through a snapshot round trip in the given
// mode, the columns materialized so every store runs the same kernels.
func reloaded(t testing.TB, st *store.Store, mode store.LoadMode) *store.Store {
	t.Helper()
	var buf bytes.Buffer
	if _, err := st.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	twin := &store.Store{}
	if _, err := twin.ReadSnapshot(bytes.NewReader(buf.Bytes()), store.LoadOptions{Mode: mode}); err != nil {
		t.Fatal(err)
	}
	if err := twin.Validate(); err != nil {
		t.Fatal(err)
	}
	return twin
}

// withoutDirectory returns st's rows with no granule directory: a
// repair-mode reload, which trusts no stored zone and so derives no
// directory from them.
func withoutDirectory(t testing.TB, st *store.Store) *store.Store {
	t.Helper()
	twin := reloaded(t, st, store.LoadRepair)
	if twin.Granules() != nil {
		t.Fatalf("repair-mode twin has %d directories", len(twin.Granules()))
	}
	return twin
}

// withDerivedDirectory returns st's rows with the granule directory a
// strict reload derives from the encodings (store.Granule), one per
// segment.
func withDerivedDirectory(t testing.TB, st *store.Store) *store.Store {
	t.Helper()
	twin := reloaded(t, st, store.LoadStrict)
	if len(twin.Granules()) != len(twin.Segments()) {
		t.Fatalf("strict twin has %d directories for %d segments", len(twin.Granules()), len(twin.Segments()))
	}
	return twin
}

// TestPropertyGranuleDirectory: on a log-shaped store whose segments span
// several granules and chunks, random language queries give bit-identical
// groups with the sealed directory (every Workers value), with the one a
// strict reload derives, without one (a repair-mode reload) and by the
// naive reference scan; RowsScanned does not depend on Workers, and the
// derived directory scans no fewer rows than the sealed one and no more
// than none.
func TestPropertyGranuleDirectory(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	// 2 granules + 1,808 rows; a chunk and a 3-granule second; exactly one
	// granule; a sliver.
	st := clusteredStore(t, r, []int{10000, ChunkRows + 9000, store.GranuleRows, 300})
	twin := withoutDirectory(t, st)
	derived := withDerivedDirectory(t, st)
	tabs := randTables(r, 70, st.NumBatches())
	queries := 30
	if testing.Short() {
		queries = 10
	}
	pruned, derivedPruned := 0, 0
	for qi := 0; qi < queries; qi++ {
		q := randClusteredQuery(r, st)
		q.Tables = tabs
		q = reparsed(t, q)
		want := referenceRun(st, tabs, q)
		bare, err := Run(twin, q)
		if err != nil {
			t.Fatalf("%s without directory: %v", q.Text(), err)
		}
		if !sameGroups(bare.Groups, want) || bare.Stats.Granules != 0 {
			t.Fatalf("%s: no-directory run differs from the reference (or counts %d granules)", q.Text(), bare.Stats.Granules)
		}
		var first Stats
		for i, w := range []int{1, 2, 3, 8} {
			q.Workers = w
			res, err := Run(st, q)
			if err != nil {
				t.Fatalf("%s workers %d: %v", q.Text(), w, err)
			}
			if !sameGroups(res.Groups, want) {
				t.Fatalf("%s workers %d: groups differ from the reference\n got:  %+v\n want: %+v", q.Text(), w, res.Groups, want)
			}
			if res.Stats.RowsMatched != totalCount(want) {
				t.Fatalf("%s workers %d: matched %d rows, reference %d", q.Text(), w, res.Stats.RowsMatched, totalCount(want))
			}
			if i == 0 {
				first = res.Stats
			} else if res.Stats != first {
				t.Fatalf("%s: stats %+v at workers %d, %+v at workers 1", q.Text(), res.Stats, w, first)
			}
		}
		if first.RowsScanned > bare.Stats.RowsScanned || first.SegmentsPruned != bare.Stats.SegmentsPruned {
			t.Fatalf("%s: scanned %d rows with the directory, %d without", q.Text(), first.RowsScanned, bare.Stats.RowsScanned)
		}
		if (first.GranulesPruned > 0) != (first.RowsScanned < bare.Stats.RowsScanned) {
			t.Fatalf("%s: %d granules pruned but scanned %d against %d", q.Text(), first.GranulesPruned, first.RowsScanned, bare.Stats.RowsScanned)
		}
		pruned += first.GranulesPruned
		var loose Stats
		for i, w := range []int{1, 3} {
			q.Workers = w
			res, err := Run(derived, q)
			if err != nil {
				t.Fatalf("%s derived workers %d: %v", q.Text(), w, err)
			}
			if !sameGroups(res.Groups, want) {
				t.Fatalf("%s derived workers %d: groups differ from the reference", q.Text(), w)
			}
			if i == 0 {
				loose = res.Stats
			} else if res.Stats != loose {
				t.Fatalf("%s: derived stats %+v at workers %d, %+v at workers 1", q.Text(), res.Stats, w, loose)
			}
		}
		if loose.RowsScanned < first.RowsScanned || loose.RowsScanned > bare.Stats.RowsScanned || loose.SegmentsPruned != bare.Stats.SegmentsPruned {
			t.Fatalf("%s: derived directory scanned %d rows, sealed %d, none %d", q.Text(), loose.RowsScanned, first.RowsScanned, bare.Stats.RowsScanned)
		}
		derivedPruned += loose.GranulesPruned
	}
	if pruned == 0 || derivedPruned == 0 {
		t.Errorf("granules pruned: %d with the sealed directory, %d with the derived one; want some of each", pruned, derivedPruned)
	}
}

// TestGranulePinnedCases pins the corners of the granule scan: short last
// granules, a chunk with every granule dead, a window inside a live view's
// open tail, and the row budget at the live row count.
func TestGranulePinnedCases(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	st := clusteredStore(t, r, []int{3*ChunkRows + 5000, 10000})
	twin := withoutDirectory(t, st)
	starts := st.Starts()
	window := func(lo, hi int) Query { // the rows' own time span, inclusive
		return Query{Where: []Predicate{Range(ColStart, starts[lo], starts[hi]+1)}, GroupBys: []GroupBy{GroupBatch}, Value: ValueTrust, Workers: 1}
	}
	run := func(st *store.Store, q Query) *Result {
		t.Helper()
		res, err := Run(st, q)
		if err != nil {
			t.Fatalf("%s: %v", q.Text(), err)
		}
		if !sameGroups(res.Groups, referenceRun(st, nil, q)) {
			t.Fatalf("%s: groups differ from the reference", q.Text())
		}
		return res
	}

	t.Run("short last granule", func(t *testing.T) {
		// The last 100 rows of each segment sit in a granule shorter than
		// GranuleRows (904 and 1,808 rows).
		for i, si := range st.Segments() {
			q := window(si.RowHi-100, si.RowHi-1)
			res := run(st, q)
			short := si.Rows() % store.GranuleRows
			if res.Stats.RowsScanned != int64(short) || res.Stats.SegmentsPruned != 1 {
				t.Errorf("segment %d: scanned %d rows (%d segments pruned), want the %d-row last granule", i, res.Stats.RowsScanned, res.Stats.SegmentsPruned, short)
			}
			if g := (si.Rows() + store.GranuleRows - 1) / store.GranuleRows; res.Stats.Granules != g || res.Stats.GranulesPruned != g-1 {
				t.Errorf("segment %d: %d of %d granules pruned, want %d of %d", i, res.Stats.GranulesPruned, res.Stats.Granules, g-1, g)
			}
		}
	})

	t.Run("dead chunk", func(t *testing.T) {
		// A window inside the third chunk of segment 0: chunks 0, 1 and 3
		// have no live granule and are no tasks at all.
		lo := 2*ChunkRows + 2*store.GranuleRows + 10
		q := window(lo, lo+store.GranuleRows)
		pr, err := prepareQuery(&q, storeRanges(st))
		if err != nil {
			t.Fatal(err)
		}
		bound, tally := bindStore(st, pr, &rawCols{st: st})
		if live := bound[0].live; len(live) != 4 || live[0] != 0 || live[1] != 0 || live[2] != 0b1100 || live[3] != 0 {
			t.Fatalf("live masks %04b, want only granules 2 and 3 of chunk 2", bound[0].live)
		}
		if tally.granules != 50 || tally.granPruned != 48 || tally.granCovered != 0 {
			t.Errorf("tally %+v, want 50 granules, 48 pruned, none covered", tally)
		}
		res := run(st, q)
		if res.Stats.RowsScanned != 2*store.GranuleRows || res.Stats.RowsMatched != store.GranuleRows+1 {
			t.Errorf("scanned %d matched %d, want %d and %d", res.Stats.RowsScanned, res.Stats.RowsMatched, 2*store.GranuleRows, store.GranuleRows+1)
		}
		for _, w := range []int{2, 3, 8} {
			q.Workers = w
			if got := run(st, q); got.Stats != res.Stats {
				t.Errorf("workers %d: stats %+v, want %+v", w, got.Stats, res.Stats)
			}
		}
		// A window that covers whole granules needs no kernel there.
		q = window(2*ChunkRows-10, 2*ChunkRows+3*store.GranuleRows+10)
		ex, err := Exec(context.Background(), Source{Store: st}, q, Options{Explain: true})
		if err != nil {
			t.Fatal(err)
		}
		if pl := ex.Plan; pl.Gran.Granules != 5 || pl.Gran.Pruned != 45 || pl.Gran.Covered != 3 {
			t.Errorf("explain tallies %+v, want 5 scanned, 45 pruned, 3 covered", pl.Gran)
		}
		if res := run(st, q); res.Stats.Granules != 50 || res.Stats.GranulesPruned != 45 {
			t.Errorf("run tallies %+v disagree with EXPLAIN's %+v", res.Stats, ex.Plan.Gran)
		}
	})

	t.Run("row budget", func(t *testing.T) {
		// Live rows: granule 15 of chunk 0 through granule 1 of chunk 1.
		q := window(ChunkRows-10, ChunkRows+store.GranuleRows+10)
		if live := run(st, q).Stats.RowsScanned; live != 3*store.GranuleRows {
			t.Fatalf("scanned %d rows, want three granules", live)
		}
		// Without a directory the whole segment has to be scanned.
		if whole, seg := run(twin, q).Stats.RowsScanned, st.Segments()[0].Rows(); whole != int64(seg) {
			t.Errorf("without a directory: scanned %d rows, want segment 0's %d", whole, seg)
		}
	})

	t.Run("open tail", func(t *testing.T) {
		// Seal at 20,000 rows: the 10,000-row second segment stays open.
		ls, view := liveViewOf(t, st, st.Len(), 20000, nil)
		segs := view.Segments()
		if ls.SealedSegments() == 0 || len(segs) != ls.SealedSegments()+1 || len(view.Granules()) != len(segs)-1 {
			t.Fatalf("view has %d segments, %d sealed, %d directories; want an open tail", len(segs), ls.SealedSegments(), len(view.Granules()))
		}
		tail := segs[len(segs)-1]
		q := window(tail.RowLo+100, tail.RowHi-100)
		res := run(view, q)
		if res.Stats.RowsScanned != int64(tail.Rows()) || res.Stats.Granules != 0 || res.Stats.SegmentsPruned != len(segs)-1 {
			t.Errorf("stats %+v, want the %d-row tail scanned whole and nothing else", res.Stats, tail.Rows())
		}
		// Straddling the last sealed segment and the tail.
		q = window(tail.RowLo-100, tail.RowLo+100)
		res = run(view, q)
		last := segs[len(segs)-2]
		if want := int64(tail.Rows() + (last.Rows()-1)%store.GranuleRows + 1); res.Stats.RowsScanned != want || res.Stats.GranulesPruned != res.Stats.Granules-1 {
			t.Errorf("stats %+v, want %d rows: the tail and the last sealed granule", res.Stats, want)
		}
	})
}

// TestEachRun: the run iterator visits exactly the set granules, in
// maximal runs, clipped to the chunk's rows.
func TestEachRun(t *testing.T) {
	for _, m := range []granMask{0, 1, 0x8000, 0xFFFF, 0b0110_1101, 0xF00F, 0x5555} {
		for _, n := range []int{ChunkRows, ChunkRows - 1, 15*store.GranuleRows + 1} {
			var seen granMask
			prevEnd := -1
			m.eachRun(n, func(r0, r1, w0, w1 int) {
				g0, g1 := r0/store.GranuleRows, (r1+store.GranuleRows-1)/store.GranuleRows
				if r0%store.GranuleRows != 0 || r1 > n || w0 != r0/64 || w1 != (r1+63)/64 || g0 <= prevEnd {
					t.Fatalf("mask %016b n %d: run rows [%d,%d) words [%d,%d) after granule %d", m, n, r0, r1, w0, w1, prevEnd)
				}
				for g := g0; g < g1; g++ {
					seen |= 1 << g
				}
				prevEnd = g1
			})
			if seen != m {
				t.Errorf("mask %016b n %d: visited %016b", m, n, seen)
			}
		}
	}
	if got := liveRows(0b101, 2*store.GranuleRows+5); got != store.GranuleRows+5 {
		t.Errorf("liveRows = %d", got)
	}
	if got := liveRows(0b011, 2*store.GranuleRows+5); got != 2*store.GranuleRows {
		t.Errorf("liveRows = %d", got)
	}
}
