package query

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"crowdscope/internal/store"
)

// pack lays values out as the store's packed arrays do: sequential
// width-bit fields, least significant bit first, a field free to straddle
// two words.
func pack(vals []uint64, width uint8) []uint64 {
	words := make([]uint64, (len(vals)*int(width)+63)/64)
	for i, v := range vals {
		bit := i * int(width)
		w, b := bit>>6, uint(bit&63)
		words[w] |= v << b
		if b+uint(width) > 64 {
			words[w+1] |= v >> (64 - b)
		}
	}
	return words
}

// unpackAt is the per-row reference of the packed kernels: the width-bit
// value of row i, read the way the kernels did before the block codec.
func unpackAt(packed []uint64, width uint8, i int) uint64 {
	bit := i * int(width)
	wi, sh := bit>>6, uint(bit&63)
	v := packed[wi] >> sh
	if sh+uint(width) > 64 {
		v |= packed[wi+1] << (64 - sh)
	}
	return v & (uint64(1)<<width - 1)
}

// kernelWindows are segment-local [lo, hi) windows chosen so that neither
// edge, nor the window length, is confined to multiples of 64.
func kernelWindows(rows int) [][2]int {
	return [][2]int{{0, rows}, {1, rows - 3}, {63, 130}, {64, 128}, {5, 5 + 64}, {70, 71}, {rows - 65, rows}}
}

// frameWindows are the windows a packed kernel can be asked for: they
// start on a frame (a multiple of 64, as every window evalChunk cuts does)
// anywhere in the column, and end mid-frame, so the last word has n < 64.
func frameWindows(rows int) [][2]int {
	return [][2]int{{0, rows}, {64, rows - 3}, {64, 128}, {128, 130}, {192, 193}, {rows &^ 63, rows}}
}

// checkKernel runs one bound leaf over every window, in install mode and
// in AND mode over empty, full, sparse and word-striped incoming bitmaps,
// and holds each resulting bit to the per-row reference.
func checkKernel(t *testing.T, name string, sp segPred, windows [][2]int, want func(row int) bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(len(windows))))
	incoming := map[string]func(w int) uint64{
		"empty":   func(int) uint64 { return 0 },
		"full":    func(int) uint64 { return ^uint64(0) },
		"sparse":  func(int) uint64 { return rng.Uint64() & rng.Uint64() & rng.Uint64() },
		"striped": func(w int) uint64 { return -uint64(w & 1) }, // every other word dead
	}
	for _, win := range windows {
		lo, hi := win[0], win[1]
		words := (hi - lo + 63) / 64
		check := func(mode string, before, bm []uint64) {
			for i := 0; i < hi-lo; i++ {
				exp := want(lo+i) && before[i/64]>>(i%64)&1 == 1
				if got := bm[i/64]>>(i%64)&1 == 1; got != exp {
					t.Fatalf("%s window [%d,%d) %s: row %d got %v, reference %v", name, lo, hi, mode, lo+i, got, exp)
				}
			}
		}
		// Install mode must overwrite whatever the bitmap held.
		bm := make([]uint64, words)
		all := make([]uint64, words)
		for w := range bm {
			bm[w] = rng.Uint64()
			all[w] = ^uint64(0)
		}
		sp.eval(lo, hi, bm, true)
		check("install", all, bm)
		for mode, fill := range incoming {
			before := make([]uint64, words)
			for w := range before {
				before[w] = fill(w)
			}
			bm := append([]uint64(nil), before...)
			sp.eval(lo, hi, bm, false)
			check("and/"+mode, before, bm)
		}
	}
}

// TestKernelsMatchPerRowReference is the kernel differential test: every
// kernel kind, driven exactly as evalChunk drives it, against a per-row
// reference computed from the decoded column.
func TestKernelsMatchPerRowReference(t *testing.T) {
	const rows = 300
	rng := rand.New(rand.NewSource(41))

	u32 := make([]uint32, rows)
	i64 := make([]int64, rows)
	ends := make([]int64, rows)
	f32 := make([]float32, rows)
	for i := range u32 {
		u32[i] = uint32(rng.Intn(40))
		i64[i] = int64(rng.Intn(2000)) - 1000
		ends[i] = i64[i] + int64(rng.Intn(100))
		f32[i] = rng.Float32()
	}
	rangeC := compile([]Predicate{{Col: ColWorker, Lo: 7, Hi: 23}})[0]
	setC := compile([]Predicate{In(ColWorker, 3, 4, 11, 30, 39)})[0]
	wideSetC := compile([]Predicate{In(ColWorker, 3, 11, 39, setBitsetMaxSpan+100)})[0] // no bitset: binary search
	if setC.bs == nil || wideSetC.bs != nil {
		t.Fatal("set predicates did not land on the bitset and binary-search paths")
	}
	inRange := func(c *compiled, v int64) bool { return v >= c.lo && v <= c.hi }

	t.Run("flat", func(t *testing.T) {
		checkKernel(t, "u32 range", u32Pred(u32, &rangeC), kernelWindows(rows), func(r int) bool { return inRange(&rangeC, int64(u32[r])) })
		for _, c := range []*compiled{&setC, &wideSetC} {
			checkKernel(t, "u32 set", u32Pred(u32, c), kernelWindows(rows), func(r int) bool { return c.matchesU32(u32[r]) })
		}
		checkKernel(t, "i64 range", segPred{kind: kI64, match: matchRange(i64, -250, 400)}, kernelWindows(rows),
			func(r int) bool { return i64[r] >= -250 && i64[r] <= 400 })
		checkKernel(t, "f32 range", segPred{kind: kF32, match: matchF32(f32, 0.25, 0.75)}, kernelWindows(rows),
			func(r int) bool { return float64(f32[r]) >= 0.25 && float64(f32[r]) <= 0.75 })
		checkKernel(t, "duration", segPred{kind: kDur, match: matchDur(i64, ends, 10, 60)}, kernelWindows(rows),
			func(r int) bool { d := ends[r] - i64[r]; return d >= 10 && d <= 60 })
	})

	t.Run("rle", func(t *testing.T) {
		// Runs of 1..90 rows, so windows start and end mid-run and runs span
		// several words.
		var runVals, runEnds []uint32
		col := make([]uint32, 0, rows)
		for len(col) < rows {
			v, n := uint32(rng.Intn(40)), 1+rng.Intn(90)
			n = min(n, rows-len(col))
			for k := 0; k < n; k++ {
				col = append(col, v)
			}
			runVals, runEnds = append(runVals, v), append(runEnds, uint32(len(col)))
		}
		for _, c := range []*compiled{&rangeC, &setC, &wideSetC} {
			sp := segPred{kind: kRLE, runVals: runVals, runEnds: runEnds, c: c}
			checkKernel(t, "rle", sp, kernelWindows(rows), func(r int) bool { return c.matchesU32(col[r]) })
		}
	})

	// Every packed width, both predicate forms (range and set), against the
	// per-row unpackAt reference: odd widths put fields across word
	// boundaries, and width 64 exercises the full-word mask.
	for width := uint8(1); width <= 64; width++ {
		width := width
		t.Run(fmt.Sprintf("packed/width%d", width), func(t *testing.T) {
			maxD := uint64(1)<<width - 1
			deltas := make([]uint64, rows)
			for i := range deltas {
				deltas[i] = rng.Uint64() & maxD
			}
			packed := pack(deltas, width)
			delta := func(r int) uint64 { return unpackAt(packed, width, r) }
			dlo, dhi := maxD/4, maxD/4*3
			checkKernel(t, "for range", segPred{kind: kFOR64, match: matchFORRange(packed, width, dlo, dhi)}, frameWindows(rows),
				func(r int) bool { return delta(r) >= dlo && delta(r) <= dhi })

			if width <= 6 {
				// Dictionary codes index a mask of at most 64 entries.
				mask := rng.Uint64() & (uint64(1)<<(maxD+1) - 1)
				checkKernel(t, "dict", segPred{kind: kDict, match: matchDict(packed, width, mask)}, frameWindows(rows),
					func(r int) bool { return mask>>delta(r)&1 == 1 })
			}
			if width <= 32 {
				const ref = 5
				for _, c := range []*compiled{&setC, &wideSetC} {
					checkKernel(t, "for set", segPred{kind: kFOR32, match: matchFORSet(packed, width, ref, c)}, frameWindows(rows),
						func(r int) bool { return c.matchesU32(ref + uint32(delta(r))) })
				}
				// Trust patterns: deltas above the bit pattern of 0.25.
				fref := math.Float32bits(0.25)
				trust := func(r int) float64 { return float64(math.Float32frombits(fref + uint32(delta(r)))) }
				flo, fhi := 0.3, float64(math.Float32frombits(fref+uint32(maxD/2)))
				checkKernel(t, "f32 for", segPred{kind: kF32FOR, match: matchF32FOR(packed, width, fref, flo, fhi)}, frameWindows(rows),
					func(r int) bool { return trust(r) >= flo && trust(r) <= fhi })
			}
		})
	}
}

// TestDurationLeafBinding pins which kernel a duration leaf gets. On a
// store whose raw time columns are resident it reconstructs end-start
// (kDur); on one that arrived encoded it filters the stored end offsets
// packed (for64) and materializes neither time column; and a threshold
// every stored offset already passes binds to nothing at all, which the
// conservative zone test ([EndMin-StartMax, EndMax-StartMin]) cannot show.
func TestDurationLeafBinding(t *testing.T) {
	raw := testStore(t) // durations 60..240 in every segment
	var buf bytes.Buffer
	if _, err := raw.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	encoded := &store.Store{}
	if _, err := encoded.ReadFrom(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	kernels := func(st *store.Store, text string) map[string]int {
		t.Helper()
		q, err := ParseQuery(text)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Exec(context.Background(), Source{Store: st}, q, Options{Explain: true})
		if err != nil {
			t.Fatal(err)
		}
		if want := mustRun(t, raw, q); !reflect.DeepEqual(got.Groups, want.Groups) {
			t.Fatalf("%s: groups differ from the raw store's", text)
		}
		return got.Plan.Seg.Kernels
	}
	const filtered = "where duration >= 100 | group tasktype | value trust"
	if k := kernels(raw, filtered); !reflect.DeepEqual(k, map[string]int{"dur": 4}) {
		t.Errorf("raw-resident store binds %v, want dur=4", k)
	}
	if k := kernels(encoded, filtered); !reflect.DeepEqual(k, map[string]int{"for64": 4}) {
		t.Errorf("encoded store binds %v, want for64=4", k)
	}
	if k := kernels(encoded, "where duration >= 60 | group tasktype | value trust"); len(k) != 0 {
		t.Errorf("a threshold at the stored minimum binds %v, want no kernel", k)
	}
	// Offsets 0..180 pack at width 8: nothing can reach 60+256.
	if k := kernels(encoded, "where duration >= 316"); len(k) != 0 {
		t.Errorf("a threshold above the packed domain binds %v, want every segment pruned", k)
	}
	if r := encoded.Residency(); r&(store.ColSetStart|store.ColSetEnd) != 0 {
		t.Errorf("duration leaves materialized a time column: residency %#x", r)
	}
	// Once both time columns are resident the leaf goes back to them.
	encoded.Starts()
	encoded.Ends()
	if k := kernels(encoded, filtered); !reflect.DeepEqual(k, map[string]int{"dur": 4}) {
		t.Errorf("resident time columns bind %v, want dur=4", k)
	}
}

// TestZoneTestsSoundAndPinned holds leafDisjoint and containsSeg to a
// brute-force scan of the segment's rows for every physical column —
// disjoint means no row matches, contains means every row matches — and
// pins the verdicts themselves, so pruning decisions (and with them the
// EXPLAIN tallies) cannot drift. Its granules subtest asks the same of
// every granule verdict on real directories.
func TestZoneTestsSoundAndPinned(t *testing.T) {
	// One 6-row segment over batches [4, 7). Items are sparse (no distinct
	// set is kept for them), task types and answers keep theirs.
	type row struct {
		batch, tt, item, worker, answer uint32
		start, end                      int64
		trust                           float32
	}
	rows := []row{
		{4, 1, 10, 100, 0, 1000, 1030, 0.20},
		{4, 3, 90, 120, 2, 1010, 1100, 0.40},
		{5, 1, 50, 100, 0, 1020, 1025, 0.60},
		{5, 5, 10, 180, 2, 1040, 1200, 0.80},
		{6, 3, 70, 150, 0, 1050, 1055, 0.50},
		{6, 5, 90, 120, 2, 1060, 1090, 0.30},
	}
	z := store.ZoneMap{
		Rows: 6, TaskTypeMin: 1, TaskTypeMax: 5, ItemMin: 10, ItemMax: 90, WorkerMin: 100, WorkerMax: 180,
		AnswerMin: 0, AnswerMax: 2, StartMin: 1000, StartMax: 1060, EndMin: 1025, EndMax: 1200,
		TrustMin: 0.20, TrustMax: 0.80, TaskTypes: []uint32{1, 3, 5}, Answers: []uint32{0, 2},
	}
	si := store.SegmentInfo{RowLo: 0, RowHi: 6, BatchLo: 4, BatchHi: 7}
	// The empty segment: no rows, no batches, a zero zone.
	var emptyZ store.ZoneMap
	emptySI := store.SegmentInfo{RowLo: 6, RowHi: 6, BatchLo: 7, BatchHi: 7}

	value := func(r row, col Column) int64 {
		switch col {
		case ColBatch:
			return int64(r.batch)
		case ColTaskType:
			return int64(r.tt)
		case ColItem:
			return int64(r.item)
		case ColWorker:
			return int64(r.worker)
		case ColAnswer:
			return int64(r.answer)
		case ColStart:
			return r.start
		case ColEnd:
			return r.end
		}
		return r.end - r.start // ColDuration
	}
	rng := func(col Column, lo, hi int64) Predicate { return Predicate{Col: col, Lo: lo, Hi: hi} }

	cases := []struct {
		p                 Predicate
		empty             bool // test against the empty segment instead
		disjoint, contain bool
	}{
		// Batch: bounds come from the segment table.
		{p: rng(ColBatch, 0, 3), disjoint: true},
		{p: rng(ColBatch, 7, 9), disjoint: true},
		{p: rng(ColBatch, 6, 9)},
		{p: rng(ColBatch, 4, 6), contain: true},
		{p: In(ColBatch, 1, 9), disjoint: true}, // set members tested against the interval
		{p: In(ColBatch, 5, 9)},
		{p: In(ColBatch, 3, 4, 5, 6, 8), contain: true},
		{p: rng(ColBatch, 1, 0), disjoint: true}, // the canonical empty range
		// Task type and answer: the zone keeps the exact distinct set.
		{p: rng(ColTaskType, 2, 2), disjoint: true}, // inside the bounds, between members
		{p: rng(ColTaskType, 2, 3)},
		{p: rng(ColTaskType, 0, 9), contain: true},
		{p: In(ColTaskType, 2, 4), disjoint: true},
		{p: In(ColTaskType, 1, 4)},
		{p: In(ColTaskType, 1, 3, 5, 8), contain: true}, // superset of the distinct set, not of [1, 5]
		{p: rng(ColAnswer, 1, 1), disjoint: true},
		{p: In(ColAnswer, 0, 2), contain: true},
		{p: In(ColAnswer, 2, 3)},
		// Item and worker: bounds only.
		{p: rng(ColItem, 0, 9), disjoint: true},
		{p: rng(ColItem, 91, 200), disjoint: true},
		{p: rng(ColItem, 20, 40)}, // matches no row, but the bounds cannot tell
		{p: rng(ColItem, 10, 90), contain: true},
		{p: In(ColItem, 5, 95)}, // both members outside the bounds; sets prune on their own bounds alone
		{p: In(ColItem, 1, 5), disjoint: true},
		{p: In(ColWorker, 100, 120, 150, 180)}, // every row matches, but no distinct set proves it
		{p: rng(ColWorker, 100, 180), contain: true},
		{p: rng(ColWorker, 181, math.MaxUint32), disjoint: true},
		{p: rng(ColWorker, 3, 2), disjoint: true}, // inverted
		// Time columns.
		{p: rng(ColStart, math.MinInt64, 999), disjoint: true},
		{p: rng(ColStart, 1061, math.MaxInt64), disjoint: true},
		{p: rng(ColStart, 1030, 1045)},
		{p: rng(ColStart, 1000, 1060), contain: true},
		{p: rng(ColStart, math.MinInt64, math.MaxInt64), contain: true},
		{p: rng(ColStart, 1, 0), disjoint: true},
		{p: rng(ColEnd, 1201, 1300), disjoint: true},
		{p: rng(ColEnd, 1025, 1200), contain: true},
		{p: rng(ColEnd, 1100, 1150)},
		// Duration: judged against the conservative [EndMin-StartMax,
		// EndMax-StartMin] = [-35, 200], wider than the true [5, 160].
		{p: rng(ColDuration, 201, 500), disjoint: true},
		{p: rng(ColDuration, -100, -36), disjoint: true},
		{p: rng(ColDuration, 161, 200)}, // matches no row; only the exact range would know
		{p: rng(ColDuration, 5, 160)},   // matches every row; not provably
		{p: rng(ColDuration, -35, 200), contain: true},
		// Trust compares in float64 against the float32 zone bounds.
		{p: TrustRange(0.81, 1), disjoint: true},
		{p: TrustRange(0, 0.19), disjoint: true},
		{p: TrustRange(0.5, 0.9)},
		{p: TrustRange(0, 1), contain: true},
		{p: TrustRange(float64(float32(0.20)), float64(float32(0.80))), contain: true},
		{p: TrustRange(0.9, 0.1), disjoint: true}, // inverted: above the minimum's upper bound
		// The empty segment: a batch predicate is both disjoint and
		// (vacuously) covering; other columns see the zero zone.
		{p: rng(ColBatch, 0, 100), empty: true, disjoint: true, contain: true},
		{p: In(ColBatch, 7), empty: true, disjoint: true, contain: true},
		{p: rng(ColBatch, 1, 0), empty: true, disjoint: true, contain: true},
		{p: rng(ColWorker, 5, 9), empty: true, disjoint: true},
		{p: rng(ColWorker, 0, 9), empty: true, contain: true},
		{p: rng(ColStart, -5, 5), empty: true, contain: true},
		{p: rng(ColDuration, 1, 9), empty: true, disjoint: true},
		{p: TrustRange(0.1, 0.9), empty: true, disjoint: true},
	}
	for _, tc := range cases {
		c := compile([]Predicate{tc.p})[0]
		zone, seg, scan := &z, si, rows
		if tc.empty {
			zone, seg, scan = &emptyZ, emptySI, nil
		}
		disjoint, contain := leafDisjoint(&c, zone, seg), containsSeg(&c, zone, seg)
		name := tc.p.String()
		if tc.empty {
			name += " (empty segment)"
		}
		if disjoint != tc.disjoint || contain != tc.contain {
			t.Errorf("%s: disjoint=%v contains=%v, pinned disjoint=%v contains=%v", name, disjoint, contain, tc.disjoint, tc.contain)
		}
		matched := 0
		for _, r := range scan {
			if c.col == ColTrust {
				if v := float64(r.trust); v >= c.flo && v <= c.fhi {
					matched++
				}
			} else if v := value(r, c.col); (c.set == nil && v >= c.lo && v <= c.hi) || (c.set != nil && c.matchesU32(uint32(v))) {
				matched++
			}
		}
		if disjoint && matched != 0 {
			t.Errorf("%s: judged disjoint but %d rows match", name, matched)
		}
		if contain && matched != len(scan) {
			t.Errorf("%s: judged covering but only %d of %d rows match", name, matched, len(scan))
		}
	}
	// The same two tests judge granules (granule_test.go).
	t.Run("granules", testGranuleVerdicts)
}
