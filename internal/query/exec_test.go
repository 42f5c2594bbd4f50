package query

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"crowdscope/internal/model"
	"crowdscope/internal/store"
)

// kernelWindows are segment-local [lo, hi) windows chosen so that neither
// edge, nor the window length, is confined to multiples of 64.
func kernelWindows(rows int) [][2]int {
	return [][2]int{{0, rows}, {1, rows - 3}, {63, 130}, {64, 128}, {5, 5 + 64}, {70, 71}, {rows - 65, rows}}
}

// frameWindows are the windows a packed kernel can be asked for: they
// start on a frame (a multiple of 64, as every window evalChunk cuts does)
// anywhere in the column, the last one included, and end at the column's
// end or mid-frame, so the last word may have n < 64.
func frameWindows(rows int) [][2]int {
	var out [][2]int
	for _, lo := range []int{0, 64, 128, (rows - 1) &^ 63} {
		for _, hi := range []int{rows, lo + 1, lo + 65, rows - 3} {
			if lo < hi && hi <= rows {
				out = append(out, [2]int{lo, hi})
			}
		}
	}
	return out
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
	durs := make([]int64, rows)
	f32 := make([]float32, rows)
	for i := range u32 {
		u32[i] = uint32(rng.Intn(40))
		i64[i] = int64(rng.Intn(2000)) - 1000
		durs[i] = int64(rng.Intn(100))
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
		checkKernel(t, "end", segPred{kind: kI64, match: matchEnd(i64, durs, -200, 400)}, kernelWindows(rows),
			func(r int) bool { e := i64[r] + durs[r]; return e >= -200 && e <= 400 })
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

	// The packed kernels, over the encodings a seal builds: every FOR
	// kernel must equal the flat kernel over the raw column it encodes.
	// The subtest's width is the width of the narrow frames, up to what
	// each type packs, and sets the dictionary's size. Columns end on a
	// short last frame (65 and 4097 rows end on a one-row frame) or a
	// full one.
	for width := uint(1); width <= 64; width++ {
		rows := 300
		switch {
		case width%8 == 4:
			rows = 4097
		case width < 32 && width%8 >= 1 && width%8 <= 3:
			rows = 62 + int(width%8)
		}
		t.Run(fmt.Sprintf("packed/width%d", width), func(t *testing.T) { testPackedKernels(t, rows, width) })
	}
}

// sealedColumns seals one segment of n rows and returns the raw columns
// and their encodings. Frame f of every FOR column spans w, 0, w/2 and w
// bits in turn, capped at what its type packs: worker ids; starts that
// climb from negative through zero; end offsets; and trust scores whose
// bit patterns cross the sign bit between frames (positive frames, then
// negative ones). Frame 3, where there is one, spans the widest its type
// packs while the other frames stay narrow, so the column is still FOR:
// 32 bits of ids, 63 bits of starts from -2^61 on, trust patterns of
// either sign row by row. (A column of one or two frames gets no wide
// frame: it would seal raw.) Task types take 2 + (w-1)%63 values too far
// apart to pack, each on some row: a dictionary whose codes are 1 to 6
// bits wide.
func sealedColumns(t *testing.T, n int, w uint) (workers, taskTypes []uint32, starts, durs []int64, trusts []float32, enc store.SegmentEnc) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(n) + int64(w)))
	nd := 2 + int(w-1)%63
	codes := make([]int, n)
	for i := range codes {
		codes[i] = i % nd
		if i >= nd {
			codes[i] = rng.Intn(nd)
		}
	}
	rng.Shuffle(n, func(i, j int) { codes[i], codes[j] = codes[j], codes[i] })
	workers, taskTypes = make([]uint32, n), make([]uint32, n)
	starts, durs, trusts = make([]int64, n), make([]int64, n), make([]float32, n)
	b := store.NewBuilder(0, 1)
	b.BeginBatch(0)
	for i := 0; i < n; i++ {
		f := i / 64
		fw := []uint{w, 0, w / 2, w}[f%4]
		draw := func(bits uint) uint64 { return rng.Uint64() & (uint64(1)<<min(fw, bits) - 1) }
		workers[i] = 1000 + uint32(f) + uint32(draw(31))
		taskTypes[i] = uint32(codes[i]) * 60_000_011
		starts[i] = -3000 + int64(f)*800 + int64(draw(62))
		durs[i] = int64(draw(12))
		pattern := 0x3f000000 + uint32(draw(22))
		if f%2 == 1 {
			pattern |= 1 << 31
		}
		if f == 3 {
			// Its first two rows hold the ends of each range.
			switch i % 64 {
			case 0:
				workers[i], starts[i], pattern = 3, -1<<61, 0x3f000000
			case 1:
				workers[i], starts[i], pattern = math.MaxUint32-3, 1<<62, 0xbf3fffff
			default:
				workers[i] = 3 + rng.Uint32()%(math.MaxUint32-6)
				starts[i] = -1<<61 + rng.Int63n(3<<61)
				pattern = 0x3f000000 + rng.Uint32()&0x3fffff | rng.Uint32()&(1<<31)
			}
		}
		trusts[i] = math.Float32frombits(pattern)
		b.Append(model.Instance{Worker: workers[i], TaskType: taskTypes[i], Start: starts[i], End: starts[i] + durs[i], Trust: trusts[i]})
	}
	st, err := store.Assemble(1, []*store.Segment{b.Seal()})
	if err != nil {
		t.Fatal(err)
	}
	enc = st.SegmentEncodings()[0]
	for name, code := range map[string]store.ColumnCode{"worker": enc.Worker.Code, "start": enc.Start.Code, "end offset": enc.EndOff.Code, "trust": enc.Trust.Code} {
		if code != store.CodeFOR {
			t.Fatalf("%d rows at width %d: %s column sealed as code %d, want FOR", n, w, name, code)
		}
	}
	if n > 3*64 && (enc.Worker.Width != 32 || enc.Start.Width != 63 || enc.Trust.Width != 32) {
		t.Fatalf("%d rows at width %d: worker, start and trust columns %d, %d and %d bits wide, want 32, 63 and 32",
			n, w, enc.Worker.Width, enc.Start.Width, enc.Trust.Width)
	}
	if enc.TaskType.Code != store.CodeDict || len(enc.TaskType.Dict) != nd {
		t.Fatalf("%d rows at width %d: task types sealed as code %d of %d entries, want a dictionary of %d",
			n, w, enc.TaskType.Code, len(enc.TaskType.Dict), nd)
	}
	return workers, taskTypes, starts, durs, trusts, enc
}

// flatBits holds a packed kernel to the flat kernel over the raw column:
// it returns the flat kernel's bit for one row.
func flatBits(flat matchFn, rows int) func(r int) bool {
	words := make([]uint64, (rows+63)/64)
	for w := range words {
		words[w] = flat(64*w, min(64, rows-64*w))
	}
	return func(r int) bool { return words[r/64]>>(r%64)&1 == 1 }
}

// testPackedKernels drives every packed kernel over sealed columns of n
// rows, through the binding that picks it: a FOR range leaf binds to
// nothing only when no row matches and to no kernel only when every row
// does.
func testPackedKernels(t *testing.T, n int, w uint) {
	workers, taskTypes, starts, durs, trusts, enc := sealedColumns(t, n, w)
	rng := rand.New(rand.NewSource(int64(w)))
	windows := frameWindows(n)
	forRangeLeaf := func(name string, kind predKind, flat matchFn, bind func(c *compiled) (segPred, bool), lo, hi int64) {
		t.Helper()
		c := compile([]Predicate{{Col: ColWorker, Lo: lo, Hi: hi}})[0]
		want := flatBits(flat, n)
		sp, empty := bind(&c)
		matched := 0
		for r := 0; r < n; r++ {
			if want(r) {
				matched++
			}
		}
		switch {
		case empty:
			if matched != 0 {
				t.Fatalf("%s [%d, %d]: bound empty, but %d rows match", name, lo, hi, matched)
			}
		case sp.kind == kAll:
			if matched != n {
				t.Fatalf("%s [%d, %d]: bound to every row, but %d of %d match", name, lo, hi, matched, n)
			}
		default:
			if sp.kind != kind {
				t.Fatalf("%s [%d, %d]: kernel %d, want %d", name, lo, hi, sp.kind, kind)
			}
			checkKernel(t, name, sp, windows, want)
		}
	}

	wmin, wmax := slices.Min(workers), slices.Max(workers)
	for _, r := range [][2]int64{{int64(wmin) + 5, int64(wmax) - 5}, {1000, 1100}, {int64(wmin), int64(wmax)}, {0, int64(wmin) - 1}, {int64(wmax) + 1, 1 << 40}} {
		forRangeLeaf("for32 range", kFOR32, matchRange(workers, r[0], r[1]),
			func(c *compiled) (segPred, bool) { return forRange(kFOR32, &enc.Worker, c) }, r[0], r[1])
	}
	set := compile([]Predicate{In(ColWorker, workers[0], workers[n/2], workers[n-1], wmax+1)})[0]
	checkKernel(t, "for32 set", segPred{kind: kFOR32, match: frameSet(&enc.Worker, &set)}, windows,
		flatBits(matchSet(workers, &set), n))

	smin, smax := slices.Min(starts), slices.Max(starts)
	for _, r := range [][2]int64{{-1500, 2500}, {smin, -1}, {smin / 2, smax / 2}, {smin, smax}, {math.MinInt64, smin - 1}, {smax - 1, math.MaxInt64}} {
		forRangeLeaf("for64 start", kFOR64, matchRange(starts, r[0], r[1]),
			func(c *compiled) (segPred, bool) { return forRange(kFOR64, &enc.Start, c) }, r[0], r[1])
	}
	for _, r := range [][2]int64{{100, 2000}, {0, 0}, {1, 4095}} {
		forRangeLeaf("for64 end offset", kFOR64, matchRange(durs, r[0], r[1]),
			func(c *compiled) (segPred, bool) { return forRange(kFOR64, &enc.EndOff, c) }, r[0], r[1])
	}

	for _, r := range [][2]float64{{-0.75, 0.7}, {0.6, 0.9}, {-1, -0.5}, {math.Inf(-1), math.Inf(1)}} {
		checkKernel(t, "f32for", segPred{kind: kF32FOR, match: frameF32(&enc.Trust, r[0], r[1])}, windows,
			flatBits(matchF32(trusts, r[0], r[1]), n))
	}

	// A random code mask, neither empty nor full, as a set of task types
	// plus one absent from the dictionary.
	nd := len(enc.TaskType.Dict)
	var mask uint64
	for mask == 0 || mask == uint64(1)<<nd-1 {
		mask = rng.Uint64() & (uint64(1)<<nd - 1)
	}
	ids := []uint32{5}
	for c, v := range enc.TaskType.Dict {
		if mask>>c&1 == 1 {
			ids = append(ids, v)
		}
	}
	tt := compile([]Predicate{In(ColTaskType, ids...)})[0]
	sp, empty := dictPred(&enc.TaskType, tt.matchesU32)
	if empty || sp.kind != kDict {
		t.Fatalf("dictionary leaf bound to kernel %d (empty %v), want dict", sp.kind, empty)
	}
	checkKernel(t, "dict", sp, windows, flatBits(matchSet(taskTypes, &tt), n))
}

// TestFrameRangeVerdicts holds frameRange to the unpack its directory
// verdicts skip. Each column is one sealed segment of canonical frames:
// every third frame is drawn at a tested width — 0, 1, 31 or 32 bits of
// uint32 ids up to 2^32-1; 0, 1, 31 or 63 bits of int64 starts, negative
// down to -2^63, positive up to 2^63-1, or across zero — with its
// reference at either end of the column's range or between; the frames in
// between are 8 bits wide, so the column seals FOR; the last frame is
// short. The ranges, tried on every frame, come from the tested frames:
// empty (hi < lo), one value, straddling the frame's bottom or top,
// covering it, its exact bounds, and the whole type. Every word must equal
// rangeBits over the frame's unpacked deltas and over its values, and each
// of the three verdicts must be reached for every column kind.
func TestFrameRangeVerdicts(t *testing.T) {
	const frames, short = 25, 17
	rows := frames*64 - short
	kinds := []struct {
		name   string
		lo, hi int64 // the column's values lie in [lo, hi], hi-lo < 2^63
		widths []uint
		u32    bool
	}{
		{"uint32", 0, math.MaxUint32, []uint{0, 1, 31, 32}, true},
		{"int64 negative", math.MinInt64, -1, []uint{0, 1, 31, 63}, false},
		{"int64 positive", 0, math.MaxInt64, []uint{63, 0, 1, 31}, false},
		{"int64 across zero", -1 << 62, 1<<62 - 1, []uint{31, 63, 0, 1}, false},
	}
	for _, k := range kinds {
		tmin, tmax := int64(math.MinInt64), int64(math.MaxInt64)
		if k.u32 {
			tmin, tmax = 0, math.MaxUint32
		}
		add := func(v int64, d uint64) int64 { // v+d, saturating at tmax
			if d > uint64(tmax)-uint64(v) {
				return tmax
			}
			return int64(uint64(v) + d)
		}
		sub := func(v int64, d uint64) int64 { // v-d, saturating at tmin
			if d > uint64(v)-uint64(tmin) {
				return tmin
			}
			return int64(uint64(v) - d)
		}
		var verdicts [3]int
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			vals := make([]int64, rows)
			refs, spans := make([]int64, frames), make([]uint64, frames)
			var ranges [][2]int64
			for f := 0; f < frames; f++ {
				w := uint(8)
				if f%3 == 0 {
					w = k.widths[f/3%len(k.widths)]
				}
				fspan := uint64(1)<<w - 1
				room := uint64(k.hi) - uint64(k.lo) - fspan
				ref := k.lo
				switch rng.Intn(3) {
				case 1:
					ref = int64(uint64(k.lo) + room)
				case 2:
					ref = int64(uint64(k.lo) + rng.Uint64()%(room+1))
				}
				// Canonical: one delta 0, one with the width's top bit.
				m := min(64, rows-64*f)
				fv := vals[64*f : 64*f+m]
				lo, top := rng.Intn(m), rng.Intn(m-1)
				if top >= lo {
					top++
				}
				for i := range fv {
					d := rng.Uint64() & fspan
					switch {
					case i == lo:
						d = 0
					case i == top && w > 0:
						d |= 1 << (w - 1)
					}
					fv[i] = int64(uint64(ref) + d)
				}
				refs[f], spans[f] = ref, fspan
				if f%3 != 0 {
					continue
				}
				v := fv[rng.Intn(m)]
				x := uint64(rng.Intn(1000))
				end := add(ref, fspan)
				ranges = append(ranges,
					[2]int64{v, sub(v, 1)}, [2]int64{add(v, 1), v}, // empty
					[2]int64{v, v},
					[2]int64{sub(ref, x), add(ref, fspan/2)},
					[2]int64{add(ref, fspan/2), add(end, x)},
					[2]int64{sub(ref, x), add(end, x)},
					[2]int64{ref, end},
					[2]int64{tmin, tmax})
			}
			b := store.NewBuilder(0, 1)
			b.BeginBatch(0)
			for _, v := range vals {
				in := model.Instance{Start: v, End: v}
				if k.u32 {
					in = model.Instance{Worker: uint32(v)}
				}
				b.Append(in)
			}
			st, err := store.Assemble(1, []*store.Segment{b.Seal()})
			if err != nil {
				t.Fatal(err)
			}
			enc := st.SegmentEncodings()[0]
			if k.u32 {
				checkFrameVerdicts(t, k.name, &enc.Worker, vals, refs, spans, ranges, &verdicts)
			} else {
				checkFrameVerdicts(t, k.name, &enc.Start, vals, refs, spans, ranges, &verdicts)
			}
		}
		t.Logf("%s: mixed, in, out %v", k.name, verdicts)
		for v, n := range verdicts {
			if n == 0 {
				t.Errorf("%s: verdict %d never reached (mixed, in, out: %v)", k.name, v, verdicts)
			}
		}
	}
}

// checkFrameVerdicts runs frameRange over every frame of e for every
// range, against rangeBits over the unpacked deltas and over the values,
// and tallies the verdicts; refs and spans are the frames as drawn.
func checkFrameVerdicts[T uint32 | int64](t *testing.T, name string, e *store.Encoded[T], vals, refs []int64, spans []uint64, ranges [][2]int64, verdicts *[3]int) {
	t.Helper()
	if e.Code != store.CodeFOR {
		t.Fatalf("%s: column sealed as code %d, want FOR", name, e.Code)
	}
	for f := range refs {
		if ref, fspan := e.FrameBounds(f); ref != uint64(refs[f]) || fspan != spans[f] {
			t.Fatalf("%s frame %d: bounds (%#x, %#x), drawn (%#x, %#x)", name, f, ref, fspan, uint64(refs[f]), spans[f])
		}
	}
	for _, r := range ranges {
		plo, phi := r[0], r[1]
		match := frameRange(e, plo, phi)
		lo, span := uint64(plo), uint64(phi)-uint64(plo)
		for f := range refs {
			n := min(64, len(vals)-64*f)
			got := match(64*f, n)
			var want, flat uint64
			if phi >= plo {
				var deltas [64]uint64
				ref := e.Frame(&deltas, f)
				want = rangeBits(deltas[:n], lo-ref, span)
				flat = rangeBits(vals[64*f:64*f+n], lo, span)
				fref, fspan := e.FrameBounds(f)
				verdicts[frameVerdict(fref-lo, fspan, span)]++
			}
			if got != want || got != flat {
				t.Fatalf("%s frame %d range [%d, %d]: word %#x, unpacked %#x, values %#x", name, f, plo, phi, got, want, flat)
			}
		}
	}
}

// TestDurationLeafBinding pins which kernel a duration leaf gets. On a
// store whose raw duration column is resident it compares that column
// (raw64); on one that arrived encoded it filters the stored end offsets
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
	if k := kernels(raw, filtered); !reflect.DeepEqual(k, map[string]int{"raw64": 4}) {
		t.Errorf("raw-resident store binds %v, want raw64=4", k)
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
	// Once the raw columns are resident the leaf goes back to them.
	encoded.Starts()
	encoded.Ends()
	if k := kernels(encoded, filtered); !reflect.DeepEqual(k, map[string]int{"raw64": 4}) {
		t.Errorf("resident time columns bind %v, want raw64=4", k)
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
