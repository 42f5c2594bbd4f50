package store

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"crowdscope/internal/model"
	"crowdscope/internal/wal"
)

// oracleStore replays rows through the reference build path — one
// Builder per segment, Seal, Assemble — cutting segments at the given
// ascending row boundaries (each the RowHi of a segment).
func oracleStore(t testing.TB, rows []model.Instance, cuts []int) *Store {
	t.Helper()
	var segs []*Segment
	lo := 0
	for _, hi := range cuts {
		b := NewBuilder(rows[lo].Batch, rows[hi-1].Batch+1)
		for i := lo; i < hi; i++ {
			if i == lo || rows[i].Batch != rows[i-1].Batch {
				b.BeginBatch(rows[i].Batch)
			}
			b.Append(rows[i])
		}
		segs = append(segs, b.Seal())
		lo = hi
	}
	nb := 0
	if lo > 0 {
		nb = int(rows[lo-1].Batch) + 1
	}
	st, err := Assemble(nb, segs)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// liveModel is the trivially correct model of a LiveStore: the row log,
// the row boundaries of its sealed segments, and what the last
// checkpoint persisted.
type liveModel struct {
	cfg      LiveConfig
	recs     [][]model.Instance
	recRow   []int // recRow[i] is the row offset of recs[i]
	rows     []model.Instance
	cuts     []int
	ckptCuts []int
	ckpts    int
}

func (m *liveModel) sealRows() int {
	if len(m.cuts) == 0 {
		return 0
	}
	return m.cuts[len(m.cuts)-1]
}

// apply is the seal rule: at a record boundary, once the open tail has
// SealRows rows and the batch ID advances.
func (m *liveModel) apply(rec []model.Instance) {
	n := len(m.rows)
	if open := n - m.sealRows(); open >= m.cfg.SealRows && rec[0].Batch > m.rows[n-1].Batch {
		m.cuts = append(m.cuts, n)
	}
	m.rows = append(m.rows, rec...)
}

func (m *liveModel) append(rec []model.Instance) {
	m.recs = append(m.recs, rec)
	m.recRow = append(m.recRow, len(m.rows))
	m.apply(rec)
	ckptRows := 0
	if len(m.ckptCuts) > 0 {
		ckptRows = m.ckptCuts[len(m.ckptCuts)-1]
	}
	if m.cfg.CheckpointRows > 0 && m.sealRows()-ckptRows >= m.cfg.CheckpointRows {
		m.checkpoint()
	}
}

// compact is the greedy plan: runs of ≥2 adjacent segments within maxRows.
func (m *liveModel) compact(maxRows int) int {
	var out []int
	removed, lo := 0, 0
	for i := 0; i < len(m.cuts); {
		j := i
		for j < len(m.cuts) && m.cuts[j]-lo <= maxRows {
			j++
		}
		if j-i >= 2 {
			removed += j - i - 1
			i = j
		} else {
			i++
		}
		out = append(out, m.cuts[i-1])
		lo = m.cuts[i-1]
	}
	m.cuts = out
	return removed
}

func (m *liveModel) checkpoint() {
	m.ckptCuts = slices.Clone(m.cuts)
	m.ckpts++
}

// reopen is recovery: the checkpointed layout, then the records past it
// re-applied (and so re-sealed at the seal rule's own boundaries).
func (m *liveModel) reopen() {
	m.cuts = slices.Clone(m.ckptCuts)
	sealed := m.sealRows()
	m.rows = m.rows[:sealed]
	for i, rec := range m.recs {
		if m.recRow[i] >= sealed {
			m.apply(rec)
		}
	}
}

// viewCuts returns the segment boundaries a view of the model shows: the
// sealed cuts plus the open tail.
func (m *liveModel) viewCuts() []int {
	cuts := slices.Clone(m.cuts)
	if len(m.rows) > m.sealRows() {
		cuts = append(cuts, len(m.rows))
	}
	return cuts
}

// sameBits compares trust values by bit pattern — -0 differs from +0 —
// except that NaN equals NaN whatever its payload, which builtin min and
// max do not preserve.
func sameBits(x, y float32) bool {
	return math.Float32bits(x) == math.Float32bits(y) || (x != x && y != y)
}

// samePrefix reports whether the first n rows of a and b are equal,
// column by column.
func samePrefix(a, b *Store, n int) bool {
	return a.Len() >= n && b.Len() >= n &&
		slices.Equal(a.Batches()[:n], b.Batches()[:n]) &&
		slices.Equal(a.TaskTypes()[:n], b.TaskTypes()[:n]) &&
		slices.Equal(a.Items()[:n], b.Items()[:n]) &&
		slices.Equal(a.Workers()[:n], b.Workers()[:n]) &&
		slices.Equal(a.Answers()[:n], b.Answers()[:n]) &&
		slices.Equal(a.Starts()[:n], b.Starts()[:n]) &&
		slices.Equal(a.Ends()[:n], b.Ends()[:n]) &&
		slices.EqualFunc(a.Trusts()[:n], b.Trusts()[:n], sameBits)
}

// sameZone compares two zone maps field for field, trust bounds by bit
// pattern and a nil distinct set (overflowed) apart from an empty one.
func sameZone(a, b ZoneMap) bool {
	if !sameBits(a.TrustMin, b.TrustMin) || !sameBits(a.TrustMax, b.TrustMax) {
		return false
	}
	a.TrustMin, a.TrustMax, b.TrustMin, b.TrustMax = 0, 0, 0, 0
	return reflect.DeepEqual(a, b)
}

func sameGranule(a, b Granule) bool {
	return a.BatchMin == b.BatchMin && a.BatchMax == b.BatchMax && sameZone(a.ZoneMap, b.ZoneMap)
}

func sameDirectories(a, b [][]Granule) bool {
	return slices.EqualFunc(a, b, func(x, y []Granule) bool { return slices.EqualFunc(x, y, sameGranule) })
}

// naiveZone summarizes rows the obvious way, sharing nothing with
// foldZone: per column a map for the distinct values, explicit NaN and
// signed-zero rules for trust (NaN poisons a bound; -0 is below +0).
func naiveZone(rows []model.Instance) ZoneMap {
	z := ZoneMap{Rows: len(rows)}
	if len(rows) == 0 {
		return z
	}
	u32 := func(get func(model.Instance) uint32, keepSet bool) (lo, hi uint32, set []uint32) {
		seen := map[uint32]bool{}
		lo, hi = math.MaxUint32, 0
		for _, r := range rows {
			v := get(r)
			seen[v] = true
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if keepSet && len(seen) <= zoneEnumCap {
			for v := range seen {
				set = append(set, v)
			}
			slices.Sort(set)
		}
		return lo, hi, set
	}
	z.TaskTypeMin, z.TaskTypeMax, z.TaskTypes = u32(func(r model.Instance) uint32 { return r.TaskType }, true)
	z.AnswerMin, z.AnswerMax, z.Answers = u32(func(r model.Instance) uint32 { return r.Answer }, true)
	z.ItemMin, z.ItemMax, _ = u32(func(r model.Instance) uint32 { return r.Item }, false)
	z.WorkerMin, z.WorkerMax, _ = u32(func(r model.Instance) uint32 { return r.Worker }, false)
	z.StartMin, z.StartMax, z.EndMin, z.EndMax = math.MaxInt64, math.MinInt64, math.MaxInt64, math.MinInt64
	z.TrustMin, z.TrustMax = rows[0].Trust, rows[0].Trust
	for _, r := range rows {
		z.StartMin, z.StartMax = min(z.StartMin, r.Start), max(z.StartMax, r.Start)
		z.EndMin, z.EndMax = min(z.EndMin, r.End), max(z.EndMax, r.End)
		t := r.Trust
		switch {
		case t != t:
			z.TrustMin, z.TrustMax = t, t
			continue
		case z.TrustMin != z.TrustMin: // already poisoned
			continue
		}
		if t < z.TrustMin || (t == z.TrustMin && math.Signbit(float64(t))) {
			z.TrustMin = t
		}
		if t > z.TrustMax || (t == z.TrustMax && !math.Signbit(float64(t))) {
			z.TrustMax = t
		}
	}
	return z
}

// naiveGranules is the from-scratch granule directory of one segment's
// rows.
func naiveGranules(rows []model.Instance) []Granule {
	var dir []Granule
	for lo := 0; lo < len(rows); lo += GranuleRows {
		part := rows[lo:min(lo+GranuleRows, len(rows))]
		g := Granule{ZoneMap: naiveZone(part), BatchMin: math.MaxUint32}
		for _, r := range part {
			g.BatchMin, g.BatchMax = min(g.BatchMin, r.Batch), max(g.BatchMax, r.Batch)
		}
		dir = append(dir, g)
	}
	return dir
}

// checkDirectories holds a view's granule directories to the from-scratch
// recompute over the model's rows and to the reference build's, and each
// directory's merge to the zone map folded straight over the span.
func checkDirectories(t *testing.T, step string, v, oracle *Store, rows []model.Instance, sealed int) {
	t.Helper()
	dirs := v.Granules()
	if len(dirs) != sealed {
		t.Fatalf("%s: %d granule directories for %d sealed segments", step, len(dirs), sealed)
	}
	if !sameDirectories(dirs, oracle.Granules()[:sealed]) {
		t.Fatalf("%s: granule directories differ from the reference build's", step)
	}
	for i, dir := range dirs {
		si := v.Segments()[i]
		if !slices.EqualFunc(dir, naiveGranules(rows[si.RowLo:si.RowHi]), sameGranule) {
			t.Fatalf("%s: segment %d rows [%d,%d): directory differs from the from-scratch recompute", step, i, si.RowLo, si.RowHi)
		}
		direct := computeZoneMap(&v.columns, si.RowLo, si.RowHi)
		zs := make([]ZoneMap, len(dir))
		for g := range dir {
			zs[g] = dir[g].ZoneMap
		}
		if merged := MergeZoneMaps(zs); !sameZone(merged, direct) || !sameZone(merged, v.ZoneMaps()[i]) || !sameZone(merged, naiveZone(rows[si.RowLo:si.RowHi])) {
			t.Fatalf("%s: segment %d: merged directory %+v, computeZoneMap %+v, catalogue %+v", step, i, merged, direct, v.ZoneMaps()[i])
		}
	}
}

// sameStore compares everything a query can see of two stores.
func sameStore(t *testing.T, step string, got, want *Store) {
	t.Helper()
	if got.Len() != want.Len() || !samePrefix(got, want, want.Len()) {
		t.Fatalf("%s: rows diverge (%d vs %d)", step, got.Len(), want.Len())
	}
	if got.NumBatches() != want.NumBatches() {
		t.Fatalf("%s: %d batches, want %d", step, got.NumBatches(), want.NumBatches())
	}
	for b := uint32(0); b <= uint32(want.NumBatches()); b++ {
		glo, ghi := got.BatchRange(b)
		if wlo, whi := want.BatchRange(b); glo != wlo || ghi != whi {
			t.Fatalf("%s: batch %d range [%d,%d), want [%d,%d)", step, b, glo, ghi, wlo, whi)
		}
	}
	if !slices.Equal(got.Segments(), want.Segments()) {
		t.Fatalf("%s: segments %v, want %v", step, got.Segments(), want.Segments())
	}
	if !slices.EqualFunc(got.ZoneMaps(), want.ZoneMaps(), sameZone) {
		t.Fatalf("%s: zone maps diverge", step)
	}
}

// wideStream is genStream at granule scale with hostile values: records of
// up to 500 rows, more task types and answers than a zone's distinct set
// holds (in runs, so some granules keep theirs), NaN and signed-zero
// trusts.
func wideStream(seed int64, nRecs int) [][]model.Instance {
	rng := rand.New(rand.NewSource(seed))
	batch, start, tt := uint32(0), int64(1_700_000_000_000), uint32(0)
	recs := make([][]model.Instance, nRecs)
	for r := range recs {
		rows := make([]model.Instance, 1+rng.Intn(500))
		for i := range rows {
			if rng.Intn(40) == 0 || (i == 0 && rng.Intn(2) == 0) { // a seal needs a new batch at a record's head
				batch += uint32(rng.Intn(3))
				tt = uint32(rng.Intn(3 * zoneEnumCap))
			}
			start += int64(rng.Intn(5000))
			trust := rng.Float32()
			switch rng.Intn(300) {
			case 0:
				trust = float32(math.NaN())
			case 1:
				trust = 0
			case 2:
				trust = float32(math.Copysign(0, -1))
			}
			rows[i] = model.Instance{
				Batch: batch, TaskType: tt, Item: uint32(rng.Intn(10000)), Worker: uint32(rng.Intn(500)),
				Start: start, End: start + int64(rng.Intn(120000)), Trust: trust,
				Answer: uint32(r/8*4 + rng.Intn(4)),
			}
		}
		recs[r] = rows
	}
	return recs
}

// TestLiveStoreModel drives seeded random sequences of append, Compact,
// Checkpoint, close/OpenLive and View against the model, comparing after
// every step the live view with the reference build of the model's rows
// at the model's segment cuts, every segment's granule directory with a
// from-scratch recompute, every checkpoint file with the reference
// build's snapshot, and every view taken earlier with what it showed
// when taken. Seed 7 runs at granule scale — segments of several
// granules, compacted into longer ones — over hostile values.
func TestLiveStoreModel(t *testing.T) {
	for seed := int64(1); seed <= 7; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := LiveConfig{SealRows: 40 + rng.Intn(60), CheckpointRows: -1, Sync: wal.SyncNone, SegmentBytes: 1 << 15}
		if seed%2 == 0 {
			cfg.CheckpointRows = 10 * cfg.SealRows
		}
		stream := genStream(100+seed, 160)
		compactRows := []int{150, 400, 1 << 20}
		if seed > 6 {
			cfg.SealRows, cfg.SegmentBytes = 3000+rng.Intn(3000), 1<<20
			cfg.CheckpointRows = 3 * cfg.SealRows
			stream = wideStream(100+seed, 110)
			compactRows = []int{9000, 14000, 1 << 20}
		}
		dir := t.TempDir()
		ls, err := OpenLive(dir, cfg)
		if err != nil {
			t.Fatal(err)
		}
		m := &liveModel{cfg: cfg}

		type taken struct {
			view *Store
			rows int
			gen  uint64
			segs []SegmentInfo
			dirs [][]Granule
		}
		var views []taken
		longest, merged, reopens := 0, 0, 0 // what the run exercised
		checkCkpt := func(step string) {
			got, err := os.ReadFile(filepath.Join(dir, ckptName(uint64(m.ckpts))))
			if err != nil {
				t.Fatalf("%s: %v", step, err)
			}
			var want bytes.Buffer
			if _, err := oracleStore(t, m.rows, m.ckptCuts).WriteSnapshot(&want, WriteOptions{}); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("%s: checkpoint %d differs from the reference build's snapshot", step, m.ckpts)
			}
		}
		for op := 0; len(stream) > 0; op++ {
			step := ""
			switch k := rng.Intn(30); {
			case k < 22:
				step = "append"
				ckpts := m.ckpts
				m.append(stream[0])
				if err := ls.Append(stream[0]); err != nil {
					t.Fatalf("seed %d op %d: %v", seed, op, err)
				}
				stream = stream[1:]
				if m.ckpts != ckpts {
					checkCkpt("auto-checkpoint")
				}
			case k < 26:
				step = "compact"
				maxRows := compactRows[rng.Intn(3)]
				got, want := ls.Compact(maxRows), m.compact(maxRows)
				if got != want {
					t.Fatalf("seed %d op %d: Compact(%d) merged %d segments, model %d", seed, op, maxRows, got, want)
				}
				merged += got
			case k < 27:
				step = "checkpoint"
				m.checkpoint()
				if err := ls.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				checkCkpt(step)
			case k < 28:
				step = "reopen"
				if err := ls.Close(); err != nil {
					t.Fatal(err)
				}
				m.reopen()
				if ls, err = OpenLive(dir, cfg); err != nil {
					t.Fatalf("seed %d op %d: reopen: %v", seed, op, err)
				}
				reopens++
			default:
				step = "view"
			}

			v := ls.View()
			if err := v.Validate(); err != nil {
				t.Fatalf("seed %d op %d (%s): view invalid: %v", seed, op, step, err)
			}
			oracle := oracleStore(t, m.rows, m.viewCuts())
			sameStore(t, step, v, oracle)
			checkDirectories(t, step, v, oracle, m.rows, len(m.cuts))
			if ls.Rows() != len(m.rows) || ls.SealedSegments() != len(m.cuts) {
				t.Fatalf("seed %d op %d (%s): %d rows in %d sealed segments, model %d in %d",
					seed, op, step, ls.Rows(), ls.SealedSegments(), len(m.rows), len(m.cuts))
			}
			if rb := ls.ViewStats().Rebuilds; rb != 0 {
				t.Fatalf("seed %d op %d (%s): %d view rebuilds", seed, op, step, rb)
			}
			// A deep copy, so that an edit in place under the view shows.
			dirs := make([][]Granule, len(v.Granules()))
			for i, d := range v.Granules() {
				longest = max(longest, len(d))
				dirs[i] = slices.Clone(d)
				for g := range dirs[i] {
					dirs[i][g].TaskTypes = slices.Clone(d[g].TaskTypes)
					dirs[i][g].Answers = slices.Clone(d[g].Answers)
				}
			}
			views = append(views, taken{view: v, rows: v.Len(), gen: v.Generation(), segs: slices.Clone(v.Segments()), dirs: dirs})
			// The oldest view, the newest before this one, and a random one.
			for _, i := range []int{0, len(views) - 2, rng.Intn(len(views))} {
				if i < 0 {
					continue
				}
				old := views[i]
				if err := old.view.Validate(); err != nil {
					t.Fatalf("seed %d op %d (%s): view %d no longer valid: %v", seed, op, step, i, err)
				}
				// Rows before a reopen may have been re-applied since, but the
				// record stream — and so every prefix of it — is the same.
				if old.view.Len() != old.rows || old.view.Generation() != old.gen ||
					!slices.Equal(old.view.Segments(), old.segs) || !sameDirectories(old.view.Granules(), old.dirs) ||
					(old.rows <= len(m.rows) && !sameRows(rowsOf(t, old.view), m.rows[:old.rows])) {
					t.Fatalf("seed %d op %d (%s): view %d changed after it was taken", seed, op, step, i)
				}
			}
		}
		if err := ls.Close(); err != nil {
			t.Fatal(err)
		}
		if seed > 6 && (longest < 3 || merged == 0 || reopens == 0 || m.ckpts == 0) {
			t.Errorf("seed %d: longest directory %d granules, %d segments merged, %d reopens, %d checkpoints; want every one exercised",
				seed, longest, merged, reopens, m.ckpts)
		}
	}
}
