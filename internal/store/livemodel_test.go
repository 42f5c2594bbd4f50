package store

import (
	"bytes"
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
		slices.Equal(a.Trusts()[:n], b.Trusts()[:n])
}

// sameStore compares everything a query can see of two stores.
func sameStore(t *testing.T, step string, got, want *Store) {
	t.Helper()
	if got.Len() != want.Len() || !samePrefix(got, want, want.Len()) {
		t.Fatalf("%s: rows diverge (%d vs %d)", step, got.Len(), want.Len())
	}
	if !reflect.DeepEqual(got.ranges, want.ranges) {
		t.Fatalf("%s: batch ranges diverge", step)
	}
	if !slices.Equal(got.Segments(), want.Segments()) {
		t.Fatalf("%s: segments %v, want %v", step, got.Segments(), want.Segments())
	}
	if !reflect.DeepEqual(got.ZoneMaps(), want.ZoneMaps()) {
		t.Fatalf("%s: zone maps diverge", step)
	}
}

// TestLiveStoreModel drives seeded random sequences of append, Compact,
// Checkpoint, close/OpenLive and View against the model, comparing after
// every step the live view with the reference build of the model's rows
// at the model's segment cuts, every checkpoint file with the reference
// build's snapshot, and every view taken earlier with what it showed
// when taken.
func TestLiveStoreModel(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := LiveConfig{SealRows: 40 + rng.Intn(60), CheckpointRows: -1, Sync: wal.SyncNone, SegmentBytes: 1 << 15}
		if seed%2 == 0 {
			cfg.CheckpointRows = 10 * cfg.SealRows
		}
		dir := t.TempDir()
		ls, err := OpenLive(dir, cfg)
		if err != nil {
			t.Fatal(err)
		}
		m := &liveModel{cfg: cfg}
		stream := genStream(100+seed, 160)

		type taken struct {
			view *Store
			rows int
			gen  uint64
			segs []SegmentInfo
		}
		var views []taken
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
				maxRows := []int{150, 400, 1 << 20}[rng.Intn(3)]
				if got, want := ls.Compact(maxRows), m.compact(maxRows); got != want {
					t.Fatalf("seed %d op %d: Compact(%d) merged %d segments, model %d", seed, op, maxRows, got, want)
				}
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
			default:
				step = "view"
			}

			v := ls.View()
			if err := v.Validate(); err != nil {
				t.Fatalf("seed %d op %d (%s): view invalid: %v", seed, op, step, err)
			}
			sameStore(t, step, v, oracleStore(t, m.rows, m.viewCuts()))
			if ls.Rows() != len(m.rows) || ls.SealedSegments() != len(m.cuts) {
				t.Fatalf("seed %d op %d (%s): %d rows in %d sealed segments, model %d in %d",
					seed, op, step, ls.Rows(), ls.SealedSegments(), len(m.rows), len(m.cuts))
			}
			if rb := ls.ViewStats().Rebuilds; rb != 0 {
				t.Fatalf("seed %d op %d (%s): %d view rebuilds", seed, op, step, rb)
			}
			views = append(views, taken{view: v, rows: v.Len(), gen: v.Generation(), segs: slices.Clone(v.Segments())})
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
					!slices.Equal(old.view.Segments(), old.segs) ||
					(old.rows <= len(m.rows) && !sameRows(rowsOf(t, old.view), m.rows[:old.rows])) {
					t.Fatalf("seed %d op %d (%s): view %d changed after it was taken", seed, op, step, i)
				}
			}
		}
		if err := ls.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
