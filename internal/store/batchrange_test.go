package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"crowdscope/internal/model"
	"crowdscope/internal/wal"
)

// rangeSegments builds nseg segments over consecutive batch intervals,
// after a few leading batch IDs no segment covers. A quarter of each
// interval's batches hold no rows. Odd segments hold one row per batch, so
// their batch column is not run-length coded; even ones hold runs.
func rangeSegments(rng *rand.Rand, nseg int) (segs []*Segment, numBatches int) {
	batch := uint32(rng.Intn(3))
	for g := 0; g < nseg; g++ {
		nb := uint32(2 + rng.Intn(6))
		b := NewBuilder(batch, batch+nb)
		for k := uint32(0); k < nb; k++ {
			if rng.Intn(4) == 0 {
				continue
			}
			b.BeginBatch(batch + k)
			rows := 1
			if g%2 == 0 {
				rows = 2 + rng.Intn(40)
			}
			for i := 0; i < rows; i++ {
				b.Append(fixtureRow(batch+k, uint32(i), 1_400_000_000+int64(batch+k)*86_400+int64(i)*13))
			}
		}
		batch += nb
		segs = append(segs, b.Seal())
	}
	return segs, int(batch) + rng.Intn(3)
}

// checkBatchRanges holds BatchRange, for every batch ID up to one past
// NumBatches, and SegmentBatches to a brute-force scan of the batch
// column.
func checkBatchRanges(t *testing.T, name string, st *Store) {
	t.Helper()
	if err := st.Validate(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	col := st.Batches()
	want := map[uint32][2]int{}
	for i, b := range col {
		r, seen := want[b]
		if !seen {
			r[0] = i
		} else if r[1] != i {
			t.Fatalf("%s: batch %d rows not contiguous at row %d", name, b, i)
		}
		want[b] = [2]int{r[0], i + 1}
	}
	for b := uint32(0); b <= uint32(st.NumBatches())+1; b++ {
		w := want[b]
		if lo, hi := st.BatchRange(b); lo != w[0] || hi != w[1] {
			t.Fatalf("%s: batch %d of %d: BatchRange [%d,%d), the scan [%d,%d)", name, b, st.NumBatches(), lo, hi, w[0], w[1])
		}
	}
	walked := 0
	for k := range st.Segments() {
		st.SegmentBatches(k, func(b uint32, lo, hi int) {
			if w := want[b]; lo != w[0] || hi != w[1] {
				t.Fatalf("%s: segment %d batch %d: SegmentBatches [%d,%d), the scan [%d,%d)", name, k, b, lo, hi, w[0], w[1])
			}
			walked++
		})
	}
	if walked != len(want) {
		t.Fatalf("%s: SegmentBatches walked %d batches, the scan found %d", name, walked, len(want))
	}
}

// TestBatchRangeMatchesScan: BatchRange, derived from the batch column,
// equals a brute-force scan of it on every kind of store — assembled,
// strict reloads (run-length coded batch columns and others), a repair
// reload, an 8-shard dataset load, live views with an open tail and after
// compaction, and a recovered live store — for empty batch IDs, the first
// and last, and one past NumBatches.
func TestBatchRangeMatchesScan(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		segs, numBatches := rangeSegments(rng, 24)
		src, err := Assemble(numBatches, segs)
		if err != nil {
			t.Fatal(err)
		}
		name := func(kind string) string { return fmt.Sprintf("seed %d %s", seed, kind) }
		checkBatchRanges(t, name("assembled"), src)

		var buf bytes.Buffer
		if _, err := src.WriteSnapshot(&buf, WriteOptions{Workers: 1}); err != nil {
			t.Fatal(err)
		}
		strict := reload(t, buf.Bytes(), LoadStrict)
		codes := map[bool]int{}
		for k, e := range strict.SegmentEncodings() {
			if strict.Segments()[k].Rows() > 0 {
				codes[e.Batch.Code == CodeRLE]++
			}
		}
		if codes[true] == 0 || codes[false] == 0 {
			t.Fatalf("seed %d: strict reload's batch columns: %d run-length coded, %d not; want both", seed, codes[true], codes[false])
		}
		checkBatchRanges(t, name("strict reload"), strict)
		checkBatchRanges(t, name("repair reload"), reload(t, buf.Bytes(), LoadRepair))

		fs := newMemFS()
		d, err := OpenDataset(writeFixtureDataset(t, src, fs, 8), fs.open)
		if err != nil {
			t.Fatal(err)
		}
		if d.NumShards() != 8 {
			t.Fatalf("seed %d: %d shards, want 8", seed, d.NumShards())
		}
		loaded, _, err := d.LoadStore(LoadOptions{})
		if err != nil {
			t.Fatal(err)
		}
		checkBatchRanges(t, name("8-shard load"), loaded)

		dir := t.TempDir()
		cfg := LiveConfig{SealRows: 30, CheckpointRows: -1, Sync: wal.SyncNone}
		ls, err := OpenLive(dir, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rows := rowsOf(t, src)
		for lo := 0; lo < len(rows); {
			hi := lo
			for hi < len(rows) && rows[hi].Batch == rows[lo].Batch {
				hi++
			}
			if err := ls.Append(rows[lo:hi]); err != nil {
				t.Fatal(err)
			}
			lo = hi
		}
		view := ls.View()
		if len(view.Segments()) != ls.SealedSegments()+1 {
			t.Fatalf("seed %d: live view of %d segments, %d sealed: no open tail", seed, len(view.Segments()), ls.SealedSegments())
		}
		checkBatchRanges(t, name("live view"), view)
		if ls.Compact(1<<20) == 0 {
			t.Fatalf("seed %d: nothing compacted", seed)
		}
		checkBatchRanges(t, name("compacted view"), ls.View())
		if err := ls.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		ls.Close()
		rec, err := OpenLive(dir, cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkBatchRanges(t, name("recovered live store"), rec.View())
		rec.Close()
	}
}

// TestBuilderBatchOrder: a builder refuses a batch ID at or below the one
// it has open — a repeat would split the batch, a lower one break batch
// order — and a row of another batch than the open one.
func TestBuilderBatchOrder(t *testing.T) {
	for _, c := range []struct {
		name string
		use  func(b *Builder)
		want string
	}{
		{"repeat", func(b *Builder) { b.BeginBatch(2); b.BeginBatch(2) }, "batch 2 begun after batch 2"},
		{"lower", func(b *Builder) { b.BeginBatch(3); b.BeginBatch(1) }, "batch 1 begun after batch 3"},
		{"other row", func(b *Builder) { b.BeginBatch(1); b.Append(fixtureRow(2, 0, 0)) }, "row of batch 2 appended to batch 1"},
	} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), c.want) {
					t.Errorf("%s: recovered %v, want a panic naming %q", c.name, r, c.want)
				}
			}()
			c.use(NewBuilder(0, 5))
		}()
	}
	b := NewBuilder(0, 5)
	b.BeginBatch(0)
	b.BeginBatch(3) // skipping IDs is fine
	b.Append(fixtureRow(3, 0, 0))
	b.Seal()
}

// TestValidateBatchOrder: Validate refuses a segment whose batch column
// decreases or leaves the segment's interval.
func TestValidateBatchOrder(t *testing.T) {
	mk := func() *Store {
		return storeOf(4, []model.Instance{
			fixtureRow(0, 0, 10), fixtureRow(0, 1, 20), fixtureRow(2, 0, 30), fixtureRow(3, 0, 40),
		})
	}
	if err := mk().Validate(); err != nil {
		t.Fatal(err)
	}
	for name, edit := range map[string]func(s *Store){
		"decreasing":      func(s *Store) { s.batch[0] = 2 },
		"outside":         func(s *Store) { s.batch[3] = 4 },
		"below the first": func(s *Store) { s.segs[0].BatchLo = 1 },
	} {
		s := mk()
		edit(s)
		if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "has batch") {
			t.Errorf("%s: Validate = %v, want a batch-order error", name, err)
		}
	}
}
