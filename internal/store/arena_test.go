package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// encBlocks serializes encodings block by block: the canonical form two
// encodings of the same rows agree on, however they came to be in memory.
func encBlocks(encs []SegmentEnc) [][]byte {
	out := make([][]byte, len(encs))
	for i := range encs {
		var buf bytes.Buffer
		serializeEncBlock(&buf, &encs[i])
		out[i] = buf.Bytes()
	}
	return out
}

// agree holds got to want on everything a reader can see: every column,
// batch range and segment, the zone maps, and the encodings of the leading
// run of segments got carries them for.
func agree(t *testing.T, label string, want, got *Store) {
	t.Helper()
	compareStores(t, want, got, true)
	if !reflect.DeepEqual(got.ZoneMaps(), want.ZoneMaps()) {
		t.Fatalf("%s: zone maps differ", label)
	}
	if encs := got.SegmentEncodings(); len(encs) > 0 && !reflect.DeepEqual(encBlocks(encs), encBlocks(want.encodings()[:len(encs)])) {
		t.Fatalf("%s: segment encodings differ", label)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
}

// randomSegments seals a seeded random layout: 1–9 segments of 0–3
// batches each (an empty interval seals an empty segment), some batches
// without rows.
func randomSegments(rng *rand.Rand) (segs []*Segment, numBatches int) {
	batch := uint32(0)
	for p, n := 0, 1+rng.Intn(9); p < n; p++ {
		nb := uint32(rng.Intn(4))
		b := NewBuilder(batch, batch+nb)
		for k := uint32(0); k < nb; k++ {
			if p > 0 && rng.Intn(4) == 0 {
				continue
			}
			b.BeginBatch(batch + k)
			for i, rows := 0, 1+rng.Intn(300); i < rows; i++ {
				b.Append(fixtureRow(batch+k, uint32(i), 1_400_000_000+int64(batch+k)*86_400+int64(i)*13))
			}
		}
		batch += nb
		segs = append(segs, b.Seal())
	}
	if batch == 0 { // the layout must hold a row for WriteDataset to shard
		return randomSegments(rng)
	}
	return segs, int(batch) + rng.Intn(3)
}

func reload(t *testing.T, raw []byte, mode LoadMode) *Store {
	t.Helper()
	st := new(Store)
	if _, err := st.ReadSnapshot(bytes.NewReader(raw), LoadOptions{Mode: mode}); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestConcatDifferential: Assemble and Dataset.LoadStore are one
// concatenation, so for random layouts the store Assemble builds, the store
// WriteDataset → LoadStore rebuilds and a single-file snapshot round trip
// agree; an all-encoded concat materializes nothing; one raw-only part
// makes it materialize everything; and a part repair mode skipped leaves
// exactly the rest.
func TestConcatDifferential(t *testing.T) {
	for seed := int64(1); seed <= 16; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			segs, numBatches := randomSegments(rng)
			want, err := Assemble(numBatches, segs)
			if err != nil {
				t.Fatal(err)
			}
			agree(t, "snapshot round trip", want, encodedTwin(t, want))

			fs := newMemFS()
			man := writeFixtureDataset(t, want, fs, 1+rng.Intn(len(segs)))
			d, err := OpenDataset(man, fs.open)
			if err != nil {
				t.Fatal(err)
			}
			loaded, _, err := d.LoadStore(LoadOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if r := loaded.Residency(); want.Len() > 0 && r != 0 {
				t.Fatalf("all-encoded concat materialized columns %#x", r)
			}
			agree(t, "dataset round trip", want, loaded)

			// One raw-only part among encoded-only ones: everything
			// materializes, and the encodings stay for the leading run of
			// segments before that part.
			parts := make([]part, len(man.Shards))
			rawPart, run := rng.Intn(len(parts)), 0
			for i, sh := range man.Shards {
				mode := LoadStrict
				if i == rawPart {
					mode = LoadRepair
				}
				if i < rawPart {
					run += sh.Segments
				}
				st := reload(t, fs.files[sh.Name].Bytes(), mode)
				parts[i] = st.part()
			}
			mixed := concat(numBatches, parts)
			if r := mixed.Residency(); r != ColSetAll || len(mixed.SegmentEncodings()) != run {
				t.Fatalf("mixed concat: residency %#x, %d encodings; want every column raw and %d encoded", r, len(mixed.SegmentEncodings()), run)
			}
			agree(t, "mixed concat", want, mixed)

			// A shard repair mode cannot open is skipped: the result is the
			// concatenation of the others' segments.
			victim, first := rng.Intn(len(man.Shards)), 0
			for _, sh := range man.Shards[:victim] {
				first += sh.Segments
			}
			delete(fs.files, man.Shards[victim].Name)
			repaired, _, err := d.LoadStore(LoadOptions{Mode: LoadRepair})
			if err != nil {
				t.Fatal(err)
			}
			rest := append(append([]*Segment(nil), segs[:first]...), segs[first+man.Shards[victim].Segments:]...)
			wantRest, err := Assemble(numBatches, rest)
			if err != nil {
				t.Fatal(err)
			}
			agree(t, "repair load with a skipped shard", wantRest, repaired)
		})
	}
}

// TestSliceDifferential: a run of segments sliced out of a store, written
// and strict-reloaded, equals the same rows appended to fresh Builders over
// the same batch intervals.
func TestSliceDifferential(t *testing.T) {
	for seed := int64(1); seed <= 16; seed++ {
		rng := rand.New(rand.NewSource(seed))
		segs, numBatches := randomSegments(rng)
		src, err := Assemble(numBatches, segs)
		if err != nil {
			t.Fatal(err)
		}
		cat, err := src.sealedLayout()
		if err != nil {
			t.Fatal(err)
		}
		i := rng.Intn(len(segs))
		j := i + 1 + rng.Intn(len(segs)-i)
		got := encodedTwin(t, slice(&columns{}, src.numBatches, &cat, i, j, cat.segs[j-1].RowHi))

		var fresh []*Segment
		for _, si := range cat.segs[i:j] {
			b := NewBuilder(si.BatchLo, si.BatchHi)
			for r := si.RowLo; r < si.RowHi; r++ {
				if in := src.Row(r); r == si.RowLo || in.Batch != src.Row(r-1).Batch {
					b.BeginBatch(in.Batch)
				}
				b.Append(src.Row(r))
			}
			fresh = append(fresh, b.Seal())
		}
		want, err := Assemble(numBatches, fresh)
		if err != nil {
			t.Fatal(err)
		}
		agree(t, fmt.Sprintf("seed %d: segments [%d,%d) of %d", seed, i, j, len(segs)), want, got)
	}
}
