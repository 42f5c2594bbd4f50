package store

import (
	"bytes"
	"testing"
	"testing/quick"

	"crowdscope/internal/model"
	"crowdscope/internal/rng"
)

// randomStore builds a random but structurally valid store from a seed.
func randomStore(seed uint64, maxBatches, maxRows int) *Store {
	r := rng.New(seed)
	nb := 1 + r.Intn(maxBatches)
	base := model.Epoch.Unix()
	var rows []model.Instance
	for b := 0; b < nb; b++ {
		n := r.Intn(maxRows)
		for i := 0; i < n; i++ {
			start := base + r.Int63n(1000000)
			rows = append(rows, model.Instance{
				Batch:    uint32(b),
				TaskType: uint32(r.Intn(50)),
				Item:     uint32(r.Intn(200)),
				Worker:   uint32(r.Intn(500)),
				Start:    start,
				End:      start + r.Int63n(5000),
				Trust:    float32(r.Float64()),
				Answer:   uint32(r.Uint64n(1 << 30)),
			})
		}
	}
	return storeOf(nb, rows)
}

// TestPropertySnapshotRoundTrip: encode→decode is the identity for any
// structurally valid store, of one segment or many, layout included.
func TestPropertySnapshotRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		for _, s := range []*Store{randomStore(seed, 20, 40), randomSegmentedStore(seed)} {
			var buf bytes.Buffer
			if _, err := s.WriteTo(&buf); err != nil {
				return false
			}
			var back Store
			if _, err := back.ReadFrom(bytes.NewReader(buf.Bytes())); err != nil {
				return false
			}
			if back.Len() != s.Len() || back.NumBatches() != s.NumBatches() {
				return false
			}
			for i := 0; i < s.Len(); i++ {
				if s.Row(i) != back.Row(i) {
					return false
				}
			}
			want := s.Segments()
			if len(back.Segments()) != len(want) {
				return false
			}
			for i, si := range back.Segments() {
				if si != want[i] {
					return false
				}
			}
			if back.Validate() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyValidateAcceptsGenerated: every store built through
// Builder, Seal and Assemble validates.
func TestPropertyValidateAcceptsGenerated(t *testing.T) {
	f := func(seed uint64) bool {
		return randomStore(seed, 15, 30).Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyWorkerIndexComplete: posting lists partition the rows.
func TestPropertyWorkerIndexComplete(t *testing.T) {
	f := func(seed uint64) bool {
		s := randomStore(seed, 10, 50)
		covered := 0
		seen := map[int32]bool{}
		ok := true
		s.EachWorker(func(id uint32, rows []int32) {
			covered += len(rows)
			for _, r := range rows {
				if seen[r] || s.worker[r] != id {
					ok = false
				}
				seen[r] = true
			}
		})
		return ok && covered == s.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyBatchRangesPartition: batch ranges cover each row exactly
// once.
func TestPropertyBatchRangesPartition(t *testing.T) {
	f := func(seed uint64) bool {
		s := randomStore(seed, 25, 25)
		covered := make([]bool, s.Len())
		for b := 0; b < s.NumBatches(); b++ {
			lo, hi := s.BatchRange(uint32(b))
			for i := lo; i < hi; i++ {
				if covered[i] {
					return false
				}
				covered[i] = true
			}
		}
		for _, c := range covered {
			if !c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyZigzag: the codec's zigzag transform is a bijection.
func TestPropertyZigzag(t *testing.T) {
	f := func(v int64) bool { return unzigzag(zigzag(v)) == v }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPropertySnapshotDeterministic: serialization is a pure function of
// the store contents — byte-identical for repeated writes AND for every
// parallel section-writer count, with or without provenance, for both
// one-segment stores and many-segment ones. A
// store loaded back from its own snapshot re-serializes byte-identically:
// the encoded blocks are canonical.
func TestPropertySnapshotDeterministic(t *testing.T) {
	prov := &Provenance{ConfigHash: 0xABCD, Seed: 11, Tool: "prop/3"}
	f := func(seed uint64) bool {
		for _, s := range []*Store{randomStore(seed, 10, 20), randomSegmentedStore(seed)} {
			var ref bytes.Buffer
			s.WriteTo(&ref)
			var refProv bytes.Buffer
			s.WriteSnapshot(&refProv, WriteOptions{Provenance: prov, Workers: 1})
			for _, w := range []int{0, 1, 2, 3, 8} {
				var b bytes.Buffer
				s.WriteSnapshot(&b, WriteOptions{Workers: w})
				if !bytes.Equal(ref.Bytes(), b.Bytes()) {
					return false
				}
				b.Reset()
				s.WriteSnapshot(&b, WriteOptions{Provenance: prov, Workers: w})
				if !bytes.Equal(refProv.Bytes(), b.Bytes()) {
					return false
				}
			}
			var back Store
			if _, err := back.ReadFrom(bytes.NewReader(ref.Bytes())); err != nil {
				return false
			}
			var again bytes.Buffer
			back.WriteTo(&again)
			if !bytes.Equal(ref.Bytes(), again.Bytes()) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
