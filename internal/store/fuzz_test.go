package store

import (
	"bytes"
	"testing"
)

// FuzzReadFrom drives the snapshot decoder with arbitrary bytes. The
// committed corpus under testdata/fuzz/FuzzReadFrom (regenerated with
// -update-fixtures) holds full snapshots plus truncated and bit-flipped
// variants, and frozen seeds of the retired v1/v2/varint-v3 layouts that
// must be rejected cleanly; the invariants are that decoding never panics,
// never allocates beyond a small multiple of the input, a failed strict
// load leaves the store empty, and repair mode is never stricter than
// strict mode.
func FuzzReadFrom(f *testing.F) {
	st := fixtureStore(f)
	var v3buf bytes.Buffer
	if _, err := st.WriteSnapshot(&v3buf, WriteOptions{Provenance: fixtureProvenance(), Workers: 1}); err != nil {
		f.Fatal(err)
	}
	v3 := v3buf.Bytes()
	f.Add(v3)
	for _, raw := range retiredLayouts() {
		f.Add(raw)
	}
	f.Add(v3[:len(v3)/3])
	f.Add(v3[:len(v3)-7])
	for _, off := range []int{4, 9, 14, len(v3) / 2, len(v3) - 5} {
		flip := append([]byte(nil), v3...)
		flip[off] ^= 0x40
		f.Add(flip)
	}
	f.Add([]byte("not a snapshot at all"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		var strict Store
		_, err := strict.ReadFrom(bytes.NewReader(data))
		if err != nil {
			// Strict mode must never yield a half-populated store.
			if strict.Len() != 0 || strict.NumBatches() != 0 || len(strict.Segments()) != 0 {
				t.Fatalf("strict ReadFrom failed (%v) yet populated the store", err)
			}
		}
		var repaired Store
		_, rerr := repaired.ReadSnapshot(bytes.NewReader(data), LoadOptions{Mode: LoadRepair})
		if err == nil {
			// Whatever loads strictly must also load in repair mode, to
			// the same shape.
			if rerr != nil {
				t.Fatalf("strict load succeeded but repair failed: %v", rerr)
			}
			if repaired.Len() != strict.Len() || repaired.NumBatches() != strict.NumBatches() {
				t.Fatalf("repair shape %d/%d differs from strict %d/%d",
					repaired.Len(), repaired.NumBatches(), strict.Len(), strict.NumBatches())
			}
		}
	})
}
