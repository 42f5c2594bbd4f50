package store

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

// colCodec is the column codec of one value type as the tests below drive
// it: whole columns in, bytes out, and back — through the block reader or
// through the value-at-a-time reference reader and its per-row accessor.
type colCodec[T value] struct {
	name     string
	refRead  func(*sliceReader, int, *Encoded[T]) error
	refValue func(*Encoded[T], int) T
}

var (
	u32Codec = colCodec[uint32]{"uint32", refReadEncU32, valueU32}
	i64Codec = colCodec[int64]{"int64", refReadEncI64, valueI64}
	f32Codec = colCodec[float32]{"float32", refReadEncF32, valueF32}
)

// bits is a value's bit pattern, the identity the codec must keep.
func (c colCodec[T]) bits(v T) uint64 {
	switch v := any(v).(type) {
	case uint32:
		return uint64(v)
	case int64:
		return uint64(v)
	case float32:
		return uint64(math.Float32bits(v))
	}
	panic("not a column value")
}

// encode chooses and builds a column's encoding, validates it and returns
// the code chosen and the bytes written.
func (c colCodec[T]) encode(t *testing.T, vals []T) (ColumnCode, []byte) {
	t.Helper()
	e := encodeColumn(vals)
	if err := e.validate(len(vals)); err != nil {
		t.Fatalf("encoded column fails validate: %v", err)
	}
	var b bytes.Buffer
	writeEnc(&b, &e)
	return e.Code, b.Bytes()
}

// decode reads a column of the given row count and returns its values and
// what writing the read form again gives.
func (c colCodec[T]) decode(disk []byte, rows int) ([]T, []byte, error) {
	var e Encoded[T]
	sr := &sliceReader{buf: disk}
	if err := readEnc(sr, rows, &e); err != nil {
		return nil, nil, err
	}
	if err := e.validate(rows); err != nil || sr.remaining() != 0 {
		return nil, nil, errors.Join(errors.New("read column invalid or short of its bytes"), err)
	}
	vals := make([]T, rows)
	e.decodeInto(vals)
	var b bytes.Buffer
	writeEnc(&b, &e)
	return vals, b.Bytes(), nil
}

// refDecode reads a column through the reference reader, which holds FOR
// columns in its own uniform-width form: the values come from its per-row
// accessor, and there is no form to write again (nil).
func (c colCodec[T]) refDecode(disk []byte, rows int) ([]T, []byte, error) {
	var e Encoded[T]
	sr := &sliceReader{buf: disk}
	if err := c.refRead(sr, rows, &e); err != nil {
		return nil, nil, err
	}
	if sr.remaining() != 0 {
		return nil, nil, errors.New("reference reader left bytes unread")
	}
	vals := make([]T, rows)
	for i := range vals {
		vals[i] = c.refValue(&e, i)
	}
	return vals, nil, nil
}

// roundTrip holds one column to the identity: encode, write, read and
// decode give the values back bit for bit, the reference reader sees the
// same column in the same bytes, and the block reader took the canonical
// form (writing what it read reproduces the bytes).
func (c colCodec[T]) roundTrip(t *testing.T, what string, vals []T) ColumnCode {
	t.Helper()
	code, disk := c.encode(t, vals)
	for _, r := range []struct {
		name   string
		decode func([]byte, int) ([]T, []byte, error)
	}{{"block reader", c.decode}, {"reference reader", c.refDecode}} {
		got, again, err := r.decode(disk, len(vals))
		if err != nil {
			t.Fatalf("%s %s (code %d): %s: %v", c.name, what, code, r.name, err)
		}
		for i := range vals {
			if c.bits(got[i]) != c.bits(vals[i]) {
				t.Fatalf("%s %s (code %d): %s: row %d is %#x, want %#x", c.name, what, code, r.name, i, c.bits(got[i]), c.bits(vals[i]))
			}
		}
		if again != nil && !bytes.Equal(again, disk) {
			t.Fatalf("%s %s (code %d): %s: writing the read column gives other bytes", c.name, what, code, r.name)
		}
	}
	return code
}

// spread lays the given values out over n rows: in runs when runs is set,
// cycling otherwise, so every value appears once n reaches their count.
func spread[T any](n int, runs bool, of ...T) []T {
	out := make([]T, n)
	for i := range out {
		if runs {
			out[i] = of[i*len(of)/n]
		} else {
			out[i] = of[i%len(of)]
		}
	}
	return out
}

// TestColumnValueClasses drives the value classes the shared block path
// must survive through every code the chooser can pick for them: int64
// columns that cross zero and touch both ends of the range, trust patterns
// for -0, the infinities, NaN payloads and subnormals, ids at MaxUint32 —
// each at row counts around the frame boundary, cycling and in runs.
func TestColumnValueClasses(t *testing.T) {
	f := math.Float32frombits
	u32Classes := map[string][]uint32{
		"max":        {math.MaxUint32},
		"top":        {math.MaxUint32, math.MaxUint32 - 1, math.MaxUint32 - 900},
		"both-ends":  {0, math.MaxUint32},
		"zero":       {0},
		"wide-three": {7, 1 << 31, 1<<31 + 5},
	}
	i64Classes := map[string][]int64{
		"cross-zero":     {-5, 3, -1, 7, 0},
		"min":            {math.MinInt64},
		"min-cluster":    {math.MinInt64, math.MinInt64 + 1, math.MinInt64 + 4000},
		"max":            {math.MaxInt64},
		"max-cluster":    {math.MaxInt64, math.MaxInt64 - 1, math.MaxInt64 - 4000},
		"both-ends":      {math.MinInt64, math.MaxInt64},
		"span-63-bits":   {-1 << 62, 1<<62 - 1},
		"span-64-bits":   {-1 << 62, 1 << 62},
		"negative-times": {-1_400_000_000, -1_399_999_000, -1_399_990_000},
	}
	f32Classes := map[string][]float32{
		"signed-zeros":  {f(0), f(0x80000000)},
		"minus-zero":    {f(0x80000000)},
		"infinities":    {f(0x7f800000), f(0xff800000)},
		"plus-inf":      {f(0x7f800000), 1, 0.5},
		"nan-payloads":  {f(0x7fc00000), f(0x7fc00001), f(0x7f800001), f(0xffc12345)},
		"one-nan":       {f(0x7fc12345)},
		"nan-and-trust": {f(0x7fc00001), 0.75, 0.5},
		"subnormals":    {f(1), f(2), f(0x007fffff), f(0x80000001)},
		"trust-band":    {0.5, 0.625, 0.75, 1},
	}
	for _, n := range []int{1, 2, 63, 64, 65, 200, 4100} {
		for _, runs := range []bool{false, true} {
			for name, of := range u32Classes {
				u32Codec.roundTrip(t, name, spread(n, runs, of...))
			}
			for name, of := range i64Classes {
				i64Codec.roundTrip(t, name, spread(n, runs, of...))
			}
			for name, of := range f32Classes {
				f32Codec.roundTrip(t, name, spread(n, runs, of...))
			}
		}
	}
	// Dense columns over the same extremes: every row distinct, so only
	// FOR or raw can take them.
	const n = 300
	ids, times, trusts := make([]uint32, n), make([]int64, n), make([]float32, n)
	for i := range ids {
		ids[i] = math.MaxUint32 - uint32(i*i)
		times[i] = math.MinInt64 + int64(i*i*i)
		trusts[i] = f(0x7f800000 - 150 + uint32(i)) // finite, +Inf, then NaNs
	}
	if code := u32Codec.roundTrip(t, "dense-top", ids); code != CodeFOR {
		t.Errorf("dense ids below MaxUint32: code %d, want FOR", code)
	}
	if code := i64Codec.roundTrip(t, "dense-bottom", times); code != CodeFOR {
		t.Errorf("dense times above MinInt64: code %d, want FOR", code)
	}
	if code := f32Codec.roundTrip(t, "dense-across-inf", trusts); code != CodeFOR {
		t.Errorf("dense patterns across +Inf: code %d, want FOR", code)
	}
	for i := range times {
		times[i] = int64(i*i*i) - 9000
	}
	i64Codec.roundTrip(t, "dense-cross-zero", times)
}

// TestColumnCodeAdmission: every (value type, code) pair the format
// forbids — RLE and dict for int64, RLE for float32, any code from 4 up —
// and a FOR width past the type's maximum is ErrCorrupt to both readers,
// whatever bytes follow.
func TestColumnCodeAdmission(t *testing.T) {
	// Bodies a forbidden code byte is put in front of: nothing, zeros, and
	// real uint32 columns of the code in question.
	_, rle := u32Codec.encode(t, spread(128, true, uint32(3), 9, 3, 4))
	_, dict := u32Codec.encode(t, spread(128, false, uint32(3), 9, 1<<30))
	if ColumnCode(rle[0]) != CodeRLE || ColumnCode(dict[0]) != CodeDict {
		t.Fatalf("fixture columns have codes %d and %d", rle[0], dict[0])
	}
	bodies := [][]byte{nil, make([]byte, 4096), rle[1:], dict[1:]}
	rle, dict = []byte{byte(CodeRLE)}, []byte{byte(CodeDict)}
	wide := func(w byte) []byte { return []byte{byte(CodeFOR), w} }
	for _, r := range []struct {
		name      string
		decode    func([]byte, int) error
		forbidden [][]byte
	}{
		{"uint32", errOf(u32Codec.decode), [][]byte{wide(33)}},
		{"uint32 reference", errOf(u32Codec.refDecode), [][]byte{wide(33)}},
		{"int64", errOf(i64Codec.decode), [][]byte{rle, dict, wide(64)}},
		{"int64 reference", errOf(i64Codec.refDecode), [][]byte{rle, dict, wide(64)}},
		{"float32", errOf(f32Codec.decode), [][]byte{rle, wide(33)}},
		{"float32 reference", errOf(f32Codec.refDecode), [][]byte{rle, wide(33)}},
	} {
		for _, code := range []byte{4, 5, 0x7f, 0x80, 0xff} {
			r.forbidden = append(r.forbidden, []byte{code})
		}
		for _, head := range r.forbidden {
			for _, body := range bodies {
				disk := append(append([]byte(nil), head...), body...)
				if err := r.decode(disk, 128); !errors.Is(err, ErrCorrupt) {
					t.Errorf("%s: head %v + %d bytes: %v, want ErrCorrupt", r.name, head, len(body), err)
				}
			}
		}
	}
}

// errOf keeps a decode's verdict alone.
func errOf[T any](decode func([]byte, int) ([]T, []byte, error)) func([]byte, int) error {
	return func(disk []byte, rows int) error {
		_, _, err := decode(disk, rows)
		return err
	}
}
