package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"testing"
)

// strconvFloat is appendFloat as it was before the shortest-digits
// kernel, strconv for every input. It stays as the oracle the kernel's
// bytes must equal.
func strconvFloat(b []byte, f float64) (_ []byte, ok bool) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, false
	}
	if abs := math.Abs(f); abs == 0 || (abs >= 1e-6 && abs < 1e21) {
		return strconv.AppendFloat(b, f, 'f', -1, 64), true
	}
	b = strconv.AppendFloat(b, f, 'e', -1, 64)
	if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b, true
}

// TestAppendFloatMatchesStrconv holds appendFloat to strconvFloat, each
// value also negated: every binary exponent of the kernel's domain at its
// extreme and at random mantissas (random ones hit the exact ties and the
// open ends of an odd mantissa's interval), both neighbours of every power
// of ten from 1e-6 to 1e21, widened float32s — trust is stored as one —
// and integers up to 2^53.
func TestAppendFloatMatchesStrconv(t *testing.T) {
	var got, want []byte
	n := 0
	check := func(f float64) {
		t.Helper()
		for _, v := range []float64{f, -f} {
			var ok, wok bool
			got, ok = appendFloat(got[:0], v)
			want, wok = strconvFloat(want[:0], v)
			if ok != wok || !bytes.Equal(got, want) {
				t.Fatalf("%v (bits %#x): got %q, %v; strconv %q, %v", v, math.Float64bits(v), got, ok, want, wok)
			}
			n++
		}
	}
	r := rand.New(rand.NewSource(43))
	for e := uint64(1003); e <= 1092; e++ {
		for _, m := range []uint64{0, 1, 2, 1<<52 - 2, 1<<52 - 1} {
			check(math.Float64frombits(e<<52 | m))
		}
		for i := 0; i < 3000; i++ {
			check(math.Float64frombits(e<<52 | r.Uint64()&(1<<52-1)))
		}
	}
	for k := -6; k <= 21; k++ {
		p, err := strconv.ParseFloat(fmt.Sprintf("1e%d", k), 64)
		if err != nil {
			t.Fatal(err)
		}
		check(math.Nextafter(p, 0))
		check(p)
		check(math.Nextafter(p, math.Inf(1)))
	}
	for i := 0; i < 200000; i++ {
		check(float64(math.Float32frombits(r.Uint32())))
		check(float64(float32(r.Float64())))
	}
	for i := int64(1); i <= 1<<16; i++ {
		check(float64(i))
	}
	for i := 0; i < 100000; i++ {
		check(float64(r.Int63n(1<<53) + 1))
	}
	for _, f := range []float64{1 << 53, 1<<53 - 1, 1<<53 + 2, 0, math.NaN(), math.Inf(1), 1e-7, 1e21, 1e22} {
		check(f)
	}
	t.Logf("%d values", n)
}

// TestPow10Table recomputes the kernel's powers of ten with math/big —
// the ceiling of 10^k · 2^(127 − ⌊log2 10^k⌋) — and checks the integer
// approximations of ⌊log10 2^q⌋, ⌊log10 ¾·2^q⌋ and ⌊log2 10^k⌋ the kernel
// indexes and shifts by, over every q of its domain.
func TestPow10Table(t *testing.T) {
	pow := func(base int64, e int) *big.Rat { // base^e, any sign of e
		p := new(big.Int).Exp(big.NewInt(base), big.NewInt(int64(max(e, -e))), nil)
		if e < 0 {
			return new(big.Rat).SetFrac(big.NewInt(1), p)
		}
		return new(big.Rat).SetInt(p)
	}
	floorLog := func(x *big.Rat, base int64) int { // ⌊log_base x⌋
		e := 0
		for pow(base, e).Cmp(x) > 0 {
			e--
		}
		for pow(base, e+1).Cmp(x) <= 0 {
			e++
		}
		return e
	}
	for i, g := range pow10s {
		k := i - 5
		e := floorLog(pow(10, k), 2)
		if got := (k * 1741647) >> 19; got != e {
			t.Fatalf("⌊log2 10^%d⌋: kernel computes %d, want %d", k, got, e)
		}
		x := new(big.Rat).Mul(pow(10, k), pow(2, 127-e))
		want, rem := new(big.Int).QuoRem(x.Num(), x.Denom(), new(big.Int))
		if rem.Sign() != 0 {
			want.Add(want, big.NewInt(1))
		}
		have := new(big.Int).Lsh(new(big.Int).SetUint64(g[0]), 64)
		have.Or(have, new(big.Int).SetUint64(g[1]))
		if have.Cmp(want) != 0 {
			t.Fatalf("pow10s[%d] (1e%d) = %#x, want %#x", i, k, have, want)
		}
	}
	three4 := big.NewRat(3, 4)
	for q := 1003 - 1075; q <= 1092-1075; q++ {
		if got, want := (q*1262611)>>22, floorLog(pow(2, q), 10); got != want {
			t.Fatalf("⌊log10 2^%d⌋: kernel computes %d, want %d", q, got, want)
		}
		x := new(big.Rat).Mul(three4, pow(2, q))
		if got, want := (q*1262611-524031)>>22, floorLog(x, 10); got != want {
			t.Fatalf("⌊log10 ¾·2^%d⌋: kernel computes %d, want %d", q, got, want)
		}
		for _, k := range []int{(q * 1262611) >> 22, (q*1262611 - 524031) >> 22} {
			if -k < -5 || -k > 22 {
				t.Fatalf("q = %d needs 10^%d, outside the table", q, -k)
			}
		}
	}
}

// FuzzAppendFloat: for any float64 bits, appendFloat writes what
// json.Marshal writes, and refuses exactly NaN and ±Inf.
func FuzzAppendFloat(f *testing.F) {
	for _, v := range []float64{0, 1, 0.1, 1e-6, 1e-7, 1e21, 1e21 - 65536, 123.456, float64(float32(0.9)), 1 << 53, math.MaxFloat64, math.Inf(-1)} {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, u uint64) {
		v := math.Float64frombits(u)
		got, ok := appendFloat(nil, v)
		if finite := !math.IsNaN(v) && !math.IsInf(v, 0); ok != finite {
			t.Fatalf("%v: ok = %v", v, ok)
		}
		want, err := json.Marshal(v)
		if ok != (err == nil) {
			t.Fatalf("%v: ok = %v, json.Marshal: %v", v, ok, err)
		}
		if ok && !bytes.Equal(got, want) {
			t.Fatalf("%v (bits %#x): got %q, json.Marshal %q", v, u, got, want)
		}
	})
}
