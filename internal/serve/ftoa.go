package serve

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
)

// The shortest-digits kernel behind appendFloat. A scan's reply carries
// four or five floats a group, and strconv's shortest path cost more than
// the rest of the reply together; this kernel computes the same bytes for
// the one range where encoding/json uses the 'f' form, finite nonzero |f|
// in [1e-6, 1e21) — biased binary exponents 1003 to 1092, all normal.
// appendFloat hands it only that range; zero, NaN, ±Inf and the 'e' form
// stay on strconv. The tests hold it to strconv's bytes as the oracle.

// pow10s[i] is 10^(i-5) as the 128-bit {hi, lo} ceiling of
// 10^k · 2^(127 − ⌊log2 10^k⌋), which lies in [2^127, 2^128). Schubfach
// multiplies by 10^-k for k = ⌊log10 2^q⌋ (or ⌊log10 ¾·2^q⌋), and over
// the kernel's domain (q from −72 to 17) that is 10^-5 … 10^22. Entries
// from 10^0 up are exact; the tests recompute every entry with math/big.
var pow10s = [28][2]uint64{
	{0xa7c5ac471b478423, 0x0fcf80dc33721d54}, // 1e-5
	{0xd1b71758e219652b, 0xd3c36113404ea4a9}, // 1e-4
	{0x83126e978d4fdf3b, 0x645a1cac083126ea}, // 1e-3
	{0xa3d70a3d70a3d70a, 0x3d70a3d70a3d70a4}, // 1e-2
	{0xcccccccccccccccc, 0xcccccccccccccccd}, // 1e-1
	{0x8000000000000000, 0x0000000000000000}, // 1e0
	{0xa000000000000000, 0x0000000000000000}, // 1e1
	{0xc800000000000000, 0x0000000000000000}, // 1e2
	{0xfa00000000000000, 0x0000000000000000}, // 1e3
	{0x9c40000000000000, 0x0000000000000000}, // 1e4
	{0xc350000000000000, 0x0000000000000000}, // 1e5
	{0xf424000000000000, 0x0000000000000000}, // 1e6
	{0x9896800000000000, 0x0000000000000000}, // 1e7
	{0xbebc200000000000, 0x0000000000000000}, // 1e8
	{0xee6b280000000000, 0x0000000000000000}, // 1e9
	{0x9502f90000000000, 0x0000000000000000}, // 1e10
	{0xba43b74000000000, 0x0000000000000000}, // 1e11
	{0xe8d4a51000000000, 0x0000000000000000}, // 1e12
	{0x9184e72a00000000, 0x0000000000000000}, // 1e13
	{0xb5e620f480000000, 0x0000000000000000}, // 1e14
	{0xe35fa931a0000000, 0x0000000000000000}, // 1e15
	{0x8e1bc9bf04000000, 0x0000000000000000}, // 1e16
	{0xb1a2bc2ec5000000, 0x0000000000000000}, // 1e17
	{0xde0b6b3a76400000, 0x0000000000000000}, // 1e18
	{0x8ac7230489e80000, 0x0000000000000000}, // 1e19
	{0xad78ebc5ac620000, 0x0000000000000000}, // 1e20
	{0xd8d726b7177a8000, 0x0000000000000000}, // 1e21
	{0x878678326eac9000, 0x0000000000000000}, // 1e22
}

// shortestDecimal returns the shortest decimal m·10^e that rounds back to
// the float64 with bits u (sign ignored), the closest such on a choice and
// the even one on a tie: Schubfach (Giulietti 2020, "The Schubfach way to
// render doubles"). u's biased exponent must lie in the kernel's domain,
// 1003 to 1092. m may end in zeros.
func shortestDecimal(u uint64) (m uint64, e int) {
	frac := u & (1<<52 - 1)
	c := 1<<52 | frac
	q := int(u>>52&0x7ff) - 1075
	if q <= 0 && bits.TrailingZeros64(c) >= -q {
		// An integer below 2^53: its neighbours are a unit or less away,
		// so it is its own shortest decimal.
		return c >> uint(-q), 0
	}
	// v = c·2^q rounds from the interval [c−½, c+½]·2^q, or [c−¼, c+½]·2^q
	// when c is a power of two and the gap below v is half the one above.
	// Scaled by 4·10^-k, its ends and v become vbl, vbr and vb.
	cbl := 4*c - 2
	k := (q * 1262611) >> 22 // ⌊log10 2^q⌋
	if frac == 0 {
		cbl = 4*c - 1
		k = (q*1262611 - 524031) >> 22 // ⌊log10 ¾·2^q⌋
	}
	g := &pow10s[5-k]
	h := uint(q + ((-k * 1741647) >> 19) + 1) // q + ⌊log2 10^-k⌋ + 1, in [1, 4]
	vbl := roundToOdd(g, cbl<<h)
	vb := roundToOdd(g, 4*c<<h)
	vbr := roundToOdd(g, (4*c+2)<<h)
	lower, upper := vbl, vbr
	if c&1 != 0 {
		// An odd c's interval is open: its ends round to the even neighbours.
		lower++
		upper--
	}
	// One digit fewer: at most one multiple of 10^(k+1) lies inside.
	s := vb >> 2
	sp := s / 10
	upIn, wpIn := lower <= 40*sp, 40*sp+40 <= upper
	if upIn != wpIn {
		if wpIn {
			sp++
		}
		return sp, k + 1
	}
	// Otherwise s or s+1 (times 10^k), whichever is inside, or the closer
	// to v when both are, s when s is even on a tie.
	uIn, wIn := lower <= 4*s, 4*s+4 <= upper
	if uIn != wIn {
		if wIn {
			s++
		}
		return s, k
	}
	if mid := 4*s + 2; vb > mid || vb == mid && s&1 != 0 {
		s++
	}
	return s, k
}

// roundToOdd returns the top 64 bits of the 192-bit product g·cp with the
// bits below folded into the lowest bit, so an inexact result is odd. g
// overestimates its power by less than one unit, so low bits of 0 or 1
// mean the exact product had none.
func roundToOdd(g *[2]uint64, cp uint64) uint64 {
	xHi, _ := bits.Mul64(g[1], cp)
	yHi, yLo := bits.Mul64(g[0], cp)
	yLo, carry := bits.Add64(yLo, xHi, 0)
	yHi += carry
	if yLo > 1 {
		yHi |= 1
	}
	return yHi
}

// bcd8 spreads v < 10^8 over eight bytes, one decimal digit a byte, the
// most significant first in little-endian order: two 4-digit halves in
// 32-bit lanes, each split into 2-digit pairs in 16-bit lanes, each pair
// into digits, by multiplications with reciprocals exact over the lanes'
// ranges.
func bcd8(v uint32) uint64 {
	x := uint64(v/10000) | uint64(v%10000)<<32
	h := x * 10486 >> 20 & (0x7f<<32 | 0x7f) // each lane / 100
	x = h | (x-100*h)<<16
	t := x * 103 >> 10 & 0x000f000f000f000f // each pair / 10
	return t | (x-10*t)<<8
}

// copy24 copies 24 bytes from src to dst, three words at a time.
func copy24(dst, src []byte) {
	le := binary.LittleEndian
	le.PutUint64(dst, le.Uint64(src))
	le.PutUint64(dst[8:], le.Uint64(src[8:]))
	le.PutUint64(dst[16:], le.Uint64(src[16:]))
}

const (
	asciiZeros = 0x3030303030303030 // "00000000"
	zeroPoint  = 0x3030303030302e30 // "0.000000"
)

// appendShortestF appends f as strconv.AppendFloat(b, f, 'f', -1, 64)
// does, for finite f with 1e-6 <= |f| < 1e21.
func appendShortestF(b []byte, f float64) []byte {
	u := math.Float64bits(f)
	m, e := shortestDecimal(u)
	// m < 10^17: a leading digit, then two independent 8-digit halves.
	hi := m / 1e8
	mid, lo := bcd8(uint32(hi%1e8)), bcd8(uint32(m%1e8))
	var d [48]byte // d[0:17] the digits; the rest lets copy24 read past them
	le := binary.LittleEndian
	d[0] = '0' + byte(hi/1e8)
	le.PutUint64(d[1:], mid+asciiZeros)
	le.PutUint64(d[9:], lo+asciiZeros)
	// The digits run from the first nonzero one up to the trailing zeros.
	start := 0
	if d[0] == '0' {
		if start = 1 + bits.TrailingZeros64(mid)/8; start == 9 {
			start += bits.TrailingZeros64(lo) / 8
		}
	}
	end := 17 - bits.LeadingZeros64(lo)/8
	if end == 9 {
		end -= bits.LeadingZeros64(mid) / 8
	}
	nd := end - start
	dp := 17 - start + e // the decimal point falls dp digits after the first

	// Lay the form out in place, 48 bytes reserved: whole words may run
	// past its end, and the length is set after.
	n := len(b)
	b = slices.Grow(b, 48)
	out := b[n : n+48]
	p := 0
	if u>>63 != 0 {
		out[0] = '-'
		p = 1
	}
	switch {
	case dp <= 0: // 0.000ddd: at most five zeros, |f| >= 1e-6
		le.PutUint64(out[p:], zeroPoint)
		p += 2 - dp
		copy24(out[p:], d[start:])
		p += nd
	case dp >= nd: // ddd000: at most 20 zeros, |f| < 1e21
		copy24(out[p:], d[start:])
		p += nd
		for z := dp - nd; z > 0; z -= 8 {
			le.PutUint64(out[p:], asciiZeros)
			p += min(z, 8)
		}
	default: // ddd.ddd
		copy24(out[p:], d[start:])
		copy24(out[p+dp+1:], d[start+dp:])
		out[p+dp] = '.'
		p += nd + 1
	}
	return b[:n+p]
}
