// Package rng provides a deterministic, splittable pseudo-random number
// generator and the sampling distributions the marketplace synthesizer
// needs (log-normal, Pareto, Zipf, Poisson, Beta, categorical). Everything
// derives from a single 64-bit seed so a full synthetic dataset is exactly
// reproducible, and independent subsystems can draw from split streams
// without perturbing each other.
//
// The generator is xoshiro256** seeded through SplitMix64, the combination
// recommended by Blackman & Vigna; both are implemented here because the
// repository is stdlib-only.
package rng

import "math"

// Rand is a xoshiro256** generator. The zero value is not valid; use New or
// Split.
type Rand struct {
	s [4]uint64
}

// New returns a generator seeded from seed via SplitMix64 so that nearby
// seeds yield uncorrelated states.
func New(seed uint64) *Rand {
	var r Rand
	sm := seed
	for i := range r.s {
		sm, r.s[i] = splitMix64(sm)
	}
	// xoshiro must not start from the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9E3779B97F4A7C15
	}
	return &r
}

// splitMix64 advances the SplitMix64 state and returns (next state, output).
func splitMix64(state uint64) (uint64, uint64) {
	state += 0x9E3779B97F4A7C15
	z := state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return state, z ^ (z >> 31)
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 uniformly random bits.
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Split returns a new generator whose stream is statistically independent
// of the receiver's, labeled by key. Splitting lets each subsystem (worker
// population, schedule, answers, ...) consume randomness without coupling
// to the draw order of the others.
func (r *Rand) Split(key uint64) *Rand {
	// Mix the receiver's next output with the key through SplitMix64.
	base := r.Uint64()
	return New(base ^ (key * 0xD1342543DE82EF95))
}

// Float64 returns a uniform float64 in [0,1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Intn returns a uniform int in [0,n). It panics when n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Int63n returns a uniform int64 in [0,n). It panics when n <= 0.
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		panic("rng: Int63n with non-positive n")
	}
	return int64(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform uint64 in [0,n) using Lemire's multiply-shift
// rejection method.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with zero n")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	threshold := -n % n
	for {
		v := r.Uint64()
		hi, lo := mul64(v, n)
		if lo >= threshold {
			return hi
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	a0, a1 := a&mask32, a>>32
	b0, b1 := b&mask32, b>>32
	w0 := a0 * b0
	t := a1*b0 + w0>>32
	w1 := t&mask32 + a0*b1
	hi = a1*b1 + t>>32 + w1>>32
	lo = a * b
	return
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool { return r.Float64() < p }

// NormFloat64 returns a standard normal variate using the Marsaglia polar
// method.
func (r *Rand) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Normal returns a normal variate with the given mean and standard
// deviation.
func (r *Rand) Normal(mean, stddev float64) float64 {
	return mean + stddev*r.NormFloat64()
}

// LogNormal returns exp(N(mu, sigma)). Task and pickup times in the
// synthesizer are log-normal: heavy right tails with a stable median of
// exp(mu).
func (r *Rand) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.NormFloat64())
}

// LogNormalMedian returns a log-normal variate with the given median and
// shape sigma.
func (r *Rand) LogNormalMedian(median, sigma float64) float64 {
	if median <= 0 {
		return 0
	}
	return r.LogNormal(math.Log(median), sigma)
}

// Exp returns an exponential variate with the given rate.
func (r *Rand) Exp(rate float64) float64 {
	return -math.Log(1-r.Float64()) / rate
}

// Pareto returns a Pareto(xm, alpha) variate: xm / U^(1/alpha). Cluster
// sizes and worker workloads are Pareto-like in the paper's log-log plots.
func (r *Rand) Pareto(xm, alpha float64) float64 {
	return xm / math.Pow(1-r.Float64(), 1/alpha)
}

// Poisson returns a Poisson(lambda) variate. Knuth's product method is used
// for small lambda and a normal approximation with continuity correction
// for large lambda, which is ample for arrival counts.
func (r *Rand) Poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 64 {
		v := r.Normal(lambda, math.Sqrt(lambda))
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Beta returns a Beta(a, b) variate via two Gamma draws. Source and worker
// trust scores are Beta-distributed around per-source means.
func (r *Rand) Beta(a, b float64) float64 {
	x := r.Gamma(a)
	y := r.Gamma(b)
	if x+y == 0 {
		return 0.5
	}
	return x / (x + y)
}

// Gamma returns a Gamma(shape, 1) variate using the Marsaglia–Tsang method,
// with the standard boost for shape < 1.
func (r *Rand) Gamma(shape float64) float64 {
	if shape <= 0 {
		return 0
	}
	if shape < 1 {
		// Gamma(a) = Gamma(a+1) * U^(1/a)
		return r.Gamma(shape+1) * math.Pow(r.Float64(), 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := r.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// BetaWithMean returns a Beta variate with the given mean and concentration
// kappa (= a+b). Larger kappa concentrates mass around the mean.
func (r *Rand) BetaWithMean(mean, kappa float64) float64 {
	if mean <= 0 {
		return 0
	}
	if mean >= 1 {
		return 1
	}
	return r.Beta(mean*kappa, (1-mean)*kappa)
}

// Shuffle permutes the first n indexes via swap, Fisher–Yates style.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
