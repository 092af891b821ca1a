// Package stats provides deterministic pseudo-random number generation,
// probability distributions, streaming summaries, percentile estimation,
// and confidence intervals for the Duplexity simulation stack.
//
// Every stochastic component in the repository draws randomness through
// this package with an explicit seed, so all experiments are reproducible
// bit-for-bit.
package stats

import "math"

// RNG is a deterministic pseudo-random number generator based on
// xoshiro256**. It is not safe for concurrent use; give each simulated
// entity its own RNG (use Split to derive independent streams).
type RNG struct {
	s [4]uint64
	// cached spare normal variate for NormFloat64 (polar method).
	haveSpare bool
	spare     float64
}

// splitmix64 advances the seed expander used to initialize xoshiro state.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewRNG returns a generator seeded from seed. Two RNGs constructed with
// the same seed produce identical streams.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	// Avoid the all-zero state (cannot occur from splitmix64, but be safe).
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
	return r
}

// Split derives a new, statistically independent RNG from r's stream.
// It is the supported way to hand child components their own generators.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64() ^ 0xd2b74407b1ce6e93)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Float64 returns a uniform variate in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform variate in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation would be overkill;
	// modulo bias is negligible for n << 2^64 but we still reject to keep
	// the generator exactly uniform.
	bound := uint64(n)
	threshold := -bound % bound
	for {
		v := r.Uint64()
		if v >= threshold {
			return int(v % bound)
		}
	}
}

// Int63 returns a non-negative int64 variate.
func (r *RNG) Int63() int64 { return int64(r.Uint64() >> 1) }

// ExpFloat64 returns an exponential variate with rate 1 (mean 1).
func (r *RNG) ExpFloat64() float64 {
	// Inverse transform; guard against log(0).
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -math.Log(u)
}

// NormFloat64 returns a standard normal variate (Marsaglia polar method).
func (r *RNG) NormFloat64() float64 {
	if r.haveSpare {
		r.haveSpare = false
		return r.spare
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		r.spare = v * f
		r.haveSpare = true
		return u * f
	}
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}
