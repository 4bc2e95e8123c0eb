// Package dist provides the probability substrate for the sampling study:
// a deterministic, seedable random number generator, special functions
// (regularized incomplete gamma, error-function based normal CDF and
// quantile), the chi-square distribution used for goodness-of-fit
// significance levels, and samplers for the distributions the synthetic
// workload generator draws from (exponential, Pareto, lognormal, normal,
// Poisson).
//
// Everything in this package is pure Go with no dependencies beyond the
// standard library math packages, and every stochastic component is
// reproducible from an explicit 64-bit seed so that experiments regenerate
// identical traces and samples run-to-run.
package dist

import (
	"math"
	"math/bits"
)

// RNG is a deterministic pseudo-random number generator based on
// xoshiro256** seeded through SplitMix64. It is not safe for concurrent
// use; create one RNG per goroutine (see Split).
//
// xoshiro256** passes BigCrush and is far cheaper than crypto randomness,
// which matters because trace generation draws hundreds of millions of
// variates. The zero RNG is not valid; construct with NewRNG.
type RNG struct {
	s         [4]uint64
	spare     float64 // cached second variate from the polar normal method
	haveSpare bool
}

// splitmix64 advances the SplitMix64 state and returns the next output.
// It is used only to expand a seed into xoshiro state, per Blackman &
// Vigna's recommendation, so that similar seeds yield unrelated streams.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewRNG returns a generator whose stream is fully determined by seed.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.Reseed(seed)
	return r
}

// Reseed reinitializes r in place to the stream NewRNG(seed) would
// produce, discarding any cached normal variate. Hot replication loops
// use it to reuse one generator allocation across deterministically
// re-seeded replications.
func (r *RNG) Reseed(seed uint64) {
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	// A pathological all-zero state cannot occur: splitmix64 is a bijection
	// composed with a non-zero xor-shift mix, and four consecutive outputs
	// of zero would require a cycle of length < 2^64.
	r.spare = 0
	r.haveSpare = false
}

// Split derives an independent generator from r. The child stream is a
// deterministic function of the parent state, and the parent advances, so
// repeated Splits yield distinct, reproducible children. Use Split to give
// each traffic source or replication its own stream without sharing state
// across goroutines.
func (r *RNG) Split() *RNG {
	return NewRNG(r.SplitSeed())
}

// SplitInto reseeds child to the stream the next Split call would have
// returned, advancing the parent identically, but without allocating.
func (r *RNG) SplitInto(child *RNG) {
	child.Reseed(r.SplitSeed())
}

// SplitSeed draws the seed of the next Split's child: Reseed with it
// later gives the child SplitInto would give now.
func (r *RNG) SplitSeed() uint64 {
	return r.Uint64() ^ 0xd3833e804f4c574b
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
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

// Float64 returns a uniform variate in [0, 1) with 53 bits of precision.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// IntN returns a uniform integer in [0, n). It panics if n <= 0.
// Lemire's nearly-divisionless rejection method keeps the result unbiased.
func (r *RNG) IntN(n int) int {
	if n <= 0 {
		panic("dist: IntN called with non-positive n")
	}
	return int(r.Uint64N(uint64(n)))
}

// Uint64N returns a uniform integer in [0, n). It panics if n == 0.
func (r *RNG) Uint64N(n uint64) uint64 {
	if n == 0 {
		panic("dist: Uint64N called with zero n")
	}
	// Lemire 2019: multiply-shift with rejection of the biased low range.
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Int64N returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Int64N(n int64) int64 {
	if n <= 0 {
		panic("dist: Int64N called with non-positive n")
	}
	return int64(r.Uint64N(uint64(n)))
}

// NormFloat64 returns a standard normal variate using the polar
// (Marsaglia) method. The spare variate is cached between calls.
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

// ExpFloat64 returns an exponential variate with rate 1 (mean 1) by
// inverse transform. Scale by 1/lambda for rate lambda.
func (r *RNG) ExpFloat64() float64 {
	// 1-Float64() is in (0,1], so the log is finite.
	return -math.Log(1 - r.Float64())
}
