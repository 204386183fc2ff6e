// Package rng provides deterministic random substreams for the simulation.
//
// Every stochastic subsystem (each user's fading process, each traffic
// source, each protocol's contention coin flips) draws from its own stream,
// derived from the scenario seed plus a stable label. This gives two
// properties the evaluation methodology depends on:
//
//  1. Reproducibility: one scenario seed fully determines the run.
//  2. Common random numbers: all six protocols observe *identical* channel
//     and traffic sample paths for a given seed, so performance differences
//     in the figures come from protocol behaviour, not sampling noise —
//     mirroring the paper's "common simulation platform".
//
// A Stream draws from the package's own source (source.go): math/rand's
// additive lagged-Fibonacci generator, emitting exactly the words
// rand.NewSource would for the same seed, but seeded by jump-ahead instead
// of a serial chain. Seeding is a large per-station setup cost of a short
// replication (a birth probe, a fading view and a traffic source per
// station; see DESIGN.md "Seeding cost").
//
// The per-frame draws — Float64, Bernoulli, Normal, ComplexGaussian and the
// bulk NormFloat64s the fading catch-up uses — run math/rand's own
// arithmetic (the Float64 division and resample, the 128-strip ziggurat and
// its tables, normal.go) directly on that concrete source, so they skip the
// rand.Source interface call per word. Exp and IntN stay on an
// embedded rand.Rand over the same source; it holds no draw state of its
// own, so both paths consume one sequence, and every value equals what
// rand.New(rand.NewSource(seed)) returns for the same calls (pinned by
// FuzzStreamMatchesMathRand and TestStreamMatchesMathRand).
package rng

import (
	"math"
	"math/rand"
	"strconv"
)

// Stream is a deterministic random stream with the distribution helpers the
// models need. The Rand and its source's 607-word register live inline, so
// a stream is one allocation. Use it by pointer: the Rand points at the
// register, so a copied Stream would still draw from the original's.
// Every method draws what the same call on rand.New(rand.NewSource(seed))
// would, whichever of the two paths (concrete source or Rand) serves it.
type Stream struct {
	r   rand.Rand
	src source
}

// New returns a stream seeded with the given value. It draws exactly what
// rand.New(rand.NewSource(seed)) would.
func New(seed int64) *Stream {
	s := new(Stream)
	s.src.Seed(seed)
	s.r = *rand.New(&s.src)
	return s
}

// FNV-1a 64-bit, inlined so seed derivation is allocation-free (the
// hash.Hash64 returned by hash/fnv escapes to the heap on every call).
// The constants and update rule match hash/fnv exactly, so derived seeds
// are unchanged (pinned by TestSeedForMatchesHashFNV).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvSeedBase hashes the base seed's 8 little-endian bytes.
func fnvSeedBase(base int64) uint64 {
	h := uint64(fnvOffset64)
	u := uint64(base)
	for i := 0; i < 8; i++ {
		h = (h ^ uint64(byte(u>>(8*i)))) * fnvPrime64
	}
	return h
}

// fnvLabel appends one 0x1f-separated label (separator so ("ab","c") !=
// ("a","bc")).
func fnvLabel(h uint64, label string) uint64 {
	h = (h ^ 0x1f) * fnvPrime64
	for i := 0; i < len(label); i++ {
		h = (h ^ uint64(label[i])) * fnvPrime64
	}
	return h
}

// SeedFor derives a child seed from a base seed and a path of labels using
// FNV-1a. Identical (base, labels) always yields the same child seed.
func SeedFor(base int64, labels ...string) int64 {
	h := fnvSeedBase(base)
	for _, l := range labels {
		h = fnvLabel(h, l)
	}
	return int64(h)
}

// SeedForIndexed is SeedFor(base, label, fmt.Sprint(i0), fmt.Sprint(i1),
// ...) without the per-index string allocations: each index is rendered as
// its decimal digits into a stack buffer and hashed as a label. Hot
// construction paths (one derived stream per station of a 10⁴-user cell)
// use it; the derived seeds are identical to the formatted path.
func SeedForIndexed(base int64, label string, idx ...int) int64 {
	h := fnvSeedBase(base)
	h = fnvLabel(h, label)
	var buf [20]byte
	for _, i := range idx {
		d := strconv.AppendInt(buf[:0], int64(i), 10)
		h = (h ^ 0x1f) * fnvPrime64
		for _, b := range d {
			h = (h ^ uint64(b)) * fnvPrime64
		}
	}
	return int64(h)
}

// Reseed resets the stream to the state New(seed) would produce, in place
// and without allocating: a jump-ahead fill of the existing register,
// about 5× cheaper than math/rand's serial seed chain (BenchmarkStreamReseed
// vs BenchmarkMathRandSeed). Hot construction paths (one birth probe per
// station of a 10⁶-user cell, the per-station streams of a warm
// replication arena) use it instead of a fresh stream;
// Reseed(s) followed by any draw sequence matches New(s) exactly (pinned
// by TestReseedMatchesNew). It runs math/rand's Rand.Seed, which also
// clears the Rand's Read position (no method here uses it).
func (s *Stream) Reseed(seed int64) { s.r.Seed(seed) }

// Derive returns a new stream seeded from this stream's identity plus the
// labels. It does not consume randomness from the parent.
func Derive(base int64, labels ...string) *Stream {
	return New(SeedFor(base, labels...))
}

// DeriveIndexed returns a new stream seeded via SeedForIndexed — the
// allocation-free equivalent of Derive(base, label, fmt.Sprint(i)...).
func DeriveIndexed(base int64, label string, idx ...int) *Stream {
	return New(SeedForIndexed(base, label, idx...))
}

// Float64 returns a uniform sample in [0,1): math/rand's
// float64(Int63())/(1<<63), drawn again in the 2⁻⁵³ case that rounds to 1.
func (s *Stream) Float64() float64 {
	for {
		if f := float64(s.src.Int63()) / (1 << 63); f != 1 {
			return f
		}
	}
}

// Int63 returns a uniform sample in [0, 1<<63). Scenario generation uses
// it to draw child scenario seeds.
func (s *Stream) Int63() int64 { return s.src.Int63() }

// IntN returns a uniform sample in [0,n). n must be positive. It runs on
// the embedded rand.Rand (math/rand's Intn).
func (s *Stream) IntN(n int) int { return s.r.Intn(n) }

// Bernoulli returns true with probability p: Float64() < p. A p ≤ 0 or
// p ≥ 1 decides without consuming a draw.
func (s *Stream) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// Exp returns an exponentially distributed sample with the given mean. It
// runs on the embedded rand.Rand (math/rand's ExpFloat64).
func (s *Stream) Exp(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	return s.r.ExpFloat64() * mean
}

// Normal returns a Gaussian sample with mean mu and standard deviation
// sigma: mu + sigma·x for one standard Gaussian draw x.
func (s *Stream) Normal(mu, sigma float64) float64 {
	return mu + sigma*s.normFloat64()
}

// ComplexScale is 1/√2, the factor that gives each ComplexGaussian
// component variance 1/2; callers building complex samples from a
// NormFloat64s fill multiply by it.
const ComplexScale = 1 / math.Sqrt2

// ComplexGaussian returns a circularly symmetric complex Gaussian sample
// with E[|g|^2] = 1 (each component has variance 1/2): two consecutive
// standard Gaussian draws, re before im, each times ComplexScale. The
// magnitude of the sample is Rayleigh distributed with E[c^2] = 1,
// matching the paper's normalization of the short-term fading component.
func (s *Stream) ComplexGaussian() (re, im float64) {
	return s.normFloat64() * ComplexScale, s.normFloat64() * ComplexScale
}

// ExpPositiveInt returns a positive integer whose mean is approximately
// `mean`, drawn by rounding an exponential sample up to at least 1. Used
// for the data burst length (exponential, mean 100 packets, and a burst is
// never empty).
func (s *Stream) ExpPositiveInt(mean float64) int {
	v := int(math.Round(s.Exp(mean)))
	if v < 1 {
		return 1
	}
	return v
}
