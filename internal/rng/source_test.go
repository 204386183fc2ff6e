package rng

import (
	"math"
	"math/rand"
	"testing"
)

// p31 is the seed LCG's modulus 2³¹−1; seeds are reduced mod p31, so its
// multiples, neighbours and sign flips are the seeding edge cases.
const p31 = 1<<31 - 1

// edgeSeeds exercise every branch of the seed reduction: zero and the
// 89482311 value math/rand substitutes for it, ±p31 and its multiples
// (which all reduce to zero), their neighbours, the int64 extremes, and
// negatives.
var edgeSeeds = []int64{
	0, 1, -1, 2, 7, 42, -3,
	zeroSeed, -zeroSeed, zeroSeed + p31,
	p31, -p31, 2 * p31, -2 * p31, 3 * p31, -7 * p31,
	p31 - 1, p31 + 1, -p31 + 1, -p31 - 1,
	math.MaxInt64 / p31 * p31, math.MinInt64 / p31 * p31,
	1 << 31, 1 << 40, -1 << 40,
	math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1,
}

// sourceDraws covers two full register wraps and then some, so every word
// is read both as seeded and after the recurrence rewrote it.
const sourceDraws = 2*regLen + 37

// randomSeeds returns n seed-pinned pseudo-random seeds of both signs.
func randomSeeds(n int) []int64 {
	r := rand.New(rand.NewSource(20261016))
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = int64(r.Uint64())
	}
	return seeds
}

// checkSource compares the raw Uint64 output of source against math/rand's
// stock source for one seed.
func checkSource(t *testing.T, seed int64) {
	t.Helper()
	ref := rand.NewSource(seed).(rand.Source64)
	var s source
	s.Seed(seed)
	for i := 0; i < sourceDraws; i++ {
		if got, want := s.Uint64(), ref.Uint64(); got != want {
			t.Fatalf("seed %d draw %d: source %#x, math/rand %#x", seed, i, got, want)
		}
	}
}

// checkStream drives every Stream method against the same calls on a
// stock math/rand Rand, interleaved so the draw count passes two register
// wraps.
func checkStream(t *testing.T, seed int64) {
	t.Helper()
	s, ref := New(seed), rand.New(rand.NewSource(seed))
	const invSqrt2 = 1 / math.Sqrt2
	for i := 0; i < 300; i++ {
		if got, want := s.Float64(), ref.Float64(); got != want {
			t.Fatalf("seed %d round %d: Float64 %v, want %v", seed, i, got, want)
		}
		if got, want := s.Int63(), ref.Int63(); got != want {
			t.Fatalf("seed %d round %d: Int63 %v, want %v", seed, i, got, want)
		}
		n := 1 + i%97
		if got, want := s.IntN(n), ref.Intn(n); got != want {
			t.Fatalf("seed %d round %d: IntN(%d) %v, want %v", seed, i, n, got, want)
		}
		if got, want := s.Exp(2.5), ref.ExpFloat64()*2.5; got != want {
			t.Fatalf("seed %d round %d: Exp %v, want %v", seed, i, got, want)
		}
		if got, want := s.Normal(1, 3), 1+3*ref.NormFloat64(); got != want {
			t.Fatalf("seed %d round %d: Normal %v, want %v", seed, i, got, want)
		}
		re, im := s.ComplexGaussian()
		if wantRe, wantIm := ref.NormFloat64()*invSqrt2, ref.NormFloat64()*invSqrt2; re != wantRe || im != wantIm {
			t.Fatalf("seed %d round %d: ComplexGaussian (%v,%v), want (%v,%v)", seed, i, re, im, wantRe, wantIm)
		}
	}
}

// TestSourceMatchesMathRand is the byte-identity oracle for the
// jump-ahead source: raw output and every Stream method must match
// math/rand's stock source draw for draw.
func TestSourceMatchesMathRand(t *testing.T) {
	for _, seed := range edgeSeeds {
		checkSource(t, seed)
		checkStream(t, seed)
	}
	for i, seed := range randomSeeds(3000) {
		checkSource(t, seed)
		if i%20 == 0 {
			checkStream(t, seed)
		}
	}
}

func FuzzSourceMatchesMathRand(f *testing.F) {
	for _, seed := range edgeSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkSource(t, seed)
	})
}

// TestStreamAllocs pins the inline layout: New is one allocation (the
// Stream with its Rand and register) and Reseed none, counted exactly over
// batches of 100 calls each.
func TestStreamAllocs(t *testing.T) {
	if n := batchMallocs(func() {
		for i := 0; i < 100; i++ {
			streamSink = New(42)
		}
	}); n != 100 {
		t.Fatalf("New: %.0f mallocs in 100 calls, want 100", n)
	}
	s := New(1)
	seed := int64(0)
	if n := batchMallocs(func() {
		for i := 0; i < 100; i++ {
			seed++
			s.Reseed(seed)
		}
	}); n != 0 {
		t.Fatalf("Reseed: %.0f mallocs in 100 calls, want 0", n)
	}
}

var streamSink *Stream

// BenchmarkStreamReseed is the per-station seeding cost of the arena and
// birth-probe paths (held allocation-free by TestStreamAllocs). Reseed
// itself computes no register word, so it is timed with what follows it:
// "probe" is a voice birth probe's draws (a Bernoulli and an Exp, two
// words on the first-touch path), and "fill" is a one-value bulk fill,
// which computes the whole register as a fading stream's first catch-up
// does.
func BenchmarkStreamReseed(b *testing.B) {
	s := New(1)
	b.Run("probe", func(b *testing.B) {
		b.ReportAllocs()
		var sink float64
		for i := 0; i < b.N; i++ {
			s.Reseed(int64(i))
			if s.Bernoulli(0.4) {
				sink++
			}
			sink += s.Exp(1.35)
		}
		benchSink = sink
	})
	b.Run("fill", func(b *testing.B) {
		b.ReportAllocs()
		var dst [1]float64
		for i := 0; i < b.N; i++ {
			s.Reseed(int64(i))
			s.NormFloat64s(dst[:])
		}
		benchSink = dst[0]
	})
}

var benchSink float64

// BenchmarkMathRandSeed is the stock serial seeding BenchmarkStreamReseed
// replaces, kept as its reference point.
func BenchmarkMathRandSeed(b *testing.B) {
	src := rand.NewSource(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Seed(int64(i))
	}
}

// BenchmarkDeriveIndexed is a fresh derived stream: seed hashing, one
// allocation and a seed fill.
func BenchmarkDeriveIndexed(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		streamSink = DeriveIndexed(42, "chan", i)
	}
}
