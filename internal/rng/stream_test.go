package rng

import (
	"math"
	"math/rand"
	"testing"
)

// sameBits reports whether two draws are the same float64, bit for bit.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// tapeOp names the operations a draw tape can hold; an op byte selects one
// modulo numTapeOps, and the bytes after it supply its argument.
const (
	opFloat64 = iota
	opBernoulli
	opNormal
	opComplexGaussian
	opNormFloat64s
	opExp
	opIntN
	opReseed
	opInt63
	numTapeOps
)

// tapeReader hands out a tape's bytes, reading zeros past its end.
type tapeReader struct {
	b []byte
	i int
}

func (r *tapeReader) next() byte {
	if r.i >= len(r.b) {
		return 0
	}
	c := r.b[r.i]
	r.i++
	return c
}

// maxTape bounds the ops one tape runs, so a fuzz input stays a few
// hundred thousand draws at most.
const maxTape = 256

// checkTape runs a seed and an op tape on a Stream and on a stock
// rand.New(rand.NewSource(seed)), comparing every result bit for bit.
func checkTape(t *testing.T, seed int64, tape []byte) {
	t.Helper()
	if len(tape) > maxTape {
		tape = tape[:maxTape]
	}
	s, ref := New(seed), rand.New(rand.NewSource(seed))
	r := tapeReader{b: tape}
	for step := 0; r.i < len(r.b); step++ {
		op := int(r.next()) % numTapeOps
		switch op {
		case opFloat64:
			if got, want := s.Float64(), ref.Float64(); !sameBits(got, want) {
				t.Fatalf("seed %d step %d: Float64 %v, want %v", seed, step, got, want)
			}
		case opBernoulli:
			// Bytes 0..15 give p < 0, 16 gives 0, 240 gives 1 and
			// 241..255 give p > 1: both draw-free guards are reachable.
			p := (float64(r.next()) - 16) / 224
			want := p >= 1 || (p > 0 && ref.Float64() < p)
			if got := s.Bernoulli(p); got != want {
				t.Fatalf("seed %d step %d: Bernoulli(%v) %v, want %v", seed, step, p, got, want)
			}
		case opNormal:
			// mu = 0, sigma = 1 (the fading innovation) is byte 0.
			b := r.next()
			mu, sigma := float64(int8(b))/8, float64(1+b%4)
			if got, want := s.Normal(mu, sigma), mu+sigma*ref.NormFloat64(); !sameBits(got, want) {
				t.Fatalf("seed %d step %d: Normal(%v, %v) %v, want %v", seed, step, mu, sigma, got, want)
			}
		case opComplexGaussian:
			re, im := s.ComplexGaussian()
			wantRe := ref.NormFloat64() * (1 / math.Sqrt2)
			wantIm := ref.NormFloat64() * (1 / math.Sqrt2)
			if !sameBits(re, wantRe) || !sameBits(im, wantIm) {
				t.Fatalf("seed %d step %d: ComplexGaussian (%v, %v), want (%v, %v)", seed, step, re, im, wantRe, wantIm)
			}
		case opNormFloat64s:
			// Up to 2,047 draws: more than three 607-word register wraps.
			n := int(r.next())<<3 | int(r.next()&7)
			dst := make([]float64, n)
			s.NormFloat64s(dst)
			for k, got := range dst {
				if want := ref.NormFloat64(); !sameBits(got, want) {
					t.Fatalf("seed %d step %d: NormFloat64s(%d)[%d] %v, want %v", seed, step, n, k, got, want)
				}
			}
		case opExp:
			mean := float64(r.next()) / 16
			want := 0.0
			if mean > 0 {
				want = ref.ExpFloat64() * mean
			}
			if got := s.Exp(mean); !sameBits(got, want) {
				t.Fatalf("seed %d step %d: Exp(%v) %v, want %v", seed, step, mean, got, want)
			}
		case opIntN:
			n := 1 + int(r.next())<<8 | int(r.next())
			if got, want := s.IntN(n), ref.Intn(n); got != want {
				t.Fatalf("seed %d step %d: IntN(%d) %d, want %d", seed, step, n, got, want)
			}
		case opReseed:
			seed = seed*131 + int64(int8(r.next()))
			s.Reseed(seed)
			ref = rand.New(rand.NewSource(seed))
		case opInt63:
			if got, want := s.Int63(), ref.Int63(); got != want {
				t.Fatalf("seed %d step %d: Int63 %d, want %d", seed, step, got, want)
			}
		}
	}
}

// FuzzStreamMatchesMathRand is the draw-for-draw oracle for the Stream
// methods that run on the concrete source: any seed and any interleaving
// of Float64, Bernoulli (guards included), Normal, ComplexGaussian, bulk
// NormFloat64s fills across register wraps, the Rand-backed Exp and IntN,
// and Reseed must match stock math/rand bit for bit.
func FuzzStreamMatchesMathRand(f *testing.F) {
	f.Add(int64(1), []byte{opFloat64, opBernoulli, 16, opBernoulli, 240, opBernoulli, 3, opBernoulli, 250, opBernoulli, 100})
	f.Add(int64(42), []byte{opNormal, 0, opComplexGaussian, opNormFloat64s, 76, 0, opNormFloat64s, 255, 7, opNormal, 200})
	f.Add(int64(-7), []byte{opExp, 40, opIntN, 3, 9, opReseed, 5, opNormFloat64s, 152, 0, opInt63, opComplexGaussian})
	f.Add(int64(zeroSeed), []byte{opNormFloat64s, 0, 1, opNormFloat64s, 75, 7, opNormFloat64s, 76, 0, opFloat64, opExp, 0})
	for _, seed := range edgeSeeds[:8] {
		f.Add(seed, []byte{opNormFloat64s, 200, 3, opComplexGaussian, opBernoulli, 128, opNormal, 9})
	}
	// Reseeds and bulk fills inside the first-touch countdown: after a
	// few single draws, across the 273-draw tap boundary, and a reseed
	// while the countdown still runs.
	cold := func(n int, tail ...byte) []byte {
		tape := make([]byte, 0, n+len(tail))
		for i := 0; i < n; i++ {
			tape = append(tape, opFloat64)
		}
		return append(tape, tail...)
	}
	f.Add(int64(3), cold(5, opReseed, 9, opFloat64, opNormFloat64s, 0, 1, opInt63))
	f.Add(int64(4), cold(30, opNormFloat64s, 75, 7, opReseed, 1, opNormal, 0, opNormFloat64s, 1, 0))
	f.Add(int64(5), cold(240, opBernoulli, 100, opReseed, 200, opExp, 9, opNormFloat64s, 2, 3))
	f.Fuzz(checkTape)
}

// wordLog wraps a stock source and records every word it emits, so a test
// can see how many words each reference draw consumed.
type wordLog struct {
	rand.Source
	words []int64
}

func (w *wordLog) Int63() int64 {
	v := w.Source.Int63()
	w.words = append(w.words, v)
	return v
}

// zigPath classifies one reference NormFloat64 by the words it consumed:
// the first word's strip and fast-path test, then, for a wedge, whether
// the test passed on its single extra Float64 (two words in all) or
// rejected and restarted.
type zigPath int

const (
	zigFast zigPath = iota
	zigBase
	zigWedgeAccept
	zigWedgeReject
	numZigPaths
)

func classifyNorm(words []int64) zigPath {
	j := int32(uint32(words[0] >> 31))
	i := j & 0x7F
	switch {
	case absInt32(j) < kn[i]:
		return zigFast
	case i == 0:
		return zigBase
	case len(words) == 2:
		return zigWedgeAccept
	default:
		return zigWedgeReject
	}
}

// TestStreamMatchesMathRand runs, per seed, enough Gaussians through
// every draw shape (Normal, ComplexGaussian, NormFloat64s fills of sizes
// around the 607-word register) to reach both ziggurat slow paths — the
// base-strip tail and the wedge test, accepted and rejected — and checks
// each draw bit for bit against math/rand.
func TestStreamMatchesMathRand(t *testing.T) {
	sizes := []int{1, 2, 3, 17, 333, 606, 607, 608, 1214, 4096}
	var total [numZigPaths]int
	for _, seed := range []int64{1, 2, 20261017, -99, zeroSeed} {
		s := New(seed)
		log := &wordLog{Source: rand.NewSource(seed)}
		ref := rand.New(log)
		next := func() (float64, zigPath) {
			log.words = log.words[:0]
			v := ref.NormFloat64()
			return v, classifyNorm(log.words)
		}
		var paths [numZigPaths]int
		for round := 0; round < 40; round++ {
			for _, n := range sizes {
				dst := make([]float64, n)
				s.NormFloat64s(dst)
				for k, got := range dst {
					want, p := next()
					paths[p]++
					if !sameBits(got, want) {
						t.Fatalf("seed %d: NormFloat64s(%d)[%d] = %v, want %v (%v path)", seed, n, k, got, want, p)
					}
				}
				got := s.Normal(0, 1)
				want, p := next()
				paths[p]++
				if !sameBits(got, 0+1*want) {
					t.Fatalf("seed %d: Normal(0, 1) = %v, want %v (%v path)", seed, got, want, p)
				}
				re, im := s.ComplexGaussian()
				wantRe, pRe := next()
				wantIm, pIm := next()
				paths[pRe]++
				paths[pIm]++
				if !sameBits(re, wantRe*ComplexScale) || !sameBits(im, wantIm*ComplexScale) {
					t.Fatalf("seed %d: ComplexGaussian = (%v, %v), want (%v, %v)", seed, re, im, wantRe*ComplexScale, wantIm*ComplexScale)
				}
			}
		}
		for p := range paths {
			total[p] += paths[p]
		}
	}
	for p, n := range total {
		if n == 0 {
			t.Errorf("no draw took ziggurat path %d; counts %v", p, total)
		}
	}
}
