package rng

import (
	"math/rand"
	"testing"
)

// coldSpan covers the first-touch countdown (regLen−regTap = 334 draws)
// and a few draws past its end.
const coldSpan = 340

// singleDraw is one kind of single draw, taken on a Stream and on the
// stock Rand it must match.
type singleDraw struct {
	name string
	draw func(s *Stream, ref *rand.Rand) (got, want float64)
}

// singleDraws lists every single-draw entry point: the uniforms and the
// Gaussian on the concrete source, and the Rand-backed Exp and IntN.
var singleDraws = []singleDraw{
	{"Float64", func(s *Stream, ref *rand.Rand) (float64, float64) { return s.Float64(), ref.Float64() }},
	{"Bernoulli", func(s *Stream, ref *rand.Rand) (float64, float64) {
		return b2f(s.Bernoulli(0.37)), b2f(ref.Float64() < 0.37)
	}},
	{"Normal", func(s *Stream, ref *rand.Rand) (float64, float64) { return s.Normal(1, 2), 1 + 2*ref.NormFloat64() }},
	{"Exp", func(s *Stream, ref *rand.Rand) (float64, float64) { return s.Exp(3), ref.ExpFloat64() * 3 }},
	{"IntN", func(s *Stream, ref *rand.Rand) (float64, float64) {
		return float64(s.IntN(1000)), float64(ref.Intn(1000))
	}},
	{"Int63", func(s *Stream, ref *rand.Rand) (float64, float64) { return float64(s.Int63()), float64(ref.Int63()) }},
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// checkFills runs bulk fills of 1, 607 and 1,000 Gaussians on s and ref.
func checkFills(t *testing.T, label string, s *Stream, ref *rand.Rand) {
	t.Helper()
	for _, n := range []int{1, regLen, 1000} {
		dst := make([]float64, n)
		s.NormFloat64s(dst)
		for i, got := range dst {
			if want := ref.NormFloat64(); !sameBits(got, want) {
				t.Fatalf("%s: NormFloat64s(%d)[%d] %v, want %v", label, n, i, got, want)
			}
		}
	}
}

// TestColdRegisterMatchesMathRand walks the first-touch countdown draw by
// draw: for every k from 0 to 340, k single draws of each kind, then bulk
// fills that complete the register, must equal math/rand. A draw that
// reads a word before it is computed, recomputes a word a draw already
// rewrote, or a completion that misses a word, shows at the k where it
// happens.
func TestColdRegisterMatchesMathRand(t *testing.T) {
	for _, seed := range []int64{1, -20261019, zeroSeed} {
		for _, d := range singleDraws {
			for k := 0; k <= coldSpan; k++ {
				s, ref := New(seed), rand.New(rand.NewSource(seed))
				for i := 0; i < k; i++ {
					if got, want := d.draw(s, ref); !sameBits(got, want) {
						t.Fatalf("seed %d: %s draw %d of %d: %v, want %v", seed, d.name, i, k, got, want)
					}
				}
				checkFills(t, d.name, s, ref)
			}
		}
	}
}

// TestReseedInsideCountdown re-seeds a stream at every point of its
// countdown, and again after its register was completed with the old
// seed's words: the next 2,000 draws must equal a fresh math/rand on the
// new seed, so Reseed re-arms the countdown and no word of the old seed
// is read.
func TestReseedInsideCountdown(t *testing.T) {
	const oldSeed, newSeed = 7, 20261019
	for _, completed := range []bool{false, true} {
		for k := 0; k <= coldSpan; k++ {
			s := New(oldSeed)
			if completed {
				s.NormFloat64s(make([]float64, 1))
			}
			for i := 0; i < k; i++ {
				s.Float64()
			}
			s.Reseed(newSeed)
			ref := rand.New(rand.NewSource(newSeed))
			for i := 0; i < 2000; i++ {
				d := singleDraws[i%len(singleDraws)]
				if got, want := d.draw(s, ref); !sameBits(got, want) {
					t.Fatalf("completed %v, reseed after %d draws: %s draw %d %v, want %v", completed, k, d.name, i, got, want)
				}
			}
		}
	}
}
