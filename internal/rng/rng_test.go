package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("identical seeds diverged")
		}
	}
}

func TestSeedForStable(t *testing.T) {
	if SeedFor(1, "chan", "0") != SeedFor(1, "chan", "0") {
		t.Fatal("SeedFor not deterministic")
	}
	if SeedFor(1, "chan", "0") == SeedFor(1, "chan", "1") {
		t.Fatal("different labels produced identical seeds")
	}
	if SeedFor(1, "chan") == SeedFor(2, "chan") {
		t.Fatal("different base seeds produced identical child seeds")
	}
}

func TestSeedForSeparatorPreventsAmbiguity(t *testing.T) {
	if SeedFor(1, "ab", "c") == SeedFor(1, "a", "bc") {
		t.Fatal(`("ab","c") collided with ("a","bc")`)
	}
}

func TestDeriveIndependentStreams(t *testing.T) {
	a := Derive(7, "voice", "1")
	b := Derive(7, "voice", "2")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams suspiciously correlated: %d identical of 100", same)
	}
}

func TestExpMean(t *testing.T) {
	s := New(1)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Exp(1.35)
	}
	mean := sum / n
	if math.Abs(mean-1.35) > 0.02 {
		t.Fatalf("Exp mean = %v, want 1.35", mean)
	}
}

func TestExpNonPositiveMean(t *testing.T) {
	s := New(1)
	if s.Exp(0) != 0 || s.Exp(-1) != 0 {
		t.Fatal("Exp with non-positive mean should be 0")
	}
}

func TestBernoulliEdges(t *testing.T) {
	s := New(1)
	if s.Bernoulli(0) {
		t.Fatal("Bernoulli(0) returned true")
	}
	if !s.Bernoulli(1) {
		t.Fatal("Bernoulli(1) returned false")
	}
	if s.Bernoulli(-0.5) {
		t.Fatal("Bernoulli(<0) returned true")
	}
	if !s.Bernoulli(1.5) {
		t.Fatal("Bernoulli(>1) returned false")
	}
}

func TestBernoulliRate(t *testing.T) {
	s := New(3)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if s.Bernoulli(0.3) {
			hits++
		}
	}
	rate := float64(hits) / n
	if math.Abs(rate-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) rate = %v", rate)
	}
}

func TestComplexGaussianUnitPower(t *testing.T) {
	s := New(5)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		re, im := s.ComplexGaussian()
		sum += re*re + im*im
	}
	if mean := sum / n; math.Abs(mean-1) > 0.02 {
		t.Fatalf("E[|g|^2] = %v, want 1 (paper's E[c_s^2]=1 normalization)", mean)
	}
}

// TestRayleighMoments: the magnitude of a ComplexGaussian sample is the
// unit-power Rayleigh envelope the short-term fading uses.
func TestRayleighMoments(t *testing.T) {
	s := New(9)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		c := math.Hypot(s.ComplexGaussian())
		sum += c
		sumSq += c * c
	}
	// E[c] = sqrt(pi)/2 for sigma^2 = 1/2 components.
	if mean := sum / n; math.Abs(mean-math.Sqrt(math.Pi)/2) > 0.01 {
		t.Fatalf("Rayleigh mean = %v, want %v", mean, math.Sqrt(math.Pi)/2)
	}
	if p := sumSq / n; math.Abs(p-1) > 0.02 {
		t.Fatalf("Rayleigh power = %v, want 1", p)
	}
}

func TestExpPositiveIntMeanAndFloor(t *testing.T) {
	s := New(11)
	const n = 100000
	sum := 0
	for i := 0; i < n; i++ {
		v := s.ExpPositiveInt(100)
		if v < 1 {
			t.Fatal("ExpPositiveInt returned < 1")
		}
		sum += v
	}
	mean := float64(sum) / n
	// Rounding an Exp(100) to >=1 adds ~P(X<0.5) ~ 0.5% upward bias.
	if math.Abs(mean-100) > 2 {
		t.Fatalf("ExpPositiveInt mean = %v, want ~100 (Table 1 burst size)", mean)
	}
}

func TestNormalMoments(t *testing.T) {
	s := New(13)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		x := s.Normal(3, 2)
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	if math.Abs(mean-3) > 0.03 {
		t.Fatalf("Normal mean = %v, want 3", mean)
	}
	if v := sumSq/n - mean*mean; math.Abs(v-4) > 0.1 {
		t.Fatalf("Normal variance = %v, want 4", v)
	}
}

func TestIntNRange(t *testing.T) {
	s := New(17)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := s.IntN(7)
		if v < 0 || v >= 7 {
			t.Fatalf("IntN(7) = %d out of range", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("IntN(7) covered only %d values", len(seen))
	}
}

// TestReseedMatchesNew pins Reseed to fresh construction: a reseeded stream
// must emit exactly the sequence a new stream with that seed would. The
// lazy population path depends on this — it probes first wakes through one
// reusable stream reseeded per station instead of allocating a stream each.
func TestReseedMatchesNew(t *testing.T) {
	s := New(1)
	for _, seed := range edgeSeeds {
		s.Float64() // desync so Reseed must do real work
		s.Reseed(seed)
		fresh := New(seed)
		for i := 0; i < sourceDraws; i++ {
			if got, want := s.Float64(), fresh.Float64(); got != want {
				t.Fatalf("seed %d draw %d: reseeded %v, fresh %v", seed, i, got, want)
			}
		}
	}
}
