package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDBConversionsRoundTrip(t *testing.T) {
	prop := func(raw float64) bool {
		db := math.Mod(math.Abs(raw), 60) - 30 // [-30, 30) dB
		lin := DBToLinear(db)
		return math.Abs(LinearToDB(lin)-db) < 1e-9
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDBAnchors(t *testing.T) {
	cases := []struct{ db, lin float64 }{
		{0, 1}, {10, 10}, {20, 100}, {-10, 0.1}, {3, 1.9952623},
	}
	for _, c := range cases {
		if got := DBToLinear(c.db); math.Abs(got-c.lin) > 1e-6 {
			t.Errorf("DBToLinear(%v) = %v, want %v", c.db, got, c.lin)
		}
	}
}

func TestAmpDBConversions(t *testing.T) {
	// 20 dB amplitude = 10x amplitude.
	if got := AmpDBToLinear(20); math.Abs(got-10) > 1e-9 {
		t.Fatalf("AmpDBToLinear(20) = %v, want 10", got)
	}
	if got := AmpLinearToDB(10); math.Abs(got-20) > 1e-9 {
		t.Fatalf("AmpLinearToDB(10) = %v, want 20", got)
	}
	if !math.IsInf(AmpLinearToDB(0), -1) {
		t.Fatal("AmpLinearToDB(0) should be -Inf")
	}
	if !math.IsInf(LinearToDB(-1), -1) {
		t.Fatal("LinearToDB(-1) should be -Inf")
	}
}

func TestExpCorrelation(t *testing.T) {
	if got := ExpCorrelation(0.01, 0); got != 1 {
		t.Fatalf("rho(0) = %v, want 1", got)
	}
	if got := ExpCorrelation(0.01, 0.01); math.Abs(got-1/math.E) > 1e-12 {
		t.Fatalf("rho(Tc) = %v, want 1/e", got)
	}
	if got := ExpCorrelation(0, 1); got != 0 {
		t.Fatalf("rho with zero coherence = %v, want 0", got)
	}
	// Monotone decreasing in lag.
	prev := 1.0
	for tau := 0.0; tau < 0.1; tau += 0.001 {
		r := ExpCorrelation(0.01, tau)
		if r > prev {
			t.Fatal("ExpCorrelation not monotone")
		}
		prev = r
	}
}
