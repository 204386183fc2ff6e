package stats

import (
	"math"
	"testing"
)

func TestMeanVarBasics(t *testing.T) {
	var m MeanVar
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		m.Add(x)
	}
	if m.Count() != 8 {
		t.Fatalf("count = %d", m.Count())
	}
	if math.Abs(m.Mean()-5) > 1e-12 {
		t.Fatalf("mean = %v, want 5", m.Mean())
	}
	// Sample variance of that classic set is 32/7.
	if math.Abs(m.Variance()-32.0/7) > 1e-12 {
		t.Fatalf("variance = %v, want %v", m.Variance(), 32.0/7)
	}
	if m.Min() != 2 || m.Max() != 9 {
		t.Fatalf("min/max = %v/%v", m.Min(), m.Max())
	}
}

func TestMeanVarEmpty(t *testing.T) {
	var m MeanVar
	if m.Mean() != 0 || m.Variance() != 0 || m.StdErr() != 0 || m.CI95() != 0 {
		t.Fatal("empty accumulator should report zeros")
	}
}

func TestMeanVarSingle(t *testing.T) {
	var m MeanVar
	m.Add(3)
	if m.Variance() != 0 {
		t.Fatal("single sample variance should be 0")
	}
}

func TestMeanVarReset(t *testing.T) {
	var m MeanVar
	m.Add(1)
	m.Reset()
	if m.Count() != 0 || m.Mean() != 0 {
		t.Fatal("Reset did not clear")
	}
}

func TestCounterMarkSince(t *testing.T) {
	var c Counter
	c.Add(10)
	c.Mark()
	c.Inc()
	c.Add(4)
	if c.Total() != 15 {
		t.Fatalf("total = %d", c.Total())
	}
	if c.Since() != 5 {
		t.Fatalf("since = %d, want 5 (warm-up excluded)", c.Since())
	}
}

func TestRatio(t *testing.T) {
	if Ratio(1, 0) != 0 {
		t.Fatal("Ratio with zero denominator should be 0")
	}
	if Ratio(3, 4) != 0.75 {
		t.Fatal("Ratio(3,4) != 0.75")
	}
}

func TestSeriesCrossingAscending(t *testing.T) {
	s := Series{Label: "x"}
	s.Append(10, 0.001, 0)
	s.Append(20, 0.005, 0)
	s.Append(30, 0.02, 0)
	x := s.CrossingX(0.01, false)
	// Interpolating between (20, 0.005) and (30, 0.02): crossing at 23.33.
	if math.Abs(x-23.333333) > 1e-3 {
		t.Fatalf("crossing = %v, want 23.33", x)
	}
}

func TestSeriesCrossingDescending(t *testing.T) {
	s := Series{}
	s.Append(0, 10, 0)
	s.Append(1, 6, 0)
	s.Append(2, 2, 0)
	x := s.CrossingX(4, true)
	if math.Abs(x-1.5) > 1e-9 {
		t.Fatalf("descending crossing = %v, want 1.5", x)
	}
}

func TestSeriesCrossingNone(t *testing.T) {
	s := Series{}
	s.Append(0, 1, 0)
	s.Append(1, 2, 0)
	if !math.IsNaN(s.CrossingX(10, false)) {
		t.Fatal("expected NaN for no crossing")
	}
}

func TestTCritical95(t *testing.T) {
	cases := []struct {
		df   int
		want float64
	}{
		{1, 12.706}, {2, 4.303}, {7, 2.365}, {9, 2.262}, {30, 2.042},
		{35, 2.021}, {50, 2.000}, {100, 1.980}, {1000, 1.96},
	}
	for _, c := range cases {
		if got := TCritical95(c.df); got != c.want {
			t.Errorf("TCritical95(%d) = %v, want %v", c.df, got, c.want)
		}
	}
	if !math.IsInf(TCritical95(0), 1) {
		t.Fatal("df=0 should yield +Inf")
	}
	// The critical value must shrink monotonically toward the normal limit.
	prev := math.Inf(1)
	for df := 1; df <= 200; df++ {
		v := TCritical95(df)
		if v > prev {
			t.Fatalf("TCritical95 not monotone at df=%d: %v > %v", df, v, prev)
		}
		prev = v
	}
}

func TestMeanVarTCI95(t *testing.T) {
	var m MeanVar
	if m.TCI95() != 0 {
		t.Fatal("empty TCI95 not 0")
	}
	m.Add(1)
	if m.TCI95() != 0 {
		t.Fatal("single-sample TCI95 not 0")
	}
	// Samples 1, 2, 3: mean 2, stddev 1, stderr 1/sqrt(3), df 2.
	m.Add(2)
	m.Add(3)
	want := 4.303 / math.Sqrt(3)
	if got := m.TCI95(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("TCI95 = %v, want %v", got, want)
	}
	// The t interval must be wider than the normal approximation at small n.
	if m.TCI95() <= m.CI95() {
		t.Fatal("Student-t interval should exceed the normal interval at n=3")
	}
}
