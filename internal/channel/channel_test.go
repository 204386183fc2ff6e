package channel

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"charisma/internal/rng"
	"charisma/internal/sim"
)

const frameDur = 800 * sim.Time(1)

func newTestFading(seed int64) *Fading {
	return NewFading(DefaultParams(), rng.Derive(seed, "test"))
}

func TestParamsDefaults(t *testing.T) {
	p := DefaultParams()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := p.Doppler(); got != 100 {
		t.Fatalf("Doppler at 50 km/h = %v, want 100 Hz (Table 1)", got)
	}
	// Effective coherence: kappa/fd = 5/100 = 50 ms.
	if got := p.CoherenceTime(); math.Abs(got-0.05) > 1e-12 {
		t.Fatalf("coherence = %v, want 0.05 s", got)
	}
}

func TestDopplerScalesWithSpeed(t *testing.T) {
	p := DefaultParams()
	p.SpeedKmh = 80
	if got := p.Doppler(); math.Abs(got-160) > 1e-9 {
		t.Fatalf("Doppler at 80 km/h = %v, want 160 Hz", got)
	}
	p.DopplerHz = 42
	if got := p.Doppler(); got != 42 {
		t.Fatalf("explicit Doppler override = %v", got)
	}
}

func TestParamsValidate(t *testing.T) {
	p := DefaultParams()
	p.SpeedKmh = -1
	if p.Validate() == nil {
		t.Fatal("negative speed accepted")
	}
	p = DefaultParams()
	p.ShadowSigmaDB = -1
	if p.Validate() == nil {
		t.Fatal("negative sigma accepted")
	}
	p = DefaultParams()
	p.ShadowCoherenceSec = 0
	if p.Validate() == nil {
		t.Fatal("zero shadow coherence accepted")
	}
	// A negative Doppler override or coherence scale is refused, not run
	// as the default; zero keeps meaning the default.
	for _, v := range []float64{-100, -3} {
		p = DefaultParams()
		p.DopplerHz = v
		if p.Validate() == nil {
			t.Fatalf("Doppler %v Hz accepted", v)
		}
		p = DefaultParams()
		p.CoherenceScale = v
		if p.Validate() == nil {
			t.Fatalf("coherence scale %v accepted", v)
		}
	}
	p = DefaultParams()
	p.DopplerHz, p.CoherenceScale = 0, 0
	if err := p.Validate(); err != nil {
		t.Fatalf("zero Doppler override and coherence scale: %v", err)
	}
	if got, want := p.CoherenceTime(), 5/p.Doppler(); got != want {
		t.Fatalf("default coherence time %v, want %v", got, want)
	}
}

func TestShortTermRayleighStationarity(t *testing.T) {
	f := newTestFading(1)
	const n = 100000
	sumSq := 0.0
	for i := 0; i < n; i++ {
		f.Advance(frameDur)
		c := f.ShortTerm()
		sumSq += c * c
	}
	if p := sumSq / n; math.Abs(p-1) > 0.05 {
		t.Fatalf("E[c_s^2] = %v, want 1 (paper normalization)", p)
	}
}

func TestLongTermLogNormalStationarity(t *testing.T) {
	p := DefaultParams()
	f := NewFading(p, rng.Derive(2, "test"))
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		f.Advance(frameDur)
		db := f.LongTermDB()
		sum += db
		sumSq += db * db
	}
	mean := sum / n
	std := math.Sqrt(sumSq/n - mean*mean)
	if math.Abs(mean-p.ShadowMeanDB) > 0.5 {
		t.Fatalf("shadow mean = %v dB, want %v", mean, p.ShadowMeanDB)
	}
	if math.Abs(std-p.ShadowSigmaDB) > 0.5 {
		t.Fatalf("shadow std = %v dB, want %v", std, p.ShadowSigmaDB)
	}
}

func TestAmplitudeAlwaysPositive(t *testing.T) {
	prop := func(seed int64) bool {
		f := newTestFading(seed)
		for i := 0; i < 200; i++ {
			f.Advance(frameDur)
			if f.Amplitude() < 0 || f.ShortTerm() < 0 || f.LongTerm() <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestGainIsAmplitudeSquared(t *testing.T) {
	f := newTestFading(3)
	f.Advance(frameDur)
	a := f.Amplitude()
	if math.Abs(f.Gain()-a*a) > 1e-12 {
		t.Fatal("Gain != Amplitude^2")
	}
}

func TestShortTermCorrelationDecay(t *testing.T) {
	// Empirical lag-k autocorrelation of the complex envelope should track
	// exp(-k*frame/Tc).
	f := newTestFading(4)
	const n = 200000
	re := make([]float64, n)
	for i := 0; i < n; i++ {
		f.Advance(frameDur)
		re[i] = f.plane.gRe[f.idx]
	}
	corr := func(lag int) float64 {
		sum := 0.0
		for i := 0; i+lag < n; i++ {
			sum += re[i] * re[i+lag]
		}
		return sum / float64(n-lag) / 0.5 // component variance is 1/2
	}
	tc := DefaultParams().CoherenceTime()
	for _, lag := range []int{1, 4, 8} {
		want := math.Exp(-float64(lag) * frameDur.Seconds() / tc)
		got := corr(lag)
		if math.Abs(got-want) > 0.05 {
			t.Fatalf("lag-%d corr = %v, want %v", lag, got, want)
		}
	}
}

func TestFasterSpeedDecorrelatesFaster(t *testing.T) {
	slow, fast := DefaultParams(), DefaultParams()
	slow.SpeedKmh, fast.SpeedKmh = 10, 80
	if slow.CoherenceTime() <= fast.CoherenceTime() {
		t.Fatal("higher speed should shorten coherence time")
	}
}

func TestAdvanceDeterminism(t *testing.T) {
	a, b := newTestFading(5), newTestFading(5)
	for i := 0; i < 500; i++ {
		a.Advance(frameDur)
		b.Advance(frameDur)
		if a.Amplitude() != b.Amplitude() {
			t.Fatal("same-seed fading paths diverged")
		}
	}
}

func TestAdvanceNegativePanics(t *testing.T) {
	f := newTestFading(6)
	defer func() {
		if recover() == nil {
			t.Fatal("negative step did not panic")
		}
	}()
	f.Advance(-1)
}

func TestMeasureEstimateDoesNotPerturbChannel(t *testing.T) {
	a, b := newTestFading(7), newTestFading(7)
	obs := rng.Derive(99, "observer")
	for i := 0; i < 100; i++ {
		a.Advance(frameDur)
		b.Advance(frameDur)
		// Only a is measured — b must stay on the identical path.
		a.MeasureEstimate(0.05, obs, sim.Time(i))
	}
	if a.Amplitude() != b.Amplitude() {
		t.Fatal("measurement perturbed the fading path (breaks common random numbers)")
	}
}

func TestMeasureEstimateNoise(t *testing.T) {
	f := newTestFading(8)
	f.Advance(frameDur)
	obs := rng.Derive(1, "obs")
	exact := f.MeasureEstimate(0, obs, 0)
	if exact.Amp != f.Amplitude() {
		t.Fatal("zero-noise estimate should be exact")
	}
	// Noisy estimates stay near the truth and never go negative.
	for i := 0; i < 1000; i++ {
		e := f.MeasureEstimate(0.05, obs, 0)
		if e.Amp < 0 {
			t.Fatal("negative amplitude estimate")
		}
		if math.Abs(e.Amp-f.Amplitude()) > f.Amplitude()*0.3 {
			t.Fatalf("estimate %v too far from %v", e.Amp, f.Amplitude())
		}
	}
}

func TestEstimateAge(t *testing.T) {
	e := Estimate{Amp: 1, At: 100}
	if e.Age(900) != 800 {
		t.Fatalf("age = %v", e.Age(900))
	}
}

// slabUsers hands out one slab row per speed, user u on the stream
// (seed, "chan", u) — the per-user derivation a cell's population uses.
// A speed of 0 keeps the default parameters.
func slabUsers(seed int64, speeds ...float64) []*Fading {
	s := NewSlab()
	users := make([]*Fading, len(speeds))
	for u, v := range speeds {
		p := DefaultParams()
		if v > 0 {
			p.SpeedKmh, p.DopplerHz = v, 0
		}
		users[u] = s.New(p, rng.DeriveIndexed(seed, "chan", u))
	}
	return users
}

func advanceAll(users []*Fading, dt sim.Time) {
	for _, f := range users {
		f.Advance(dt)
	}
}

func TestBankIndependence(t *testing.T) {
	users := slabUsers(1, 0, 0)
	const n = 20000
	sumXY, sumX, sumY, sumX2, sumY2 := 0.0, 0.0, 0.0, 0.0, 0.0
	for i := 0; i < n; i++ {
		advanceAll(users, frameDur)
		x, y := users[0].Amplitude(), users[1].Amplitude()
		sumXY += x * y
		sumX += x
		sumY += y
		sumX2 += x * x
		sumY2 += y * y
	}
	mx, my := sumX/n, sumY/n
	cov := sumXY/n - mx*my
	sx := math.Sqrt(sumX2/n - mx*mx)
	sy := math.Sqrt(sumY2/n - my*my)
	// Samples are serially correlated, so allow a loose bound; true
	// cross-user correlation is zero.
	if r := cov / (sx * sy); math.Abs(r) > 0.15 {
		t.Fatalf("cross-user correlation = %v, want ~0 (paper: independent fading)", r)
	}
}

func TestBankUserCountAndSeeding(t *testing.T) {
	small := slabUsers(42, 0, 0, 0)
	large := slabUsers(42, 0, 0, 0, 0, 0)
	// User k's path must not depend on the population size (CRN property).
	advanceAll(small, frameDur)
	advanceAll(large, frameDur)
	for i := range small {
		if small[i].Amplitude() != large[i].Amplitude() {
			t.Fatalf("user %d path depends on population size", i)
		}
	}
}

func TestBankWithSpeeds(t *testing.T) {
	users := slabUsers(7, 10, 80)
	if users[0].Params().SpeedKmh != 10 || users[1].Params().SpeedKmh != 80 {
		t.Fatal("per-user speeds not applied")
	}
}

func TestTraceShape(t *testing.T) {
	tr := slices.Collect(Trace(DefaultParams(), 1, frameDur, 200))
	if len(tr) != 200 {
		t.Fatalf("trace length %d", len(tr))
	}
	varied := false
	for i := 1; i < len(tr); i++ {
		if tr[i].T <= tr[i-1].T {
			t.Fatal("trace time not increasing")
		}
		if tr[i].AmpDB != tr[i-1].AmpDB {
			varied = true
		}
		// Fast fading rides on the shadow: combined dB should wander
		// around the shadow level.
		if math.IsNaN(tr[i].AmpDB) {
			t.Fatal("NaN in trace")
		}
	}
	if !varied {
		t.Fatal("trace is constant")
	}
}

// TestTraceDrawsOnDemand: a trace is drawn as it is consumed, so a
// consumer of the first samples of even a MaxInt-sample trace gets them
// at once, in constant memory.
func TestTraceDrawsOnDemand(t *testing.T) {
	got := 0
	for range Trace(DefaultParams(), 1, frameDur, math.MaxInt) {
		if got++; got == 3 {
			break
		}
	}
	if got != 3 {
		t.Fatalf("%d samples before the break, want 3", got)
	}
}

func TestTraceDeterminism(t *testing.T) {
	a := slices.Collect(Trace(DefaultParams(), 9, frameDur, 50))
	b := slices.Collect(Trace(DefaultParams(), 9, frameDur, 50))
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("trace not deterministic")
		}
	}
}
