package channel

import (
	"math"
	"testing"

	"charisma/internal/mathx"
	"charisma/internal/rng"
	"charisma/internal/sim"
)

// scalarRef is an independent re-implementation of the original
// one-object-per-user fading process, kept as the executable specification
// the SoA plane must match bit-for-bit: same draws, same order, same
// arithmetic expressions.
type scalarRef struct {
	p        Params
	rnd      *rng.Stream
	gRe, gIm float64
	shadowDB float64
}

func newScalarRef(p Params, stream *rng.Stream) *scalarRef {
	f := &scalarRef{p: p, rnd: stream}
	f.gRe, f.gIm = stream.ComplexGaussian()
	f.shadowDB = stream.Normal(p.ShadowMeanDB, p.ShadowSigmaDB)
	return f
}

func (f *scalarRef) amplitude() float64 {
	return mathx.AmpDBToLinear(f.shadowDB) * math.Hypot(f.gRe, f.gIm)
}

func (f *scalarRef) advance(dt sim.Time) {
	sec := dt.Seconds()
	rhoS := mathx.ExpCorrelation(f.p.CoherenceTime(), sec)
	rhoL := mathx.ExpCorrelation(f.p.ShadowCoherenceSec, sec)
	wRe, wIm := f.rnd.ComplexGaussian()
	innov := math.Sqrt(1 - rhoS*rhoS)
	f.gRe = rhoS*f.gRe + innov*wRe
	f.gIm = rhoS*f.gIm + innov*wIm
	w := f.rnd.Normal(0, 1)
	f.shadowDB = f.p.ShadowMeanDB +
		rhoL*(f.shadowDB-f.p.ShadowMeanDB) +
		math.Sqrt(1-rhoL*rhoL)*f.p.ShadowSigmaDB*w
}

// TestPlaneMatchesScalarReference drives a plane-backed Fading and the
// scalar specification through a mixed schedule of step sizes (standard
// frames interleaved with RMAV-style variable frames) and demands bitwise
// equality of every observable at every step.
func TestPlaneMatchesScalarReference(t *testing.T) {
	for _, speed := range []float64{10, 50, 120} {
		p := DefaultParams()
		p.SpeedKmh = speed
		f := NewFading(p, rng.Derive(11, "ref"))
		r := newScalarRef(p, rng.Derive(11, "ref"))
		dts := []sim.Time{800, 800, 1040, 800, 640, 800, 800, 800, 1040, 800}
		for i := 0; i < 500; i++ {
			dt := dts[i%len(dts)]
			f.Advance(dt)
			r.advance(dt)
			if f.Amplitude() != r.amplitude() {
				t.Fatalf("speed %v step %d: amplitude %x != scalar %x",
					speed, i, math.Float64bits(f.Amplitude()), math.Float64bits(r.amplitude()))
			}
			if f.LongTermDB() != r.shadowDB {
				t.Fatalf("speed %v step %d: shadow diverged", speed, i)
			}
			// Repeated queries of the memoized values must be stable.
			if f.Amplitude() != f.Amplitude() {
				t.Fatalf("speed %v step %d: memoized amplitude unstable", speed, i)
			}
			if f.LongTerm() != mathx.AmpDBToLinear(r.shadowDB) {
				t.Fatalf("speed %v step %d: local mean diverged", speed, i)
			}
		}
	}
}

// TestAdvanceStepsMatchesRepeatedAdvance pins the batched lazy-replay
// catch-up: n AdvanceSteps of equal dt are byte-identical to n Advances.
func TestAdvanceStepsMatchesRepeatedAdvance(t *testing.T) {
	for _, n := range []int{1, 2, 7, 400} {
		a := NewFading(DefaultParams(), rng.Derive(5, "steps"))
		b := NewFading(DefaultParams(), rng.Derive(5, "steps"))
		// Desynchronize the memo caches first: query a, not b.
		a.Advance(frameDur)
		b.Advance(frameDur)
		_ = a.Amplitude()
		a.AdvanceSteps(frameDur, n)
		for i := 0; i < n; i++ {
			b.Advance(frameDur)
		}
		if a.Amplitude() != b.Amplitude() {
			t.Fatalf("n=%d: batched catch-up diverged from stepwise", n)
		}
		if a.ShortTerm() != b.ShortTerm() || a.LongTerm() != b.LongTerm() {
			t.Fatalf("n=%d: components diverged", n)
		}
	}
}

// TestAdvanceStepsZeroAndNegative pins the no-op and panic edges.
func TestAdvanceStepsZeroAndNegative(t *testing.T) {
	f := NewFading(DefaultParams(), rng.Derive(6, "steps"))
	f.Advance(frameDur)
	before := f.Amplitude()
	f.AdvanceSteps(frameDur, 0)
	f.AdvanceSteps(frameDur, -3)
	if f.Amplitude() != before {
		t.Fatal("non-positive step counts must not move the channel")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative dt did not panic")
		}
	}()
	f.AdvanceSteps(-1, 2)
}

// TestBankWithSpeedsDeterminism covers a mixed-speed slab: construction
// is deterministic, users sharing a speed share a coefficient class on
// the plane, and every user's path matches its scalar reference.
func TestBankWithSpeedsDeterminism(t *testing.T) {
	speeds := []float64{10, 80, 50, 80, 10, 120, 50}
	a := slabUsers(3, speeds...)
	b := slabUsers(3, speeds...)
	if got, want := len(a[0].plane.classes), 4; got != want {
		t.Fatalf("coefficient classes = %d, want %d (distinct speeds)", got, want)
	}
	refs := make([]*scalarRef, len(speeds))
	for u := range speeds {
		p := DefaultParams()
		p.SpeedKmh = speeds[u]
		refs[u] = newScalarRef(p, rng.DeriveIndexed(3, "chan", u))
	}
	for i := 0; i < 100; i++ {
		advanceAll(a, frameDur)
		advanceAll(b, frameDur)
		for u := range speeds {
			refs[u].advance(frameDur)
		}
	}
	for u := range speeds {
		if a[u].Amplitude() != b[u].Amplitude() {
			t.Fatalf("user %d: same-seed slabs diverged", u)
		}
		if a[u].Amplitude() != refs[u].amplitude() {
			t.Fatalf("user %d: mixed-speed plane diverged from scalar reference", u)
		}
		if a[u].Params().SpeedKmh != speeds[u] {
			t.Fatalf("user %d: per-user speed not applied", u)
		}
	}
}

// TestSlabPerUserParams pins what a multicell deployment's cells rely
// on: a slab row with its own parameters and stream is indistinguishable
// from a standalone process on the same stream — both when first handed
// out and when re-issued after a Reset — and rows with distinct
// parameters intern distinct coefficient classes.
func TestSlabPerUserParams(t *testing.T) {
	params := func(i int) Params {
		p := DefaultParams()
		p.ShadowSigmaDB = float64(2 + i)
		return p
	}
	s := NewSlab()
	for round := 0; round < 2; round++ {
		s.Reset()
		rows := make([]*Fading, 3)
		for i := range rows {
			rows[i] = s.New(params(i), rng.DeriveIndexed(99, "mc-chan", 1, i))
		}
		if got := len(rows[0].plane.classes); got != 3 {
			t.Fatalf("round %d: %d coefficient classes, want 3", round, got)
		}
		for i, f := range rows {
			ref := NewFading(params(i), rng.DeriveIndexed(99, "mc-chan", 1, i))
			for k := 0; k < 5; k++ {
				f.Advance(frameDur)
				ref.Advance(frameDur)
				if f.Amplitude() != ref.Amplitude() {
					t.Fatalf("round %d: row %d diverged from standalone process at step %d", round, i, k)
				}
			}
		}
	}
}

// TestSlabReusedRowMatchesFresh guards the one memo a row keeps. Every
// row of a two-chunk slab is advanced and queried, so each amplitude memo
// is stamped with the row's step; after a Reset the rows are handed out
// again on fresh streams with other parameters, and each must read
// exactly like a fresh process on the same stream — before its first
// Advance, after one Advance and after a batched AdvanceSteps.
func TestSlabReusedRowMatchesFresh(t *testing.T) {
	const rows = slabChunk + 3
	old := DefaultParams()
	old.SpeedKmh = 120
	s := NewSlab()
	for u := 0; u < rows; u++ {
		f := s.New(old, rng.DeriveIndexed(1, "old", u))
		f.Advance(frameDur)
		f.AdvanceSteps(frameDur, 5)
		benchSink += f.Amplitude()
	}
	s.Reset()
	for u := 0; u < rows; u++ {
		got := s.New(DefaultParams(), rng.DeriveIndexed(2, "new", u))
		want := NewFading(DefaultParams(), rng.DeriveIndexed(2, "new", u))
		check := func(point string) {
			t.Helper()
			if got.Amplitude() != want.Amplitude() || got.LongTerm() != want.LongTerm() ||
				got.ShortTerm() != want.ShortTerm() || got.LongTermDB() != want.LongTermDB() {
				t.Fatalf("row %d %s: reused (amp %v, local mean %v, envelope %v, %v dB) != fresh (%v, %v, %v, %v dB)",
					u, point, got.Amplitude(), got.LongTerm(), got.ShortTerm(), got.LongTermDB(),
					want.Amplitude(), want.LongTerm(), want.ShortTerm(), want.LongTermDB())
			}
		}
		check("before the first Advance")
		got.Advance(frameDur)
		want.Advance(frameDur)
		check("after one Advance")
		got.AdvanceSteps(frameDur, 7)
		want.AdvanceSteps(frameDur, 7)
		check("after AdvanceSteps")
	}
}

// TestSlabFrameHotPathAllocs is the channel-plane analogue of the mac
// registry's frame-allocs guard: advancing every user of a slab or one
// user, querying amplitudes, replaying deferred steps and measuring
// estimates must all be allocation-free. Each operation is counted
// exactly over a batch of 1,000 calls, so even one malloc in the batch
// fails. The guard takes the fewest of three batches: runtime-internal
// mallocs (a new thread, timer-heap growth) land in the process-wide
// count at random, while one on the measured path recurs in every batch.
func TestSlabFrameHotPathAllocs(t *testing.T) {
	users := slabUsers(1, make([]float64, 256)...)
	f := users[0]
	obs := rng.New(7)
	for _, c := range []struct {
		name string
		op   func()
	}{
		{"advance every user", func() { advanceAll(users, frameDur) }},
		{"Fading.Advance", func() { f.Advance(frameDur) }},
		{"amplitude sweep", func() {
			for _, u := range users {
				benchSink += u.Amplitude()
			}
		}},
		{"AdvanceSteps", func() { f.AdvanceSteps(frameDur, 16) }},
		{"MeasureEstimate", func() { benchSink += f.MeasureEstimate(0.05, obs, 0).Amp }},
	} {
		batch := func() {
			for i := 0; i < 1000; i++ {
				c.op()
			}
		}
		if n := min(testing.AllocsPerRun(1, batch), testing.AllocsPerRun(1, batch), testing.AllocsPerRun(1, batch)); n != 0 {
			t.Errorf("%s: %.0f mallocs in 1000 calls, want 0", c.name, n)
		}
	}
}

var benchSink float64
