package channel

import (
	"fmt"
	"math"

	"charisma/internal/mathx"
	"charisma/internal/obs"
	"charisma/internal/rng"
	"charisma/internal/sim"
)

// Params describes one user's fading statistics.
type Params struct {
	// SpeedKmh is the mobile speed; the Doppler spread scales linearly
	// with it, anchored at the paper's 100 Hz for 50 km/h.
	SpeedKmh float64

	// DopplerHz overrides the speed-derived Doppler spread when positive.
	DopplerHz float64

	// CoherenceScale κ sets the effective exponential-ACF coherence time
	// T_c = κ/f_d. The paper quotes T_c ≈ 1/f_d but *operationally
	// assumes* the CSI stays approximately constant across its two-frame
	// validity window (§4.2, §4.4) — which an exponential autocorrelation
	// only delivers with κ > 1. The default κ = 5 keeps the lag-1-frame
	// correlation at ≈0.95 (CSI usable within the validity window) while
	// fully decorrelating over a few tens of milliseconds, preserving the
	// burst-error behaviour the protocols are stressed with. Zero means
	// the default.
	CoherenceScale float64

	// ShadowMeanDB and ShadowSigmaDB are the mean and standard deviation
	// of the log-normal local mean, in amplitude dB (20·log10).
	ShadowMeanDB  float64
	ShadowSigmaDB float64

	// ShadowCoherenceSec is the shadowing decorrelation time constant
	// (paper: "the order of time span for c_l(t) is about one second").
	ShadowCoherenceSec float64
}

// DefaultParams returns the paper's Table 1 channel configuration: 50 km/h
// mean speed (f_d = 100 Hz, T_c ≈ 10 ms), moderate 4 dB shadowing with a
// one-second time constant.
func DefaultParams() Params {
	return Params{
		SpeedKmh:           50,
		ShadowMeanDB:       0,
		ShadowSigmaDB:      4,
		ShadowCoherenceSec: 1.0,
	}
}

// Doppler returns the effective Doppler spread in Hz.
func (p Params) Doppler() float64 {
	if p.DopplerHz > 0 {
		return p.DopplerHz
	}
	// Anchor: 100 Hz at 50 km/h (paper §4.2).
	return 100 * p.SpeedKmh / 50
}

// CoherenceTime returns the effective short-term coherence time κ/f_d in
// seconds (paper eq. (1) scaled by the ACF shape factor; see
// Params.CoherenceScale).
func (p Params) CoherenceTime() float64 {
	fd := p.Doppler()
	if fd <= 0 {
		return math.Inf(1)
	}
	k := p.CoherenceScale
	if k <= 0 {
		k = 5
	}
	return k / fd
}

// Validate reports configuration errors. Every field must be finite.
func (p Params) Validate() error {
	if err := mathx.CheckFinite("channel",
		mathx.Field{Name: "SpeedKmh", Value: p.SpeedKmh},
		mathx.Field{Name: "DopplerHz", Value: p.DopplerHz},
		mathx.Field{Name: "CoherenceScale", Value: p.CoherenceScale},
		mathx.Field{Name: "ShadowMeanDB", Value: p.ShadowMeanDB},
		mathx.Field{Name: "ShadowSigmaDB", Value: p.ShadowSigmaDB},
		mathx.Field{Name: "ShadowCoherenceSec", Value: p.ShadowCoherenceSec},
	); err != nil {
		return err
	}
	if p.SpeedKmh < 0 {
		return fmt.Errorf("channel: negative speed %v", p.SpeedKmh)
	}
	if p.ShadowSigmaDB < 0 {
		return fmt.Errorf("channel: negative shadow sigma %v", p.ShadowSigmaDB)
	}
	if p.ShadowCoherenceSec <= 0 {
		return fmt.Errorf("channel: non-positive shadow coherence %v", p.ShadowCoherenceSec)
	}
	return nil
}

// Fading is one user's combined fading process: a view into a
// structure-of-arrays plane holding the actual state. It consumes
// randomness only from its own stream and only inside Advance, so the
// sample path for a given seed is identical regardless of which MAC
// protocol observes it (common-random-numbers across the six protocols).
type Fading struct {
	plane *plane
	idx   int32
}

// NewFading creates a standalone fading process initialized at its
// stationary distribution: the first row of a fresh Slab.
func NewFading(p Params, stream *rng.Stream) *Fading { return NewSlab().New(p, stream) }

// Params returns the configured statistics.
func (f *Fading) Params() Params { return f.plane.classes[f.plane.classOf[f.idx]].p }

// Advance evolves the channel by dt ticks. It always consumes exactly three
// Gaussian draws so sample paths stay aligned across scenarios with the
// same per-user stream.
func (f *Fading) Advance(dt sim.Time) { f.plane.advanceUser(int(f.idx), dt) }

// AdvanceSteps evolves the channel by n consecutive steps of dt ticks each
// — byte-identical to calling Advance(dt) n times, but with the step
// coefficients resolved once and no amplitude conversions paid for the
// intermediate states. The MAC's lazy fading replay uses it to settle a
// station's deferred frames in one batch.
func (f *Fading) AdvanceSteps(dt sim.Time, n int) { f.plane.advanceUserSteps(int(f.idx), dt, n) }

// ShortTerm returns the instantaneous Rayleigh envelope c_s.
func (f *Fading) ShortTerm() float64 {
	return math.Hypot(f.plane.gRe[f.idx], f.plane.gIm[f.idx])
}

// LongTerm returns the instantaneous log-normal local mean amplitude c_l.
func (f *Fading) LongTerm() float64 { return mathx.AmpDBToLinear(f.plane.shadowDB[f.idx]) }

// LongTermDB returns the local mean in amplitude dB.
func (f *Fading) LongTermDB() float64 { return f.plane.shadowDB[f.idx] }

// Amplitude returns the combined fading amplitude c = c_l·c_s. The value is
// memoized per step: it can only change on Advance, and the MAC queries it
// several times per frame.
func (f *Fading) Amplitude() float64 { return f.plane.amplitudeAt(f.idx) }

// Gain returns the combined power gain c².
func (f *Fading) Gain() float64 {
	a := f.Amplitude()
	return a * a
}

// Estimate is a pilot-based CSI measurement: the amplitude the base station
// inferred plus the time it was taken. CHARISMA treats an estimate as valid
// for two frames (§4.4) and refreshes stale ones through the CSI-polling
// subframe.
type Estimate struct {
	Amp float64
	At  sim.Time
}

// Age returns how old the estimate is at time now.
func (e Estimate) Age(now sim.Time) sim.Time { return now - e.At }

// MeasureEstimate produces a noisy pilot-symbol estimate of the current
// amplitude. The noise stream belongs to the *observer* (the MAC), never to
// the fading process itself, so taking extra measurements cannot perturb
// the channel sample path.
func (f *Fading) MeasureEstimate(noiseStd float64, observer *rng.Stream, now sim.Time) Estimate {
	amp := f.Amplitude()
	if noiseStd > 0 {
		amp *= 1 + observer.Normal(0, noiseStd)
		if amp < 0 {
			amp = 0
		}
	}
	return Estimate{Amp: amp, At: now}
}

// Slab hands out fading processes as rows of fixed 64-row chunk planes,
// each chunk one allocation; it is the one way to get a fading process
// (NewFading is a row of a fresh slab). Reset rewinds the slab for the
// next replication: every chunk's rows are handed out again from the
// start, re-seeded by New with that user's own stream (initUser
// overwrites all live state and invalidates the amplitude memo), so a
// reused row is indistinguishable from a fresh one. Reset also drops the
// interned coefficient classes: New scans a plane's classes linearly, and
// a scenario with per-station speeds interns one class per station, so a
// list kept across replications would grow with every replication a slab
// hosts. The coefficients are pure functions of (Params, dt), so
// re-deriving them changes no value.
//
// Each row advances individually (the MAC's lazy per-station replay) and
// draws only from its own stream, so a row's sample path does not depend
// on its neighbours, the chunk it landed in or the order rows were handed
// out. A single-cell replication and every cell of a multicell deployment
// hold their links on a slab.
type Slab struct {
	planes []*plane
	cur    int // chunk currently being filled
	used   int // rows handed out of the current chunk
}

// NewSlab returns an empty slab.
func NewSlab() *Slab { return &Slab{} }

// New hands out the next fading process, initialized at its stationary
// distribution with exactly the draws the scalar implementation made
// (same stream, same order — byte-identity contract). The returned
// pointer is stable for the life of the slab; after a Reset the same rows
// are re-issued to the next replication's users in materialization order.
func (s *Slab) New(p Params, stream *rng.Stream) *Fading {
	if s.cur == len(s.planes) {
		s.planes = append(s.planes, new(plane))
	}
	pl := s.planes[s.cur]
	i := s.used
	pl.initUser(i, p, stream)
	s.used++
	if s.used == slabChunk {
		s.cur++
		s.used = 0
	}
	return &pl.views[i]
}

// Reset rewinds the slab so every row can be handed out again, and drops
// every plane's coefficient classes.
func (s *Slab) Reset() {
	s.cur, s.used = 0, 0
	for _, pl := range s.planes {
		pl.classes = pl.classes[:0]
	}
}

// Obs sums the lazy-replay counters of every chunk plane the slab has
// allocated. Read at a quiescent point only.
func (s *Slab) Obs() obs.SimCounters {
	var sum obs.SimCounters
	for _, pl := range s.planes {
		sum.Add(&pl.ctr)
	}
	return sum
}

// TracePoint is one sample of a recorded fading trace (Fig. 5 style).
type TracePoint struct {
	T        sim.Time
	AmpDB    float64
	ShadowDB float64
}

// Trace generates a fading trace of n samples spaced dt apart — the
// regenerator for the paper's Fig. 5 ("a sample of channel fading with fast
// fading superimposed on long-term shadowing").
func Trace(p Params, seed int64, dt sim.Time, n int) []TracePoint {
	f := NewFading(p, rng.Derive(seed, "trace"))
	out := make([]TracePoint, 0, n)
	for i := 0; i < n; i++ {
		f.Advance(dt)
		out = append(out, TracePoint{
			T:        sim.Time(i) * dt,
			AmpDB:    mathx.AmpLinearToDB(f.Amplitude()),
			ShadowDB: f.LongTermDB(),
		})
	}
	return out
}
