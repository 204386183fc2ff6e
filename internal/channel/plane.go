package channel

// This file implements the structure-of-arrays fading plane: the backing
// store every Fading value is a view into. The per-user state of the §4.2
// two-component model lives in parallel slices and advances one user at a
// time (stepUser), with
//
//   - AR(1) step coefficients computed once per (dt, parameter class) for
//     the whole plane instead of being re-derived (and their √(1−ρ²)
//     innovation scales re-evaluated) per fading object per step,
//   - amplitude and local-mean conversions memoized per user per step:
//     they only change on Advance, yet the MAC queries them several times
//     per frame, and each query used to re-pay a dB→linear exp plus a
//     Hypot, and
//   - the deferred-catch-up loop the MAC's lazy fading replay needs
//     exposed as one batched call (advanceUserSteps) that keeps the whole
//     recurrence in registers and skips every amplitude conversion for
//     the intermediate states nobody observes.
//
// Byte-identity contract: the plane consumes exactly the same draws, from
// the same per-user private streams, in the same order, and combines them
// with arithmetic expressions kept textually identical to the original
// scalar implementation — so every sample path, and therefore every
// simulation result, is bit-for-bit unchanged (pinned by the golden suite
// in golden_test.go and TestPlaneMatchesScalarReference).

import (
	"math"

	"charisma/internal/mathx"
	"charisma/internal/obs"
	"charisma/internal/rng"
	"charisma/internal/sim"
)

// coeffMemo is one cached set of AR(1) step coefficients for a step size.
type coeffMemo struct {
	dt     sim.Time
	rhoS   float64 // short-term AR(1) coefficient
	innovS float64 // √(1−ρs²)
	rhoL   float64 // long-term (shadowing) AR(1) coefficient
	innovL float64 // √(1−ρl²)·σl
}

// coeffClass holds the AR(1) step coefficients shared by every user with
// the same Params. Two MRU-ordered memo slots cache the most recent step
// sizes: RMAV alternates between its variable frame duration and the
// standard-frame replay step every frame, which thrashed the old
// single-slot memo into re-deriving both Exp/Sqrt pairs each time.
type coeffClass struct {
	p         Params
	coherence float64 // p.CoherenceTime(), hoisted
	memo      [2]coeffMemo
}

func (c *coeffClass) coeffs(dt sim.Time) (rhoS, innovS, rhoL, innovL float64) {
	if m := &c.memo[0]; m.dt == dt {
		return m.rhoS, m.innovS, m.rhoL, m.innovL
	}
	if c.memo[1].dt == dt {
		c.memo[0], c.memo[1] = c.memo[1], c.memo[0]
		m := &c.memo[0]
		return m.rhoS, m.innovS, m.rhoL, m.innovL
	}
	sec := dt.Seconds()
	m := coeffMemo{dt: dt}
	m.rhoS = mathx.ExpCorrelation(c.coherence, sec)
	m.innovS = math.Sqrt(1 - m.rhoS*m.rhoS)
	m.rhoL = mathx.ExpCorrelation(c.p.ShadowCoherenceSec, sec)
	m.innovL = math.Sqrt(1-m.rhoL*m.rhoL) * c.p.ShadowSigmaDB
	c.memo[1] = c.memo[0]
	c.memo[0] = m
	return m.rhoS, m.innovS, m.rhoL, m.innovL
}

// plane is the structure-of-arrays state for a set of independent fading
// processes. Users advance independently (the mac layer replays lazily), so
// every per-step memo is stamped with the user's own step counter rather
// than a plane-global epoch.
type plane struct {
	classes []coeffClass
	classOf []int32
	streams []*rng.Stream

	// Live AR(1) state.
	gRe, gIm, shadowDB []float64
	// State before the user's most recent step (for delayed estimates).
	prevGRe, prevGIm, prevShadowDB []float64

	// step counts advances applied per user; the caches below are valid
	// only when their stamp equals the user's current step.
	step []int64

	amp      []float64 // memoized combined amplitude c = c_l·c_s
	ampStep  []int64
	lt       []float64 // memoized linear local mean c_l
	ltStep   []int64
	prevAmp  []float64 // memoized pre-step amplitude
	prevStep []int64

	views []Fading

	// ctr counts lazy-replay catch-ups. Plain adds on the goroutine that
	// owns the plane's cell — see package obs.
	ctr obs.SimCounters
}

func newPlane(n int) *plane {
	pl := &plane{
		classOf:      make([]int32, n),
		streams:      make([]*rng.Stream, n),
		gRe:          make([]float64, n),
		gIm:          make([]float64, n),
		shadowDB:     make([]float64, n),
		prevGRe:      make([]float64, n),
		prevGIm:      make([]float64, n),
		prevShadowDB: make([]float64, n),
		step:         make([]int64, n),
		amp:          make([]float64, n),
		ampStep:      make([]int64, n),
		lt:           make([]float64, n),
		ltStep:       make([]int64, n),
		prevAmp:      make([]float64, n),
		prevStep:     make([]int64, n),
		views:        make([]Fading, n),
	}
	return pl
}

// classIndex interns a parameter set. A plane is almost always one class;
// the mixed-speed experiment yields one class per distinct speed.
func (pl *plane) classIndex(p Params) int32 {
	for i := range pl.classes {
		if pl.classes[i].p == p {
			return int32(i)
		}
	}
	pl.classes = append(pl.classes, coeffClass{p: p, coherence: p.CoherenceTime(), memo: [2]coeffMemo{{dt: -1}, {dt: -1}}})
	return int32(len(pl.classes) - 1)
}

// initUser seeds user i at its stationary distribution, drawing exactly the
// initialization draws the scalar NewFading made: one complex Gaussian for
// the envelope, one Gaussian for the shadow.
func (pl *plane) initUser(i int, p Params, stream *rng.Stream) {
	pl.classOf[i] = pl.classIndex(p)
	pl.streams[i] = stream
	re, im := stream.ComplexGaussian()
	sh := stream.Normal(p.ShadowMeanDB, p.ShadowSigmaDB)
	pl.gRe[i], pl.gIm[i], pl.shadowDB[i] = re, im, sh
	pl.prevGRe[i], pl.prevGIm[i], pl.prevShadowDB[i] = re, im, sh
	pl.ampStep[i], pl.ltStep[i], pl.prevStep[i] = -1, -1, -1
	pl.views[i] = Fading{plane: pl, idx: int32(i)}
}

// stepUser advances one user by a step whose coefficients the caller
// already resolved. The arithmetic is kept textually identical to the
// scalar implementation (byte-identity contract).
func (pl *plane) stepUser(i int, rhoS, innovS, rhoL, innovL, mean float64) {
	// Carry a memoized amplitude into the delayed-estimate cache: the
	// pre-step amplitude is exactly the amplitude of the current state.
	if pl.ampStep[i] == pl.step[i] {
		pl.prevAmp[i] = pl.amp[i]
		pl.prevStep[i] = pl.step[i] + 1
	}
	pl.prevGRe[i], pl.prevGIm[i], pl.prevShadowDB[i] = pl.gRe[i], pl.gIm[i], pl.shadowDB[i]
	s := pl.streams[i]
	wRe, wIm := s.ComplexGaussian()
	pl.gRe[i] = rhoS*pl.gRe[i] + innovS*wRe
	pl.gIm[i] = rhoS*pl.gIm[i] + innovS*wIm
	w := s.Normal(0, 1)
	pl.shadowDB[i] = mean + rhoL*(pl.shadowDB[i]-mean) + innovL*w
	pl.step[i]++
}

// advanceUser steps a single user by dt (the per-view Advance).
func (pl *plane) advanceUser(i int, dt sim.Time) {
	if dt < 0 {
		panic("channel: negative time step")
	}
	c := &pl.classes[pl.classOf[i]]
	rhoS, innovS, rhoL, innovL := c.coeffs(dt)
	pl.stepUser(i, rhoS, innovS, rhoL, innovL, c.p.ShadowMeanDB)
}

// catchUpChunk is how many deferred steps advanceUserSteps draws per bulk
// fill: three Gaussians a step in a 1.5 KiB stack buffer.
const catchUpChunk = 64

// advanceUserSteps replays n equal deferred steps for one user — the MAC's
// lazy-replay catch-up, batched: coefficients are resolved once, each
// chunk's innovations come from one NormFloat64s fill in the scalar draw
// order (re, im, shadow per step), the recurrence runs in registers, and
// no amplitude conversion is paid for the n−1 intermediate states nobody
// can observe. The innovation expressions are the scalar path's
// ComplexGaussian (x·ComplexScale) and Normal(0, 1) (mu + sigma·x with
// mu 0 and sigma 1), so every state is bit-identical to n stepUser calls.
func (pl *plane) advanceUserSteps(i int, dt sim.Time, n int) {
	if n <= 0 {
		return
	}
	pl.ctr.ChannelCatchUps++
	pl.ctr.ChannelCatchUpSteps += uint64(n)
	if dt < 0 {
		panic("channel: negative time step")
	}
	if n == 1 {
		pl.advanceUser(i, dt)
		return
	}
	c := &pl.classes[pl.classOf[i]]
	rhoS, innovS, rhoL, innovL := c.coeffs(dt)
	mean := c.p.ShadowMeanDB
	s := pl.streams[i]
	re, im, sh := pl.gRe[i], pl.gIm[i], pl.shadowDB[i]
	var pre, pim, psh float64
	var buf [3 * catchUpChunk]float64
	for left := n; left > 0; {
		m := min(left, catchUpChunk)
		w := buf[:3*m]
		s.NormFloat64s(w)
		for k := 0; k < len(w); k += 3 {
			pre, pim, psh = re, im, sh
			wRe, wIm := w[k]*rng.ComplexScale, w[k+1]*rng.ComplexScale
			re = rhoS*re + innovS*wRe
			im = rhoS*im + innovS*wIm
			ws := 0 + 1*w[k+2]
			sh = mean + rhoL*(sh-mean) + innovL*ws
		}
		left -= m
	}
	pl.gRe[i], pl.gIm[i], pl.shadowDB[i] = re, im, sh
	pl.prevGRe[i], pl.prevGIm[i], pl.prevShadowDB[i] = pre, pim, psh
	pl.step[i] += int64(n)
}

// longTermAt returns the memoized linear local mean c_l for user i.
func (pl *plane) longTermAt(i int32) float64 {
	if pl.ltStep[i] != pl.step[i] {
		pl.lt[i] = mathx.AmpDBToLinear(pl.shadowDB[i])
		pl.ltStep[i] = pl.step[i]
	}
	return pl.lt[i]
}

// amplitudeAt returns the memoized combined amplitude c = c_l·c_s for user
// i, computing it (local mean × Hypot envelope, exactly the scalar
// LongTerm()*ShortTerm() expression) at most once per step.
func (pl *plane) amplitudeAt(i int32) float64 {
	if pl.ampStep[i] != pl.step[i] {
		pl.amp[i] = pl.longTermAt(i) * math.Hypot(pl.gRe[i], pl.gIm[i])
		pl.ampStep[i] = pl.step[i]
	}
	return pl.amp[i]
}

// prevAmplitudeAt returns the combined amplitude of user i's state before
// its most recent step, computed lazily from the preserved pre-step
// components unless the step carried a memoized value over.
func (pl *plane) prevAmplitudeAt(i int32) float64 {
	if pl.prevStep[i] != pl.step[i] {
		pl.prevAmp[i] = mathx.AmpDBToLinear(pl.prevShadowDB[i]) * math.Hypot(pl.prevGRe[i], pl.prevGIm[i])
		pl.prevStep[i] = pl.step[i]
	}
	return pl.prevAmp[i]
}
