package channel

// This file implements the structure-of-arrays fading plane: the backing
// store every Fading value is a view into. A plane is one fixed chunk of
// slabChunk rows, and a Slab allocates it whole. A row holds only what a
// run reads: the live AR(1) state of the §4.2 two-component model, the
// row's private stream and parameter class, and one step-stamped amplitude
// memo. Rows advance one at a time (stepUser), with
//
//   - AR(1) step coefficients computed once per (dt, parameter class) for
//     the whole plane instead of being re-derived (and their √(1−ρ²)
//     innovation scales re-evaluated) per fading object per step,
//   - the combined amplitude memoized per row per step: it only changes
//     on Advance, yet the MAC queries it several times per frame, and
//     each query would otherwise re-pay a dB→linear exp plus a Hypot, and
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

// slabChunk is the row count of a plane, a Slab's unit of allocation:
// big enough that a typical cell fits in one or two chunks, small enough
// that a mostly-idle slab wastes little.
const slabChunk = 64

// plane is one fixed chunk of slabChunk fading processes in
// structure-of-arrays layout, allocated whole by a Slab. Rows advance
// independently (the mac layer replays lazily), so the amplitude memo is
// stamped with the row's own step counter rather than a plane-global
// epoch.
type plane struct {
	classes []coeffClass

	// ctr counts lazy-replay catch-ups. Plain adds on the goroutine that
	// owns the plane's cell — see package obs.
	ctr obs.SimCounters

	classOf [slabChunk]int32
	streams [slabChunk]*rng.Stream

	// Live AR(1) state.
	gRe, gIm, shadowDB [slabChunk]float64

	// step counts advances applied per row; amp is valid only when ampStep
	// equals the row's current step.
	step    [slabChunk]int64
	amp     [slabChunk]float64 // memoized combined amplitude c = c_l·c_s
	ampStep [slabChunk]int64

	views [slabChunk]Fading
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
// the envelope, one Gaussian for the shadow. The three come from one bulk
// fill, in that order and combined with the ComplexGaussian (x·ComplexScale)
// and Normal (mu + sigma·x) expressions, so the values are unchanged; the
// fill computes the stream's whole register now, since a row reads all of
// it within its first 112 steps, and every later draw takes the inlined
// step.
func (pl *plane) initUser(i int, p Params, stream *rng.Stream) {
	pl.classOf[i] = pl.classIndex(p)
	pl.streams[i] = stream
	var w [3]float64
	stream.NormFloat64s(w[:])
	pl.gRe[i], pl.gIm[i] = w[0]*rng.ComplexScale, w[1]*rng.ComplexScale
	pl.shadowDB[i] = p.ShadowMeanDB + p.ShadowSigmaDB*w[2]
	pl.ampStep[i] = -1
	pl.views[i] = Fading{plane: pl, idx: int32(i)}
}

// stepUser advances one user by a step whose coefficients the caller
// already resolved. The arithmetic is kept textually identical to the
// scalar implementation (byte-identity contract).
func (pl *plane) stepUser(i int, rhoS, innovS, rhoL, innovL, mean float64) {
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
	var buf [3 * catchUpChunk]float64
	for left := n; left > 0; {
		m := min(left, catchUpChunk)
		w := buf[:3*m]
		s.NormFloat64s(w)
		for k := 0; k < len(w); k += 3 {
			wRe, wIm := w[k]*rng.ComplexScale, w[k+1]*rng.ComplexScale
			re = rhoS*re + innovS*wRe
			im = rhoS*im + innovS*wIm
			ws := 0 + 1*w[k+2]
			sh = mean + rhoL*(sh-mean) + innovL*ws
		}
		left -= m
	}
	pl.gRe[i], pl.gIm[i], pl.shadowDB[i] = re, im, sh
	pl.step[i] += int64(n)
}

// amplitudeAt returns the memoized combined amplitude c = c_l·c_s for row
// i, computing it (local mean × Hypot envelope, exactly the scalar
// LongTerm()*ShortTerm() expression) at most once per step.
func (pl *plane) amplitudeAt(i int32) float64 {
	if pl.ampStep[i] != pl.step[i] {
		pl.amp[i] = mathx.AmpDBToLinear(pl.shadowDB[i]) * math.Hypot(pl.gRe[i], pl.gIm[i])
		pl.ampStep[i] = pl.step[i]
	}
	return pl.amp[i]
}
