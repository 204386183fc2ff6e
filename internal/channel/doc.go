// Package channel implements the paper's two-component radio channel model
// (§4.2): c(t) = c_l(t)·c_s(t), where
//
//   - c_s(t) is Rayleigh short-term (multipath) fading with E[c_s²] = 1 and a
//     coherence time of roughly 1/f_d (≈10 ms at the paper's 100 Hz Doppler
//     spread, i.e. a 50 km/h mean mobile speed), and
//   - c_l(t) is log-normal long-term shadowing (the "local mean",
//     c_l,dB = 20·log c_l ~ N(m_l, σ_l²)) fluctuating on a ≈1 s time scale.
//
// Both components evolve as first-order Gauss–Markov (AR(1)) processes —
// the short-term one on the complex envelope so its magnitude stays exactly
// Rayleigh, the long-term one in the dB domain so its marginal stays exactly
// log-normal. Each mobile device owns an independent fading process
// (paper: "the channel fading experienced by each mobile device is
// independent of each other"), which is precisely the spatial diversity
// CHARISMA's scheduler exploits.
//
// The state of every process lives in a row of a structure-of-arrays
// fading plane, a fixed 64-row chunk that a Slab hands out (see plane.go).
// A Fading value is a thin view over its row, so the public API — and,
// critically, each user's private draw order, hence every result byte — is
// unchanged from the original scalar implementation while AR(1) step
// coefficients are shared per parameter class and the combined amplitude
// is memoized per step. A row keeps only the live AR(1) state, its stream
// and parameter class, and that one memo.
//
// # Draw-order contract
//
// Every fading process draws from its own private rng stream, and an
// advance of dt consumes exactly two Gaussian draws (envelope innovation)
// plus one per shadowing step — independent of who asks, in what batch
// size, or how late. Fading.AdvanceSteps(dt, k) must consume the identical
// draws as k repeated Advance(dt) calls: the MAC layer's lazy replay
// (mac.System.syncChannel) leans on this to defer idle stations' fading
// for thousands of frames and still observe byte-identical amplitudes at
// every observation point. Anything that reorders, batches, or caches in
// this package must preserve that per-user draw sequence.
package channel
