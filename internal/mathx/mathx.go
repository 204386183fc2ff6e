// Package mathx supplies the small numeric substrate shared by the channel
// and PHY models: power and amplitude dB conversions, and the
// exponential-decay autocorrelation the channel plane uses to map a
// coherence time to its AR(1) fading-process coefficient.
package mathx

import "math"

// DBToLinear converts a power ratio in decibels to linear scale.
func DBToLinear(db float64) float64 { return math.Pow(10, db/10) }

// LinearToDB converts a linear power ratio to decibels. Non-positive input
// maps to -Inf, matching the mathematical limit.
func LinearToDB(lin float64) float64 {
	if lin <= 0 {
		return math.Inf(-1)
	}
	return 10 * math.Log10(lin)
}

// AmpDBToLinear converts an amplitude (voltage) ratio in dB to linear scale
// using the 20·log10 convention the paper applies to the local mean
// (c_dB = 20·log c).
func AmpDBToLinear(db float64) float64 { return math.Pow(10, db/20) }

// AmpLinearToDB converts a linear amplitude ratio to dB (20·log10).
func AmpLinearToDB(lin float64) float64 {
	if lin <= 0 {
		return math.Inf(-1)
	}
	return 20 * math.Log10(lin)
}

// ExpCorrelation is the exponential-decay autocorrelation model
// rho = exp(-tau/Tc) the paper's MAC analysis effectively assumes (CSI
// "approximately constant" over a couple of frames, coherence time
// Tc ~ 1/fd). It is always in (0, 1] for tau >= 0.
func ExpCorrelation(coherenceSec, tauSec float64) float64 {
	if coherenceSec <= 0 {
		return 0
	}
	return math.Exp(-tauSec / coherenceSec)
}
