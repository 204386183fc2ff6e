// Package mathx supplies the small numeric substrate shared by the channel
// and PHY models: power and amplitude dB conversions, the
// exponential-decay autocorrelation the channel plane uses to map a
// coherence time to its AR(1) fading-process coefficient, and the
// finiteness check every parameter validator runs.
package mathx

import (
	"fmt"
	"math"
)

// Field is one named float parameter, for the finiteness checks.
type Field struct {
	Name  string
	Value float64
}

// FirstNonFinite returns the first field whose value is NaN or ±Inf, and
// false when every value is finite. Every `< 0` or range check a
// validator runs passes NaN, so validators check finiteness first.
func FirstNonFinite(fields ...Field) (Field, bool) {
	for _, f := range fields {
		if math.IsNaN(f.Value) || math.IsInf(f.Value, 0) {
			return f, true
		}
	}
	return Field{}, false
}

// CheckFinite is FirstNonFinite as an error prefixed with the owning
// package's name, or nil when every value is finite.
func CheckFinite(pkg string, fields ...Field) error {
	if f, bad := FirstNonFinite(fields...); bad {
		return fmt.Errorf("%s: %s is %v, want a finite value", pkg, f.Name, f.Value)
	}
	return nil
}

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
