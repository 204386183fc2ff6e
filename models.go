package charisma

import (
	"time"

	"charisma/internal/channel"
	"charisma/internal/experiments"
	"charisma/internal/sim"
)

// FadingPoint is one sample of a synthetic channel trace (the paper's
// Fig. 5: fast Rayleigh fading superimposed on log-normal shadowing).
type FadingPoint struct {
	At time.Duration
	// AmplitudeDB is the combined fading amplitude c(t) in dB.
	AmplitudeDB float64
	// ShadowDB is the long-term local mean component in dB.
	ShadowDB float64
}

// FadingTrace synthesizes a combined-fading sample path at the given mobile
// speed, sampled once per TDMA frame (2.5 ms). A duration shorter than
// one frame, negative included, gives an empty trace.
func FadingTrace(seed int64, duration time.Duration, speedKmh float64) []FadingPoint {
	p := channel.DefaultParams()
	if speedKmh > 0 {
		p.SpeedKmh = speedKmh
	}
	dt := sim.FromMilliseconds(2.5)
	n := int(sim.FromSeconds(duration.Seconds()) / dt)
	var out []FadingPoint
	for pt := range channel.Trace(p, seed, dt, n) {
		out = append(out, FadingPoint{
			At:          time.Duration(pt.T.Seconds() * float64(time.Second)),
			AmplitudeDB: pt.AmpDB,
			ShadowDB:    pt.ShadowDB,
		})
	}
	return out
}

// PHYPoint is one sample of the adaptive physical layer's operating curves
// (the paper's Fig. 7): which ABICM mode the modem selects at a given CSI,
// the normalized throughput it realizes, and the residual bit error rates.
type PHYPoint struct {
	// CSIAmplitude is the combined fading amplitude ĉ.
	CSIAmplitude float64
	// SNRdB is the corresponding instantaneous SNR.
	SNRdB float64
	// Mode is the selected ABICM mode index (0 = most robust).
	Mode int
	// Throughput is the normalized throughput η in bits/symbol (0 in
	// outage).
	Throughput float64
	// BER is the adaptive scheme's instantaneous bit error rate.
	BER float64
	// FixedBER is the fixed-rate encoder's BER at the same CSI.
	FixedBER float64
	// Outage marks CSI below the adaptation range.
	Outage bool
}

// PHYCurves samples the adaptive modem's Fig. 7 curves at n log-spaced CSI
// points.
func PHYCurves(n int) []PHYPoint {
	if n < 2 {
		n = 2
	}
	raw := experiments.ABICMCurves(n)
	out := make([]PHYPoint, len(raw))
	for i, pt := range raw {
		out[i] = PHYPoint{
			CSIAmplitude: pt.CSIAmp,
			SNRdB:        pt.SNRdB,
			Mode:         pt.Mode,
			Throughput:   pt.Eta,
			BER:          pt.BER,
			FixedBER:     pt.FixedBER,
			Outage:       pt.InOutage,
		}
	}
	return out
}
