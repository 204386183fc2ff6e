// Package analytic provides closed-form and quadrature models that
// cross-check the simulator: voice source statistics, slotted contention
// success probabilities, the adaptive PHY's mode distribution under
// Rayleigh and composite Rayleigh/log-normal fading, mean-rate capacity
// bounds for the TDMA cell, and the fixed encoder's residual error floor.
//
// These are the sanity anchors behind the package's calibration tests
// (TestMeanRateBoundUpperBoundsSimulation runs the simulator against the
// capacity bound): a simulated number that drifts away from its analytic
// counterpart flags a regression in the models rather than a protocol
// effect.
package analytic

import (
	"math"

	"charisma/internal/phy"
	"charisma/internal/traffic"
)

// VoiceActivityFactor returns the stationary talkspurt probability
// t̄t/(t̄t+t̄s) of the two-state voice model.
func VoiceActivityFactor(p traffic.VoiceParams) float64 {
	return p.ActivityFactor()
}

// VoicePacketRatePerUser returns the long-run speech packet rate of one
// voice user in packets per second (one packet per 20 ms while talking).
func VoicePacketRatePerUser(p traffic.VoiceParams) float64 {
	perSecondTalking := 1 / p.Period.Seconds()
	return perSecondTalking * p.ActivityFactor()
}

// VoiceSlotDemandPerFrame returns the expected η=1 slot-equivalents of
// voice traffic per frame for nv users: nv · activity / periodFrames.
func VoiceSlotDemandPerFrame(nv int, p traffic.VoiceParams, frameSec float64) float64 {
	return float64(nv) * p.ActivityFactor() * frameSec / p.Period.Seconds()
}

// SlottedContentionSuccess returns the probability that a contention
// minislot with k permission-p contenders carries exactly one transmission
// (§2's collision model: no capture).
func SlottedContentionSuccess(k int, p float64) float64 {
	if k <= 0 || p <= 0 {
		return 0
	}
	return float64(k) * p * math.Pow(1-p, float64(k-1))
}

// OptimalPermission returns the permission probability maximizing the
// one-winner probability for k contenders (p* = 1/k).
func OptimalPermission(k int) float64 {
	if k <= 1 {
		return 1
	}
	return 1 / float64(k)
}

// ContentionCollapseLoad returns the contender count beyond which the
// per-minislot success probability falls below target for permission p —
// the thrashing onset the paper's request-mechanism discussion describes.
func ContentionCollapseLoad(p, target float64) int {
	for k := 1; k < 100000; k++ {
		if SlottedContentionSuccess(k, p) < target && k > int(1/p) {
			return k
		}
	}
	return math.MaxInt32
}

// ModeDistributionRayleigh returns the stationary probability of each
// adaptive mode (index aligned with modes; an extra leading outage mass is
// returned separately) under unit-mean Rayleigh fading at linear mean SNR.
func ModeDistributionRayleigh(a *phy.Adaptive) (outage float64, probs []float64) {
	modes := a.Modes()
	tail := func(th float64) float64 { return math.Exp(-th / a.MeanSNR()) }
	outage = 1 - tail(modes[0].SNRThreshold)
	probs = make([]float64, len(modes))
	for i := range modes {
		hi := 0.0
		if i+1 < len(modes) {
			hi = tail(modes[i+1].SNRThreshold)
		}
		probs[i] = tail(modes[i].SNRThreshold) - hi
	}
	return outage, probs
}

// MeanThroughputRayleigh returns E[η] under Rayleigh fading — the §3.5
// "twice the average offered throughput" calibration quantity.
func MeanThroughputRayleigh(a *phy.Adaptive) float64 {
	return a.MeanThroughputRayleigh()
}

// MeanThroughputComposite returns E[η] under composite Rayleigh ×
// log-normal shadowing fading, integrating the Rayleigh result over the
// shadow distribution by Gauss–Hermite-style quadrature on a uniform grid.
func MeanThroughputComposite(a *phy.Adaptive, shadowSigmaDB float64) float64 {
	if shadowSigmaDB <= 0 {
		return a.MeanThroughputRayleigh()
	}
	modes := a.Modes()
	mean := 0.0
	norm := 0.0
	const steps = 400
	for i := 0; i < steps; i++ {
		// Shadow amplitude in dB: N(0, sigma); integrate ±4 sigma.
		x := -4 + 8*(float64(i)+0.5)/steps
		w := math.Exp(-x * x / 2)
		shadowAmp := math.Pow(10, x*shadowSigmaDB/20)
		gain := shadowAmp * shadowAmp
		tail := func(th float64) float64 { return math.Exp(-th / (a.MeanSNR() * gain)) }
		local := 0.0
		for j, m := range modes {
			p := tail(m.SNRThreshold)
			if j+1 < len(modes) {
				p -= tail(modes[j+1].SNRThreshold)
			}
			local += m.Eta * p
		}
		mean += w * local
		norm += w
	}
	return mean / norm
}

// MeanSymbolsPerPacketRayleigh returns the expected air time of one packet
// under blind (D-TDMA/VR style) link adaptation: E[ceil(160/η)] over the
// non-outage mode distribution, with outage transmissions pinned to the
// most robust mode.
func MeanSymbolsPerPacketRayleigh(a *phy.Adaptive) float64 {
	outage, probs := ModeDistributionRayleigh(a)
	modes := a.Modes()
	mean := outage * float64(modes[0].SymbolsPerPacket)
	for i, m := range modes {
		mean += probs[i] * float64(m.SymbolsPerPacket)
	}
	return mean
}

// VoiceCapacityMeanRate returns the mean-rate voice capacity bound of a
// cell: the population at which expected voice demand equals the
// information subframe, for the given expected symbols per packet. Real
// protocols cross the 1% QoS threshold below this bound (contention
// overheads, deadline lumps), so it upper-bounds the Fig. 11 crossings.
func VoiceCapacityMeanRate(infoSymbolsPerFrame int, symbolsPerPacket float64, vp traffic.VoiceParams, frameSec float64) float64 {
	perUserSymbols := vp.ActivityFactor() * frameSec / vp.Period.Seconds() * symbolsPerPacket
	return float64(infoSymbolsPerFrame) / perUserSymbols
}

// FixedErrorFloorRayleigh returns the average packet error probability of
// the fixed encoder under Rayleigh fading — the low-load transmission-error
// floor visible at the left edge of Fig. 11 for the classical protocols.
func FixedErrorFloorRayleigh(f *phy.Fixed) float64 {
	m := f.Modes()[0]
	meanSNR := f.MeanSNR()
	const steps = 20000
	floor := 0.0
	for i := 0; i < steps; i++ {
		snr := (float64(i) + 0.5) / steps * meanSNR * 8
		pdf := math.Exp(-snr/meanSNR) / meanSNR
		amp := math.Sqrt(snr / meanSNR)
		floor += f.PacketErrorProb(m, amp) * pdf * meanSNR * 8 / steps
	}
	return floor
}

// DataOfferedPerFrame returns the offered data load of nd users in packets
// per frame.
func DataOfferedPerFrame(nd int, p traffic.DataParams, frameSec float64) float64 {
	return float64(nd) * p.OfferedPacketsPerSecond() * frameSec
}
