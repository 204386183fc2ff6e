// Package phy models the paper's physical layers (§4.2, Figs. 6–7):
//
//   - the 6-mode variable-throughput adaptive bit-interleaved trellis coded
//     modulation scheme (ABICM, [15]) with normalized throughputs
//     η ∈ {1/2, 1, 2, 3, 4, 5} bits per symbol, operated in constant-BER
//     mode: adaptation thresholds are placed so each mode holds a target
//     transmission error level at its switching point, and
//   - the fixed-throughput channel encoder used by D-TDMA/FR, RAMA, RMAV
//     and DRMA: η = 1 with a deep worst-case fading margin (the classical
//     "large amount of FEC" design the paper's introduction criticizes).
//
// The MAC layers consume only the modem abstraction: a CSI → mode mapping,
// per-mode throughput (symbols needed per 160-bit packet), and a residual
// packet error probability given the channel state actually realized at
// transmission time. The BER waterfall is the standard adaptive-modulation
// exponential approximation BER(snr) = min(1/2, 0.2·exp(−λq·snr)) with λq
// calibrated so BER(θq) equals the target BER at mode q's threshold θq.
package phy

import (
	"fmt"
	"math"

	"charisma/internal/mathx"
)

// PacketBits is the information payload of one packet: the 8 kbps speech
// codec emits one 160-bit packet per 20 ms voice period (Table 1); data
// packets use the same size so slots are interchangeable.
const PacketBits = 160

// InfoSlotSymbols is the length of one information slot: at the baseline
// η = 1 mode a packet occupies exactly one slot.
const InfoSlotSymbols = 160

// Mode is one operating point of a modem.
type Mode struct {
	// Index is the mode number (0 = most robust).
	Index int
	// Eta is the normalized throughput in information bits per symbol.
	Eta float64
	// SNRThreshold is the minimum linear SNR at which the mode still
	// meets the target BER. Below it the residual error rate climbs.
	SNRThreshold float64
	// SymbolsPerPacket is ceil(PacketBits/Eta): the air time one packet
	// costs in this mode.
	SymbolsPerPacket int
	// HalfPacketsPerSlot is how many half-packets a 160-symbol slot
	// carries: ⌊2·Eta⌋. The half-packet granularity represents the η=1/2
	// mode (two slots per packet) without fractions.
	HalfPacketsPerSlot int
	// berLambda is the exponent of the BER waterfall for this mode.
	berLambda float64
}

// PacketsPerSlot returns how many whole packets one slot carries in this
// mode (0 for the half-rate mode).
func (m Mode) PacketsPerSlot() int { return m.HalfPacketsPerSlot / 2 }

// String renders a short mode descriptor.
func (m Mode) String() string {
	return fmt.Sprintf("mode%d(η=%.1f,θ=%.1fdB)", m.Index, m.Eta, mathx.LinearToDB(m.SNRThreshold))
}

// Params configures the modem family.
type Params struct {
	// MeanSNRdB is the average received SNR Γ̄ a user with 0 dB shadowing
	// enjoys; instantaneous SNR is c²·Γ̄.
	MeanSNRdB float64
	// TargetBER is the constant-BER operating point of the adaptive
	// scheme (paper §4.2: "adaptation thresholds set optimally to
	// maintain a target transmission error level").
	TargetBER float64
	// Etas are the normalized throughputs of the adaptive modes.
	Etas []float64
	// ThresholdsDB are the corresponding adaptation thresholds in SNR dB.
	ThresholdsDB []float64
	// FixedThresholdDB is the design point of the fixed-rate (η=1)
	// encoder: chosen deep enough that only rare deep fades defeat its
	// FEC, reproducing the small low-load transmission-error floor the
	// paper's five baselines exhibit in Fig. 11.
	FixedThresholdDB float64
	// CSIMargin is a link-adaptation back-off multiplier applied to the
	// *estimated* amplitude before picking a mode, to absorb estimation
	// noise and staleness (<1 is conservative).
	CSIMargin float64
}

// DefaultParams returns the calibrated reproduction constants. They are
// chosen so that, under Rayleigh fading at the default mean SNR, the
// adaptive scheme's average normalized throughput is ≈2 — reproducing the
// paper's "D-TDMA/VR has twice the average offered throughput compared to
// D-TDMA/FR" (§3.5) — and the fixed-rate error floor sits well below the 1%
// voice QoS threshold. See DESIGN.md §3 for the derivation.
func DefaultParams() Params {
	return Params{
		MeanSNRdB:        12,
		TargetBER:        1e-5,
		Etas:             []float64{0.5, 1, 2, 3, 4, 5},
		ThresholdsDB:     []float64{-17, 0, 6, 10.8, 14.8, 18.5},
		FixedThresholdDB: -11.5,
		CSIMargin:        0.9,
	}
}

// Validate reports configuration errors. Every field must be finite, and
// the mean SNR must have a positive, finite linear value: DBToLinear
// returns +Inf above about 3,083 dB and 0 below about −3,236 dB, where no
// mode threshold has a meaningful amplitude cutoff.
func (p Params) Validate() error {
	if err := mathx.CheckFinite("phy",
		mathx.Field{Name: "MeanSNRdB", Value: p.MeanSNRdB},
		mathx.Field{Name: "TargetBER", Value: p.TargetBER},
		mathx.Field{Name: "FixedThresholdDB", Value: p.FixedThresholdDB},
		mathx.Field{Name: "CSIMargin", Value: p.CSIMargin},
	); err != nil {
		return err
	}
	for i := range p.Etas {
		if math.IsNaN(p.Etas[i]) || math.IsInf(p.Etas[i], 0) {
			return fmt.Errorf("phy: Etas[%d] is %v, want a finite value", i, p.Etas[i])
		}
	}
	for i := range p.ThresholdsDB {
		if math.IsNaN(p.ThresholdsDB[i]) || math.IsInf(p.ThresholdsDB[i], 0) {
			return fmt.Errorf("phy: ThresholdsDB[%d] is %v, want a finite value", i, p.ThresholdsDB[i])
		}
	}
	if lin := mathx.DBToLinear(p.MeanSNRdB); lin == 0 || math.IsInf(lin, 1) {
		return fmt.Errorf("phy: mean SNR %v dB is %v in linear scale, want a positive finite ratio", p.MeanSNRdB, lin)
	}
	if len(p.Etas) == 0 {
		return fmt.Errorf("phy: no modes configured")
	}
	if len(p.Etas) != len(p.ThresholdsDB) {
		return fmt.Errorf("phy: %d etas but %d thresholds", len(p.Etas), len(p.ThresholdsDB))
	}
	if p.TargetBER <= 0 || p.TargetBER >= 0.5 {
		return fmt.Errorf("phy: target BER %v out of (0, 0.5)", p.TargetBER)
	}
	for i := 1; i < len(p.Etas); i++ {
		if p.Etas[i] <= p.Etas[i-1] {
			return fmt.Errorf("phy: etas must increase, got %v", p.Etas)
		}
		if p.ThresholdsDB[i] <= p.ThresholdsDB[i-1] {
			return fmt.Errorf("phy: thresholds must increase, got %v", p.ThresholdsDB)
		}
	}
	if p.CSIMargin <= 0 || p.CSIMargin > 1 {
		return fmt.Errorf("phy: CSI margin %v out of (0, 1]", p.CSIMargin)
	}
	return nil
}

// PHY is the modem abstraction the MAC layer sees.
type PHY interface {
	// Name identifies the modem ("abicm" or "fixed").
	Name() string
	// Adaptive reports whether the modem adapts its mode to CSI.
	Adaptive() bool
	// Modes lists the operating points, most robust first.
	Modes() []Mode
	// MeanSNR returns the configured linear average SNR Γ̄.
	MeanSNR() float64
	// ModeForAmplitude maps an (estimated) fading amplitude to the
	// transmission mode that will be used, applying the CSI margin.
	ModeForAmplitude(amp float64) Mode
	// OutageForAmplitude reports whether the amplitude is below even the
	// most robust mode's adaptation range (paper Fig. 7a: "the adaptation
	// range of the ABICM scheme can be exceeded").
	OutageForAmplitude(amp float64) bool
	// PacketErrorProb returns the probability that one 160-bit packet
	// transmitted in mode m is corrupted, given the amplitude actually
	// realized on the air.
	PacketErrorProb(m Mode, actualAmp float64) float64
	// BER returns the instantaneous bit error rate of mode m at the
	// given linear SNR (the Fig. 7a curve family).
	BER(m Mode, snr float64) float64
}

func buildMode(index int, eta, thresholdDB, targetBER float64) Mode {
	th := mathx.DBToLinear(thresholdDB)
	return Mode{
		Index:              index,
		Eta:                eta,
		SNRThreshold:       th,
		SymbolsPerPacket:   int(math.Ceil(PacketBits / eta)),
		HalfPacketsPerSlot: int(math.Floor(2 * eta)),
		berLambda:          math.Log(0.2/targetBER) / th,
	}
}

func berOf(m Mode, snr float64) float64 {
	if snr <= 0 {
		return 0.5
	}
	b := 0.2 * math.Exp(-m.berLambda*snr)
	if b > 0.5 {
		return 0.5
	}
	return b
}

func packetErrorProb(m Mode, actualAmp, meanSNR float64) float64 {
	snr := actualAmp * actualAmp * meanSNR
	ber := berOf(m, snr)
	// Independent bit errors after interleaving: a packet survives only
	// if all PacketBits bits do.
	return 1 - math.Pow(1-ber, PacketBits)
}

// ampCutoff returns the smallest float64 amplitude at which pred holds,
// given that pred is monotone non-decreasing in the amplitude, so a lookup
// against the returned cutoff reproduces the original compare-in-SNR-space
// predicate for every representable amplitude — the property that keeps
// the precomputed-threshold mode lookup byte-identical to the scan it
// replaces. Non-negative float64 values order like their bit patterns, so
// it bisects over the patterns: the algebraic solution seed brackets the
// boundary from one side, 0 or +Inf from the other, and at most 63
// bisection probes (66 in all) find the exact cutoff whatever the
// parameters. It returns 0 when pred(0) holds and +Inf when pred holds
// nowhere.
func ampCutoff(seed float64, pred func(amp float64) bool) float64 {
	if pred(0) {
		return 0
	}
	inf := math.Inf(1)
	if !pred(inf) {
		return inf
	}
	lo, hi := uint64(0), math.Float64bits(inf) // !pred(lo), pred(hi)
	if seed > 0 && seed < inf {
		if pred(seed) {
			hi = math.Float64bits(seed)
		} else {
			lo = math.Float64bits(seed)
		}
	}
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if pred(math.Float64frombits(mid)) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return math.Float64frombits(hi)
}

// Adaptive is the variable-throughput channel-adaptive ABICM modem.
type Adaptive struct {
	p       Params
	modes   []Mode
	meanSNR float64
	// ampCuts[q] is the exact minimum (margin-discounted, hence raw)
	// amplitude at which mode q's SNR threshold is met: the per-query
	// margin multiply, squaring and mean-SNR scaling of the former scan
	// are folded into construction, and ModeForAmplitude reduces to a
	// sorted lookup against precomputed linear-amplitude thresholds.
	ampCuts []float64
}

// NewAdaptive builds the ABICM modem from params; it panics on invalid
// configuration (construction-time programming error).
func NewAdaptive(p Params) *Adaptive {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	a := &Adaptive{p: p, meanSNR: mathx.DBToLinear(p.MeanSNRdB)}
	for i, eta := range p.Etas {
		a.modes = append(a.modes, buildMode(i, eta, p.ThresholdsDB[i], p.TargetBER))
	}
	for _, m := range a.modes {
		th := m.SNRThreshold
		a.ampCuts = append(a.ampCuts, ampCutoff(
			math.Sqrt(th/a.meanSNR)/p.CSIMargin,
			func(amp float64) bool {
				eff := amp * p.CSIMargin
				return eff*eff*a.meanSNR >= th
			}))
	}
	return a
}

// Name implements PHY.
func (a *Adaptive) Name() string { return "abicm" }

// Adaptive implements PHY.
func (a *Adaptive) Adaptive() bool { return true }

// Modes implements PHY.
func (a *Adaptive) Modes() []Mode { return a.modes }

// MeanSNR implements PHY.
func (a *Adaptive) MeanSNR() float64 { return a.meanSNR }

// Params returns the modem configuration.
func (a *Adaptive) Params() Params { return a.p }

// ModeForSNR returns the highest mode whose threshold the linear SNR meets,
// or the most robust mode (and outage=true) below the adaptation range.
func (a *Adaptive) ModeForSNR(snr float64) (Mode, bool) {
	best := -1
	for i := range a.modes {
		if snr >= a.modes[i].SNRThreshold {
			best = i
		}
	}
	if best < 0 {
		return a.modes[0], true
	}
	return a.modes[best], false
}

// ModeForAmplitude implements PHY: a counting pass over the precomputed
// sorted amplitude cutoffs (no per-call margin multiply, squaring or SNR
// scaling; the fixed-trip compare-and-count loop lowers to conditional
// moves rather than a data-dependent branch per mode). Byte-identical to
// the former compare-in-SNR-space scan by ampCutoff construction.
func (a *Adaptive) ModeForAmplitude(amp float64) Mode {
	k := 0
	for _, c := range a.ampCuts {
		if amp >= c {
			k++
		}
	}
	if k == 0 {
		return a.modes[0]
	}
	return a.modes[k-1]
}

// OutageForAmplitude implements PHY.
func (a *Adaptive) OutageForAmplitude(amp float64) bool {
	return amp < a.ampCuts[0]
}

// PacketErrorProb implements PHY.
func (a *Adaptive) PacketErrorProb(m Mode, actualAmp float64) float64 {
	return packetErrorProb(m, actualAmp, a.meanSNR)
}

// BER implements PHY.
func (a *Adaptive) BER(m Mode, snr float64) float64 { return berOf(m, snr) }

// MeanThroughputRayleigh returns E[η] under unit-mean Rayleigh fading at
// mean SNR Γ̄ — the calibration quantity behind the "twice the average
// offered throughput" claim. Computed in closed form from the exponential
// SNR distribution.
func (a *Adaptive) MeanThroughputRayleigh() float64 {
	// P(snr >= θ) = exp(-θ/Γ̄) for snr ~ Exp(Γ̄).
	tail := func(th float64) float64 { return math.Exp(-th / a.meanSNR) }
	mean := 0.0
	for i, m := range a.modes {
		pHere := tail(m.SNRThreshold)
		if i+1 < len(a.modes) {
			pHere -= tail(a.modes[i+1].SNRThreshold)
		}
		mean += m.Eta * pHere
	}
	return mean
}

// Fixed is the fixed-throughput (η = 1) channel encoder of the classical
// protocols: one packet per slot regardless of channel state, with a large
// static FEC margin.
type Fixed struct {
	p       Params
	mode    Mode
	modes   []Mode // cached single-element view; Modes is on the frame hot path
	meanSNR float64
	// outageCut is the exact minimum amplitude meeting the design-point
	// SNR (see ampCutoff).
	outageCut float64
}

// NewFixed builds the fixed-rate modem from params.
func NewFixed(p Params) *Fixed {
	if p.TargetBER <= 0 || p.TargetBER >= 0.5 {
		panic(fmt.Errorf("phy: target BER %v out of (0, 0.5)", p.TargetBER))
	}
	f := &Fixed{
		p:       p,
		mode:    buildMode(0, 1, p.FixedThresholdDB, p.TargetBER),
		meanSNR: mathx.DBToLinear(p.MeanSNRdB),
	}
	f.modes = []Mode{f.mode}
	f.outageCut = ampCutoff(math.Sqrt(f.mode.SNRThreshold/f.meanSNR),
		func(amp float64) bool { return amp*amp*f.meanSNR >= f.mode.SNRThreshold })
	return f
}

// Name implements PHY.
func (f *Fixed) Name() string { return "fixed" }

// Adaptive implements PHY.
func (f *Fixed) Adaptive() bool { return false }

// Modes implements PHY.
func (f *Fixed) Modes() []Mode { return f.modes }

// MeanSNR implements PHY.
func (f *Fixed) MeanSNR() float64 { return f.meanSNR }

// ModeForAmplitude implements PHY: the mode never changes.
func (f *Fixed) ModeForAmplitude(float64) Mode { return f.mode }

// OutageForAmplitude implements PHY: the fixed encoder is in (soft) outage
// when the SNR drops below its design point.
func (f *Fixed) OutageForAmplitude(amp float64) bool {
	return amp < f.outageCut
}

// PacketErrorProb implements PHY.
func (f *Fixed) PacketErrorProb(m Mode, actualAmp float64) float64 {
	return packetErrorProb(m, actualAmp, f.meanSNR)
}

// BER implements PHY.
func (f *Fixed) BER(m Mode, snr float64) float64 { return berOf(m, snr) }
