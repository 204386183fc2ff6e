package phy

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"charisma/internal/mathx"
)

func TestDefaultParamsValid(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestParamsValidation(t *testing.T) {
	bad := []func(*Params){
		func(p *Params) { p.Etas = nil },
		func(p *Params) { p.Etas = []float64{1, 2} }, // length mismatch
		func(p *Params) { p.TargetBER = 0 },
		func(p *Params) { p.TargetBER = 0.6 },
		func(p *Params) { p.Etas = []float64{2, 1, 3, 4, 5, 6} },
		func(p *Params) { p.ThresholdsDB = []float64{5, 0, 6, 10, 14, 18} },
		func(p *Params) { p.CSIMargin = 0 },
		func(p *Params) { p.CSIMargin = 1.5 },
	}
	for i, mutate := range bad {
		p := DefaultParams()
		mutate(&p)
		if p.Validate() == nil {
			t.Errorf("case %d: invalid params accepted", i)
		}
	}
}

func TestSixModesWithPaperThroughputs(t *testing.T) {
	a := NewAdaptive(DefaultParams())
	modes := a.Modes()
	if len(modes) != 6 {
		t.Fatalf("%d modes, want 6 (paper §4.2)", len(modes))
	}
	want := []float64{0.5, 1, 2, 3, 4, 5}
	for i, m := range modes {
		if m.Eta != want[i] {
			t.Fatalf("mode %d eta = %v, want %v", i, m.Eta, want[i])
		}
		if m.Index != i {
			t.Fatalf("mode index %d != %d", m.Index, i)
		}
	}
}

func TestSymbolsPerPacket(t *testing.T) {
	a := NewAdaptive(DefaultParams())
	want := []int{320, 160, 80, 54, 40, 32}
	for i, m := range a.Modes() {
		if m.SymbolsPerPacket != want[i] {
			t.Fatalf("mode %d: %d symbols/packet, want %d", i, m.SymbolsPerPacket, want[i])
		}
	}
}

func TestHalfPacketsPerSlot(t *testing.T) {
	a := NewAdaptive(DefaultParams())
	want := []int{1, 2, 4, 6, 8, 10}
	for i, m := range a.Modes() {
		if m.HalfPacketsPerSlot != want[i] {
			t.Fatalf("mode %d: %d half-packets/slot, want %d", i, m.HalfPacketsPerSlot, want[i])
		}
	}
}

func TestSlotsPerPacketAndPacketsPerSlot(t *testing.T) {
	a := NewAdaptive(DefaultParams())
	// The half-rate mode carries half a packet per slot, so a packet
	// takes two slots; mode 3 carries three whole packets in one slot.
	m0 := a.Modes()[0]
	if m0.HalfPacketsPerSlot != 1 || m0.PacketsPerSlot() != 0 {
		t.Fatal("half-rate mode slot accounting wrong")
	}
	m3 := a.Modes()[3]
	if m3.HalfPacketsPerSlot != 6 || m3.PacketsPerSlot() != 3 {
		t.Fatal("mode 3 slot accounting wrong")
	}
}

func TestModeSelectionMonotoneInSNR(t *testing.T) {
	a := NewAdaptive(DefaultParams())
	prop := func(rawA, rawB float64) bool {
		s1 := math.Abs(math.Mod(rawA, 1000))
		s2 := math.Abs(math.Mod(rawB, 1000))
		if s1 > s2 {
			s1, s2 = s2, s1
		}
		m1, _ := a.ModeForSNR(s1)
		m2, _ := a.ModeForSNR(s2)
		return m1.Index <= m2.Index
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestModeSelectionAtThresholds(t *testing.T) {
	a := NewAdaptive(DefaultParams())
	for i, m := range a.Modes() {
		got, outage := a.ModeForSNR(m.SNRThreshold)
		if got.Index != i || outage {
			t.Fatalf("at threshold of mode %d selected mode %d (outage=%v)", i, got.Index, outage)
		}
		// Just below the lowest threshold: outage.
		if i == 0 {
			_, out := a.ModeForSNR(m.SNRThreshold * 0.99)
			if !out {
				t.Fatal("below adaptation range should be outage (Fig. 7a)")
			}
		}
	}
}

func TestOutageForAmplitude(t *testing.T) {
	a := NewAdaptive(DefaultParams())
	if !a.OutageForAmplitude(0.001) {
		t.Fatal("deep fade not flagged as outage")
	}
	if a.OutageForAmplitude(1.0) {
		t.Fatal("unit amplitude flagged as outage")
	}
}

func TestCSIMarginConservatism(t *testing.T) {
	p := DefaultParams()
	noMargin := p
	noMargin.CSIMargin = 1.0
	a := NewAdaptive(p)
	b := NewAdaptive(noMargin)
	for amp := 0.05; amp < 4; amp *= 1.07 {
		if a.ModeForAmplitude(amp).Index > b.ModeForAmplitude(amp).Index {
			t.Fatalf("margined selection more aggressive at amp=%v", amp)
		}
	}
}

func TestBERWaterfall(t *testing.T) {
	a := NewAdaptive(DefaultParams())
	for _, m := range a.Modes() {
		// At the adaptation threshold, the target BER is met exactly.
		if got := a.BER(m, m.SNRThreshold); math.Abs(got-a.Params().TargetBER)/a.Params().TargetBER > 1e-9 {
			t.Fatalf("mode %d BER at threshold = %v, want %v", m.Index, got, a.Params().TargetBER)
		}
		// Above threshold: better. Below: worse (constant-BER operation).
		if a.BER(m, m.SNRThreshold*2) >= a.Params().TargetBER {
			t.Fatalf("mode %d BER did not improve above threshold", m.Index)
		}
		if a.BER(m, m.SNRThreshold/2) <= a.Params().TargetBER {
			t.Fatalf("mode %d BER did not degrade below threshold", m.Index)
		}
		if a.BER(m, 0) != 0.5 {
			t.Fatalf("mode %d BER at zero SNR = %v, want 0.5", m.Index, a.BER(m, 0))
		}
	}
}

func TestBERMonotoneDecreasingInSNR(t *testing.T) {
	a := NewAdaptive(DefaultParams())
	m := a.Modes()[2]
	prev := 1.0
	for snr := 0.0; snr < 100; snr += 0.5 {
		b := a.BER(m, snr)
		if b > prev {
			t.Fatal("BER not monotone in SNR")
		}
		prev = b
	}
}

func TestPacketErrorProbBounds(t *testing.T) {
	a := NewAdaptive(DefaultParams())
	prop := func(rawAmp float64, modeIdx uint8) bool {
		amp := math.Abs(math.Mod(rawAmp, 10))
		m := a.Modes()[int(modeIdx)%6]
		per := a.PacketErrorProb(m, amp)
		return per >= 0 && per <= 1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPacketErrorAtThresholdIsSmall(t *testing.T) {
	a := NewAdaptive(DefaultParams())
	for _, m := range a.Modes() {
		amp := math.Sqrt(m.SNRThreshold / a.MeanSNR())
		per := a.PacketErrorProb(m, amp)
		// 160 bits at BER 1e-5: PER ~ 0.16%.
		if per > 0.005 {
			t.Fatalf("mode %d PER at design point = %v, want < 0.5%%", m.Index, per)
		}
	}
}

// TestThroughputStaircase: the η the adaptive modem realizes rises
// monotonically with SNR, from 0 in outage to the top mode — Fig. 7b.
func TestThroughputStaircase(t *testing.T) {
	a := NewAdaptive(DefaultParams())
	eta := func(amp float64) float64 {
		m, outage := a.ModeForSNR(amp * amp * a.meanSNR)
		if outage {
			return 0
		}
		return m.Eta
	}
	if got := eta(0.001); got != 0 {
		t.Fatalf("outage throughput = %v, want 0", got)
	}
	prev := -1.0
	for amp := 0.01; amp < 10; amp *= 1.1 {
		e := eta(amp)
		if e < prev {
			t.Fatal("throughput staircase not monotone (Fig. 7b)")
		}
		prev = e
	}
	if prev != 5 {
		t.Fatalf("max throughput = %v, want 5", prev)
	}
}

// Calibration: the adaptive PHY must offer roughly twice the fixed PHY's
// throughput under Rayleigh fading at the default mean SNR — the paper's
// §3.5 statement about D-TDMA/VR vs /FR.
func TestMeanThroughputCalibration(t *testing.T) {
	a := NewAdaptive(DefaultParams())
	mean := a.MeanThroughputRayleigh()
	if mean < 1.8 || mean > 2.7 {
		t.Fatalf("E[eta] = %v, want ~2x the fixed rate (calibration)", mean)
	}
}

// Calibration: the fixed encoder's deep design margin keeps its average
// packet error rate under Rayleigh fading well below the 1% voice QoS
// threshold, yet clearly above the adaptive scheme's floor.
func TestFixedErrorFloorCalibration(t *testing.T) {
	f := NewFixed(DefaultParams())
	m := f.Modes()[0]
	// Integrate PER over the Rayleigh SNR distribution.
	meanSNR := f.MeanSNR()
	floor := 0.0
	const steps = 20000
	for i := 0; i < steps; i++ {
		snr := (float64(i) + 0.5) / steps * meanSNR * 8
		pdf := math.Exp(-snr/meanSNR) / meanSNR
		amp := math.Sqrt(snr / meanSNR)
		floor += f.PacketErrorProb(m, amp) * pdf * meanSNR * 8 / steps
	}
	if floor < 0.001 || floor > 0.01 {
		t.Fatalf("fixed PHY Rayleigh error floor = %v, want in [0.1%%, 1%%]", floor)
	}
}

func TestFixedPHYBasics(t *testing.T) {
	f := NewFixed(DefaultParams())
	if f.Adaptive() {
		t.Fatal("fixed PHY claims to be adaptive")
	}
	if len(f.Modes()) != 1 {
		t.Fatal("fixed PHY should have exactly one mode")
	}
	m := f.ModeForAmplitude(100)
	if m.Eta != 1 {
		t.Fatalf("fixed mode eta = %v, want 1", m.Eta)
	}
	if m.SymbolsPerPacket != InfoSlotSymbols {
		t.Fatalf("fixed mode packet = %d symbols, want one slot", m.SymbolsPerPacket)
	}
	// Mode never changes with amplitude.
	if f.ModeForAmplitude(0.0001) != m {
		t.Fatal("fixed mode varied with amplitude")
	}
	if !f.OutageForAmplitude(0.001) || f.OutageForAmplitude(1) {
		t.Fatal("fixed PHY outage detection wrong")
	}
}

func TestAdaptiveAccessors(t *testing.T) {
	a := NewAdaptive(DefaultParams())
	if a.Name() != "abicm" || !a.Adaptive() {
		t.Fatal("adaptive accessors wrong")
	}
	if got := a.MeanSNR(); math.Abs(got-mathx.DBToLinear(DefaultParams().MeanSNRdB)) > 1e-9 {
		t.Fatalf("MeanSNR = %v", got)
	}
	f := NewFixed(DefaultParams())
	if f.Name() != "fixed" {
		t.Fatal("fixed name wrong")
	}
}

func TestModeString(t *testing.T) {
	a := NewAdaptive(DefaultParams())
	if s := a.Modes()[1].String(); s == "" {
		t.Fatal("empty mode string")
	}
}

func TestNewAdaptivePanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid params did not panic")
		}
	}()
	p := DefaultParams()
	p.Etas = nil
	NewAdaptive(p)
}

var _ = []PHY{(*Adaptive)(nil), (*Fixed)(nil)} // interface conformance

// walkCutoff is the ulp-by-ulp search ampCutoff replaced, kept as its
// reference: from the seed it steps down while pred still holds, or up
// until it first holds. It never ends when pred(0) holds or pred holds
// nowhere, so the cases below stay away from both.
func walkCutoff(seed float64, pred func(amp float64) bool) float64 {
	a := seed
	if pred(a) {
		for {
			b := math.Nextafter(a, 0)
			if !pred(b) {
				return a
			}
			a = b
		}
	}
	for !pred(a) {
		a = math.Nextafter(a, math.Inf(1))
	}
	return a
}

// TestAmpCutoffMatchesWalk: the bisection finds exactly the cutoff the
// ulp walk found, for the default adaptive and fixed mode tables over a
// grid of finite mean SNRs and CSI margins, seeded with the algebraic
// solution (what the modems pass) and with seeds a few ulps off either
// side of it.
func TestAmpCutoffMatchesWalk(t *testing.T) {
	p := DefaultParams()
	thresholds := append(append([]float64(nil), p.ThresholdsDB...), p.FixedThresholdDB)
	for _, snrDB := range []float64{-60, -25, -12, -3, 0, 4.5, 12, 19, 33, 60, 150, 300} {
		mean := mathx.DBToLinear(snrDB)
		for _, margin := range []float64{0.25, 0.5, 0.8, 0.9, 0.97, 1} {
			for _, thDB := range thresholds {
				th := mathx.DBToLinear(thDB)
				pred := func(amp float64) bool {
					eff := amp * margin
					return eff*eff*mean >= th
				}
				seed := math.Sqrt(th/mean) / margin
				for _, s := range []float64{seed, math.Nextafter(seed, 0), math.Nextafter(math.Nextafter(seed, 2*seed), 2*seed), seed * (1 + 1e-12), seed * (1 - 1e-12)} {
					if got, want := ampCutoff(s, pred), walkCutoff(s, pred); got != want {
						t.Fatalf("SNR %v dB, margin %v, threshold %v dB, seed %v: bisection %v, walk %v", snrDB, margin, thDB, s, got, want)
					}
				}
			}
		}
	}
}

// TestAmpCutoffEdges: the cases the walk could not finish end at once.
// A +Inf mean SNR (what 1e308 dB converts to) still has an exact cutoff,
// the first amplitude whose squared margin product does not underflow to
// 0; a predicate holding at 0 gives 0, and one holding nowhere gives +Inf.
func TestAmpCutoffEdges(t *testing.T) {
	inf := math.Inf(1)
	pred := func(amp float64) bool {
		eff := amp * 0.9
		return eff*eff*inf >= 1
	}
	c := ampCutoff(0, pred)
	if !pred(c) || pred(math.Nextafter(c, 0)) || c == 0 || c == inf {
		t.Fatalf("cutoff %v under a +Inf mean SNR is not the boundary", c)
	}
	if got := ampCutoff(1, func(float64) bool { return true }); got != 0 {
		t.Fatalf("always-true predicate: cutoff %v, want 0", got)
	}
	if got := ampCutoff(1, func(float64) bool { return false }); got != inf {
		t.Fatalf("never-true predicate: cutoff %v, want +Inf", got)
	}
}

// TestParamsRejectNonFinite: every float field rejects NaN and ±Inf, and
// a finite mean SNR whose linear ratio overflows to +Inf or underflows to
// 0 is rejected too, before any modem tries to place its cutoffs.
func TestParamsRejectNonFinite(t *testing.T) {
	fields := map[string]func(*Params, float64){
		"MeanSNRdB":        func(p *Params, v float64) { p.MeanSNRdB = v },
		"TargetBER":        func(p *Params, v float64) { p.TargetBER = v },
		"FixedThresholdDB": func(p *Params, v float64) { p.FixedThresholdDB = v },
		"CSIMargin":        func(p *Params, v float64) { p.CSIMargin = v },
		"Etas[5]":          func(p *Params, v float64) { p.Etas[5] = v },
		"ThresholdsDB[0]":  func(p *Params, v float64) { p.ThresholdsDB[0] = v },
	}
	for name, set := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			p := DefaultParams()
			set(&p, v)
			err := p.Validate()
			if err == nil || !strings.Contains(err.Error(), name) {
				t.Errorf("%s = %v: err %v, want a rejection naming the field", name, v, err)
			}
		}
	}
	for _, db := range []float64{1e308, 3100, -3300, -1e308} {
		p := DefaultParams()
		p.MeanSNRdB = db
		if err := p.Validate(); err == nil {
			t.Errorf("MeanSNRdB %v (linear %v) accepted", db, mathx.DBToLinear(db))
		}
	}
	for _, db := range []float64{-300, -40, 0, 12, 300, 3000} {
		p := DefaultParams()
		p.MeanSNRdB = db
		if err := p.Validate(); err != nil {
			t.Errorf("finite MeanSNRdB %v rejected: %v", db, err)
		}
	}
}
