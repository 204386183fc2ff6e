package phy

import (
	"math"
	"testing"

	"charisma/internal/rng"
)

// refModeForAmplitude is the original compare-in-SNR-space scan, kept as
// the executable specification the precomputed amplitude-cutoff lookup
// must match for every representable amplitude.
func refModeForAmplitude(a *Adaptive, amp float64) (Mode, bool) {
	eff := amp * a.p.CSIMargin
	snr := eff * eff * a.meanSNR
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

func refFixedOutage(f *Fixed, amp float64) bool {
	return amp*amp*f.meanSNR < f.mode.SNRThreshold
}

func adaptiveVariants() []*Adaptive {
	variants := []*Adaptive{NewAdaptive(DefaultParams())}
	p := DefaultParams()
	p.CSIMargin = 1
	variants = append(variants, NewAdaptive(p))
	p = DefaultParams()
	p.MeanSNRdB = 7.3
	p.CSIMargin = 0.77
	variants = append(variants, NewAdaptive(p))
	return variants
}

// TestModeLookupMatchesScanExactly sweeps dense, random, and
// ulp-neighborhood amplitudes (where a rounding difference between the
// folded and per-call predicates would first show) and demands the lookup
// agrees with the scan everywhere.
func TestModeLookupMatchesScanExactly(t *testing.T) {
	for vi, a := range adaptiveVariants() {
		check := func(amp float64) {
			wantM, wantOut := refModeForAmplitude(a, amp)
			if gotM := a.ModeForAmplitude(amp); gotM.Index != wantM.Index {
				t.Fatalf("variant %d amp=%x: mode %d, scan says %d",
					vi, math.Float64bits(amp), gotM.Index, wantM.Index)
			}
			if gotOut := a.OutageForAmplitude(amp); gotOut != wantOut {
				t.Fatalf("variant %d amp=%x: outage %v, scan says %v",
					vi, math.Float64bits(amp), gotOut, wantOut)
			}
		}
		for amp := 0.0; amp < 12; amp += 0.001 {
			check(amp)
		}
		r := rng.New(3)
		for i := 0; i < 200000; i++ {
			check(r.Float64() * 15)
		}
		// The adversarial band: a few ulps to either side of every cutoff.
		for _, cut := range a.ampCuts {
			amp := cut
			for k := 0; k < 8; k++ {
				amp = math.Nextafter(amp, 0)
			}
			for k := 0; k < 16; k++ {
				check(amp)
				amp = math.Nextafter(amp, math.Inf(1))
			}
		}
	}
}

func TestFixedOutageMatchesScanExactly(t *testing.T) {
	f := NewFixed(DefaultParams())
	check := func(amp float64) {
		if got, want := f.OutageForAmplitude(amp), refFixedOutage(f, amp); got != want {
			t.Fatalf("amp=%x: outage %v, scan says %v", math.Float64bits(amp), got, want)
		}
	}
	for amp := 0.0; amp < 4; amp += 0.0005 {
		check(amp)
	}
	amp := f.outageCut
	for k := 0; k < 8; k++ {
		amp = math.Nextafter(amp, 0)
	}
	for k := 0; k < 16; k++ {
		check(amp)
		amp = math.Nextafter(amp, math.Inf(1))
	}
}

// TestAmpCutoffBoundary pins the helper's contract directly: pred fails
// one ulp below the returned cutoff and holds at it.
func TestAmpCutoffBoundary(t *testing.T) {
	pred := func(amp float64) bool { return amp*amp >= 2 }
	cut := ampCutoff(math.Sqrt(2), pred)
	if !pred(cut) {
		t.Fatal("cutoff does not satisfy the predicate")
	}
	if pred(math.Nextafter(cut, 0)) {
		t.Fatal("cutoff is not minimal")
	}
}

// TestModeSelectionAllocFree counts batches of 1,000 mode selections over
// amplitudes 0.01 to 4.96: none may allocate.
func TestModeSelectionAllocFree(t *testing.T) {
	a := NewAdaptive(DefaultParams())
	batch := func() {
		for i := 0; i < 1000; i++ {
			modeSink = a.ModeForAmplitude(0.01 + float64(i%100)*0.05)
		}
	}
	// The fewest of three exact counts: runtime-internal mallocs (a new
	// thread, timer-heap growth) land in the process-wide count at random,
	// while one on the measured path recurs in every batch.
	if n := min(testing.AllocsPerRun(1, batch), testing.AllocsPerRun(1, batch), testing.AllocsPerRun(1, batch)); n != 0 {
		t.Fatalf("ModeForAmplitude: %.0f mallocs in 1000 calls, want 0", n)
	}
}

var modeSink Mode
