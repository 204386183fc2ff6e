package analytic

import (
	"context"
	"math"
	"testing"

	"charisma/internal/core"
	"charisma/internal/frame"
	"charisma/internal/phy"
	"charisma/internal/traffic"
)

func TestVoiceActivityFactor(t *testing.T) {
	if got := VoiceActivityFactor(traffic.DefaultVoiceParams()); math.Abs(got-1/2.35) > 1e-12 {
		t.Fatalf("activity = %v", got)
	}
}

func TestVoicePacketRate(t *testing.T) {
	got := VoicePacketRatePerUser(traffic.DefaultVoiceParams())
	want := 50.0 / 2.35
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("rate = %v, want %v", got, want)
	}
}

func TestVoiceSlotDemand(t *testing.T) {
	// 80 users: 80 * 0.4255 / 8 frames = 4.26 slot-equivalents per frame.
	got := VoiceSlotDemandPerFrame(80, traffic.DefaultVoiceParams(), 0.0025)
	if math.Abs(got-80.0/2.35/8) > 1e-9 {
		t.Fatalf("demand = %v", got)
	}
}

func TestSlottedContentionSuccess(t *testing.T) {
	if got := SlottedContentionSuccess(1, 0.1); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("s(1, 0.1) = %v", got)
	}
	// k=2, p=0.5: 2*0.5*0.5 = 0.5.
	if got := SlottedContentionSuccess(2, 0.5); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("s(2, 0.5) = %v", got)
	}
	if SlottedContentionSuccess(0, 0.5) != 0 || SlottedContentionSuccess(5, 0) != 0 {
		t.Fatal("degenerate cases wrong")
	}
}

func TestOptimalPermissionMaximizes(t *testing.T) {
	for _, k := range []int{2, 5, 20} {
		p := OptimalPermission(k)
		best := SlottedContentionSuccess(k, p)
		for _, dp := range []float64{-0.02, 0.02} {
			if s := SlottedContentionSuccess(k, p+dp); s > best+1e-9 {
				t.Fatalf("k=%d: p=%v not optimal (%v beats %v)", k, p, s, best)
			}
		}
	}
	if OptimalPermission(1) != 1 {
		t.Fatal("single contender should always transmit")
	}
}

func TestContentionCollapseLoadMonotone(t *testing.T) {
	// Lower permission probability tolerates more contenders.
	hi := ContentionCollapseLoad(0.3, 0.05)
	lo := ContentionCollapseLoad(0.05, 0.05)
	if lo <= hi {
		t.Fatalf("collapse load %d (p=0.05) not beyond %d (p=0.3)", lo, hi)
	}
}

func TestModeDistributionSumsToOne(t *testing.T) {
	a := phy.NewAdaptive(phy.DefaultParams())
	outage, probs := ModeDistributionRayleigh(a)
	sum := outage
	for _, p := range probs {
		if p < 0 {
			t.Fatalf("negative mode probability %v", p)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("mode distribution sums to %v", sum)
	}
	if outage > 0.05 {
		t.Fatalf("outage probability %v unexpectedly high at default SNR", outage)
	}
}

func TestMeanThroughputMatchesPHY(t *testing.T) {
	a := phy.NewAdaptive(phy.DefaultParams())
	if got, want := MeanThroughputRayleigh(a), a.MeanThroughputRayleigh(); got != want {
		t.Fatalf("%v != %v", got, want)
	}
}

func TestCompositeThroughputNearRayleigh(t *testing.T) {
	a := phy.NewAdaptive(phy.DefaultParams())
	ray := MeanThroughputRayleigh(a)
	comp := MeanThroughputComposite(a, 4)
	// Shadowing spreads the SNR but the mean stays in the same ballpark.
	if math.Abs(comp-ray) > 0.5 {
		t.Fatalf("composite E[eta] = %v vs Rayleigh %v", comp, ray)
	}
	if MeanThroughputComposite(a, 0) != ray {
		t.Fatal("zero shadowing should reduce to Rayleigh")
	}
}

func TestMeanSymbolsPerPacketBetweenExtremes(t *testing.T) {
	a := phy.NewAdaptive(phy.DefaultParams())
	got := MeanSymbolsPerPacketRayleigh(a)
	if got <= 32 || got >= 320 {
		t.Fatalf("E[symbols/packet] = %v out of (32, 320)", got)
	}
	// The adaptive PHY averages well under the fixed 160: that IS the
	// capacity story of D-TDMA/VR vs /FR.
	if got >= 160 {
		t.Fatalf("E[symbols/packet] = %v not below the fixed 160", got)
	}
}

func TestVoiceCapacityBoundsOrdering(t *testing.T) {
	g := frame.Default()
	vp := traffic.DefaultVoiceParams()
	a := phy.NewAdaptive(phy.DefaultParams())
	frameSec := g.Duration().Seconds()
	fixed := VoiceCapacityMeanRate(g.CharismaInfoSymbols(), 160, vp, frameSec)
	adaptive := VoiceCapacityMeanRate(g.CharismaInfoSymbols(), MeanSymbolsPerPacketRayleigh(a), vp, frameSec)
	// Fixed-rate mean bound ≈ 75; the adaptive PHY raises it.
	if math.Abs(fixed-4*8*2.35) > 1 {
		t.Fatalf("fixed-rate capacity bound = %v, want ≈ %v", fixed, 4*8*2.35)
	}
	if adaptive <= fixed*1.2 {
		t.Fatalf("adaptive bound %v not clearly above fixed %v", adaptive, fixed)
	}
}

// The analytic mean-rate bound must upper-bound the simulated Fig. 11
// crossing for the fixed-rate protocol.
func TestMeanRateBoundUpperBoundsSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	g := frame.Default()
	vp := traffic.DefaultVoiceParams()
	bound := VoiceCapacityMeanRate(g.DTDMAInfoSlots*g.InfoSlotSymbols, 160, vp, g.Duration().Seconds())
	sc := core.DefaultScenario(core.ProtoDTDMAFR)
	sc.NumVoice = int(bound * 1.15) // clearly past the bound
	sc.WarmupSec, sc.DurationSec = 1, 6
	r, err := sc.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if r.VoiceLossRate < 0.01 {
		t.Fatalf("simulation under 1%% loss at 115%% of the mean-rate bound (%v users) — bound broken", sc.NumVoice)
	}
}

func TestFixedErrorFloor(t *testing.T) {
	f := phy.NewFixed(phy.DefaultParams())
	floor := FixedErrorFloorRayleigh(f)
	if floor < 0.001 || floor > 0.01 {
		t.Fatalf("fixed error floor = %v, want in [0.1%%, 1%%] (Fig. 11 low-load losses)", floor)
	}
}

func TestDataOfferedPerFrame(t *testing.T) {
	// 20 users x 100 pkt/s x 2.5 ms = 5 packets/frame.
	got := DataOfferedPerFrame(20, traffic.DefaultDataParams(), 0.0025)
	if math.Abs(got-5) > 1e-9 {
		t.Fatalf("offered = %v, want 5", got)
	}
}
