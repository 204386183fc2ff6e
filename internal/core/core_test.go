package core

import (
	"context"
	"math"
	"testing"

	"charisma/internal/mac"
)

func shortScenario(proto string, nv, nd int) Scenario {
	sc := DefaultScenario(proto)
	sc.NumVoice = nv
	sc.NumData = nd
	sc.WarmupSec = 1
	sc.DurationSec = 4
	return sc
}

func TestProtocolsList(t *testing.T) {
	ps := Protocols()
	if len(ps) != 6 {
		t.Fatalf("%d protocols, want 6", len(ps))
	}
	for _, p := range ps {
		if _, err := NewProtocol(p); err != nil {
			t.Fatalf("registered protocol %q not constructible: %v", p, err)
		}
	}
}

func TestNewProtocolAliases(t *testing.T) {
	for _, alias := range []string{"CHARISMA", " rama ", "dtdma/fr", "d-tdma-vr"} {
		if _, err := NewProtocol(alias); err != nil {
			t.Errorf("alias %q rejected: %v", alias, err)
		}
	}
	if _, err := NewProtocol("aloha"); err == nil {
		t.Fatal("unknown protocol accepted")
	}
}

func TestAdaptivePHYAssignment(t *testing.T) {
	if !AdaptivePHYFor(ProtoCharisma) || !AdaptivePHYFor(ProtoDTDMAVR) {
		t.Fatal("CHARISMA and D-TDMA/VR must use the adaptive PHY")
	}
	for _, p := range []string{ProtoDTDMAFR, ProtoDRMA, ProtoRAMA, ProtoRMAV} {
		if AdaptivePHYFor(p) {
			t.Fatalf("%s must use the fixed PHY", p)
		}
	}
}

func TestScenarioValidation(t *testing.T) {
	sc := shortScenario(ProtoCharisma, 0, 0)
	if sc.Validate() == nil {
		t.Fatal("empty cell accepted")
	}
	sc = shortScenario(ProtoCharisma, -1, 0)
	if sc.Validate() == nil {
		t.Fatal("negative population accepted")
	}
	sc = shortScenario("nope", 1, 0)
	if sc.Validate() == nil {
		t.Fatal("unknown protocol accepted")
	}
	sc = shortScenario(ProtoCharisma, 2, 0)
	sc.SpeedsKmh = []float64{10} // wrong length
	if sc.Validate() == nil {
		t.Fatal("mismatched speeds accepted")
	}
}

func TestBuildWiresStations(t *testing.T) {
	sys, proto, err := shortScenario(ProtoCharisma, 3, 2).Build()
	if err != nil {
		t.Fatal(err)
	}
	if proto.Name() != "charisma" {
		t.Fatalf("protocol = %s", proto.Name())
	}
	if len(sys.Stations) != 5 {
		t.Fatalf("%d stations", len(sys.Stations))
	}
	// Build is lazy; force construction so the sources are inspectable.
	sys.MaterializeAll()
	for i, st := range sys.Stations {
		if st.ID != i {
			t.Fatalf("station %d has ID %d", i, st.ID)
		}
		if i < 3 && (st.Voice() == nil || st.Data() != nil) {
			t.Fatalf("station %d should be voice-only", i)
		}
		if i >= 3 && (st.Data() == nil || st.Voice() != nil) {
			t.Fatalf("station %d should be data-only", i)
		}
		if st.Fading() == nil {
			t.Fatalf("station %d has no channel", i)
		}
	}
	if !sys.PHY.Adaptive() {
		t.Fatal("CHARISMA built on fixed PHY")
	}
}

func TestRunAllProtocolsSmoke(t *testing.T) {
	for _, p := range Protocols() {
		for _, queue := range []bool{false, true} {
			sc := shortScenario(p, 12, 3)
			sc.UseQueue = queue
			r, err := sc.Run(context.Background())
			if err != nil {
				t.Fatalf("%s queue=%v: %v", p, queue, err)
			}
			if r.Protocol == "" {
				t.Fatalf("%s: missing protocol name", p)
			}
			if r.Frames <= 0 {
				t.Fatalf("%s: no frames measured", p)
			}
			if r.VoiceGenerated == 0 {
				t.Fatalf("%s: no voice traffic", p)
			}
			if r.VoiceLossRate < 0 || r.VoiceLossRate > 1 {
				t.Fatalf("%s: Ploss = %v out of [0,1]", p, r.VoiceLossRate)
			}
			if r.InfoUtilization < 0 || r.InfoUtilization > 1.0000001 {
				t.Fatalf("%s: utilization = %v out of [0,1]", p, r.InfoUtilization)
			}
			if r.DataGenerated == 0 {
				t.Fatalf("%s: no data traffic", p)
			}
			// Packets generated during warm-up may drain inside the
			// measurement window, so delivered can exceed generated by
			// at most the warm-up backlog (1 s x 100 pkt/s per user).
			carryover := uint64(sc.NumData) * uint64(sc.WarmupSec*100)
			if r.DataDelivered > r.DataGenerated+3*carryover {
				t.Fatalf("%s: delivered %d >> generated %d", p, r.DataDelivered, r.DataGenerated)
			}
			// Loss split must sum to the total.
			if math.Abs(r.VoiceDropRate+r.VoiceErrorRate-r.VoiceLossRate) > 1e-9 {
				t.Fatalf("%s: loss split does not sum", p)
			}
		}
	}
}

// Conservation: voice packets generated in the measurement window are fully
// accounted for by deliveries, losses, and a bounded in-flight remainder.
func TestVoiceConservation(t *testing.T) {
	for _, p := range Protocols() {
		sc := shortScenario(p, 15, 0)
		r, err := sc.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		accounted := r.VoiceDelivered + r.VoiceDropped + r.VoiceErrored
		// Warm-up boundary effects and end-of-run buffers allow a small
		// imbalance: at most 2 packets per station either way.
		slack := uint64(2 * 15)
		if accounted > r.VoiceGenerated+slack {
			t.Fatalf("%s: accounted %d >> generated %d", p, accounted, r.VoiceGenerated)
		}
		if accounted+slack < r.VoiceGenerated {
			t.Fatalf("%s: %d packets unaccounted", p, r.VoiceGenerated-accounted)
		}
	}
}

// Determinism: identical scenarios produce bit-identical results.
func TestRunDeterminism(t *testing.T) {
	for _, p := range []string{ProtoCharisma, ProtoRMAV} {
		a, err := shortScenario(p, 10, 2).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		b, err := shortScenario(p, 10, 2).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("%s: two runs with the same seed differ", p)
		}
	}
}

func TestRunSeedSensitivity(t *testing.T) {
	a := shortScenario(ProtoCharisma, 30, 0)
	b := shortScenario(ProtoCharisma, 30, 0)
	b.Seed = 2
	ra, err := a.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if ra == rb {
		t.Fatal("different seeds produced identical results")
	}
}

// Common random numbers: every fixed-frame protocol must observe the exact
// same traffic realization for a given seed — the paper's common-platform
// property that makes Fig. 11–13 comparisons paired rather than noisy.
func TestCommonRandomNumbersAcrossProtocols(t *testing.T) {
	var gen []uint64
	var dat []uint64
	for _, p := range []string{ProtoCharisma, ProtoDTDMAVR, ProtoDTDMAFR, ProtoDRMA, ProtoRAMA} {
		r, err := shortScenario(p, 10, 3).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		gen = append(gen, r.VoiceGenerated)
		dat = append(dat, r.DataGenerated)
	}
	for i := 1; i < len(gen); i++ {
		if gen[i] != gen[0] || dat[i] != dat[0] {
			t.Fatalf("traffic realization differs across protocols: %v / %v", gen, dat)
		}
	}
}

func TestSpeedsScenario(t *testing.T) {
	sc := shortScenario(ProtoCharisma, 2, 0)
	sc.SpeedsKmh = []float64{10, 80}
	sys, _, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	sys.MaterializeAll()
	if sys.Stations[0].Fading().Params().SpeedKmh != 10 ||
		sys.Stations[1].Fading().Params().SpeedKmh != 80 {
		t.Fatal("per-station speeds not wired")
	}
}

// Sanity anchor for the headline result: at moderate load CHARISMA's voice
// loss stays below the classical fixed-rate protocol's.
func TestCharismaBeatsFRAtModerateLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	run := func(p string) mac.Result {
		sc := DefaultScenario(p)
		sc.NumVoice = 80
		sc.WarmupSec = 1
		sc.DurationSec = 8
		r, err := sc.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	ch := run(ProtoCharisma)
	fr := run(ProtoDTDMAFR)
	if ch.VoiceLossRate >= fr.VoiceLossRate {
		t.Fatalf("CHARISMA %.4f%% not better than D-TDMA/FR %.4f%% at Nv=80",
			100*ch.VoiceLossRate, 100*fr.VoiceLossRate)
	}
}
