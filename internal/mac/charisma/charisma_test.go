package charisma_test

import (
	"context"
	"testing"

	"charisma/internal/core"
	"charisma/internal/mac"
	charproto "charisma/internal/mac/charisma"
	"charisma/internal/phy"
)

func build(t *testing.T, nv, nd int, queue bool, mutate func(*core.Scenario)) (*mac.System, mac.Protocol) {
	t.Helper()
	sc := core.DefaultScenario(core.ProtoCharisma)
	sc.NumVoice, sc.NumData = nv, nd
	sc.UseQueue = queue
	if mutate != nil {
		mutate(&sc)
	}
	sys, proto, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	proto.Init(sys)
	return sys, proto
}

func runFrames(sys *mac.System, proto mac.Protocol, n int) {
	for i := 0; i < n; i++ {
		sys.BeginFrame()
		dur := proto.RunFrame(sys)
		sys.EndFrame(dur)
	}
}

func TestNameAndConstruction(t *testing.T) {
	p := charproto.New()
	if p.Name() != "charisma" {
		t.Fatalf("name = %q", p.Name())
	}
}

func TestFixedFrameDuration(t *testing.T) {
	sys, proto := build(t, 5, 0, false, nil)
	for i := 0; i < 100; i++ {
		sys.BeginFrame()
		dur := proto.RunFrame(sys)
		if dur != sys.Cfg.Geometry.Duration() {
			t.Fatalf("frame %d duration = %v, want %v", i, dur, sys.Cfg.Geometry.Duration())
		}
		sys.EndFrame(dur)
	}
}

func TestInfoBudgetNeverExceeded(t *testing.T) {
	sys, proto := build(t, 40, 10, true, nil)
	runFrames(sys, proto, 2000)
	total := sys.M.InfoSymbolsTotal.Total()
	used := sys.M.InfoSymbolsUsed.Total()
	if used > total {
		t.Fatalf("used %d symbols of %d budget", used, total)
	}
	if total != uint64(2000*sys.Cfg.Geometry.CharismaInfoSymbols()) {
		t.Fatalf("budget accounting wrong: %d", total)
	}
}

func TestVoiceGetsReservationAfterFirstGrant(t *testing.T) {
	sys, proto := build(t, 6, 0, false, nil)
	runFrames(sys, proto, 4000)
	if sys.M.ReservationsGranted.Total() == 0 {
		t.Fatal("no voice reservation ever granted")
	}
}

func TestCSIPollingHappens(t *testing.T) {
	sys, proto := build(t, 30, 0, false, nil)
	runFrames(sys, proto, 4000)
	if sys.M.CSIPolls.Total() == 0 {
		t.Fatal("CSI polling never used despite reserved users")
	}
}

func TestCSIPollingDisabledAblation(t *testing.T) {
	sys, proto := build(t, 30, 0, false, func(sc *core.Scenario) {
		sc.MAC.Charisma.DisableCSIRefresh = true
	})
	runFrames(sys, proto, 2000)
	if sys.M.CSIPolls.Total() != 0 {
		t.Fatal("polling happened despite DisableCSIRefresh")
	}
}

func TestPilotBudgetPerFrame(t *testing.T) {
	sys, proto := build(t, 60, 0, true, nil)
	prev := uint64(0)
	for i := 0; i < 1000; i++ {
		sys.BeginFrame()
		dur := proto.RunFrame(sys)
		sys.EndFrame(dur)
		polls := sys.M.CSIPolls.Total() - prev
		if polls > uint64(sys.Cfg.Geometry.CharismaPilotSlots) {
			t.Fatalf("frame %d: %d polls exceed Nb=%d", i, polls, sys.Cfg.Geometry.CharismaPilotSlots)
		}
		prev = sys.M.CSIPolls.Total()
	}
}

func TestQueueOnlyWhenEnabled(t *testing.T) {
	sysNo, protoNo := build(t, 50, 10, false, nil)
	runFrames(sysNo, protoNo, 2000)
	if sysNo.QueueLen() != 0 {
		t.Fatal("queue populated with UseQueue=false")
	}
	sysQ, protoQ := build(t, 50, 10, true, nil)
	runFrames(sysQ, protoQ, 2000)
	// At this load some requests must have waited at the BS.
	if sysQ.M.ReqSuccesses.Total() == 0 {
		t.Fatal("no contention successes")
	}
}

func TestQueueCapRespected(t *testing.T) {
	sys, proto := build(t, 80, 20, true, func(sc *core.Scenario) {
		sc.MAC.QueueCap = 4
	})
	for i := 0; i < 2000; i++ {
		sys.BeginFrame()
		dur := proto.RunFrame(sys)
		sys.EndFrame(dur)
		if sys.QueueLen() > 4 {
			t.Fatalf("queue length %d exceeds cap 4", sys.QueueLen())
		}
	}
}

func TestNoDuplicateStationInQueue(t *testing.T) {
	sys, proto := build(t, 60, 15, true, nil)
	for i := 0; i < 3000; i++ {
		sys.BeginFrame()
		dur := proto.RunFrame(sys)
		sys.EndFrame(dur)
		seen := map[int]bool{}
		for _, r := range sys.Queue() {
			if seen[r.St.ID] {
				t.Fatalf("station %d queued twice", r.St.ID)
			}
			seen[r.St.ID] = true
		}
	}
}

// modeCounter wraps a cell's PHY and counts the modes it is asked for
// packet error probabilities in: TransmitVoice asks once per voice
// transmission, in the mode it sends.
type modeCounter struct {
	phy.PHY
	modeSum, txs int
}

func (m *modeCounter) PacketErrorProb(mode phy.Mode, actualAmp float64) float64 {
	m.modeSum += mode.Index
	m.txs++
	return m.PHY.PacketErrorProb(mode, actualAmp)
}

// The channel-aware priority must actually bias service toward good
// channels: among voice transmissions under load, the mean scheduled mode
// must sit clearly above the most robust one, while errors stay rare.
func TestSelectionDiversityBiasesTowardGoodCSI(t *testing.T) {
	sys, proto := build(t, 90, 0, true, nil)
	modes := &modeCounter{PHY: sys.PHY}
	sys.PHY = modes
	runFrames(sys, proto, 2000)
	if modes.txs == 0 {
		t.Fatal("no voice transmissions observed")
	}
	meanMode := float64(modes.modeSum) / float64(modes.txs)
	if meanMode < 1.5 {
		t.Fatalf("mean scheduled mode = %.2f — scheduler not favouring good CSI", meanMode)
	}
	ok, errs := sys.M.VoiceTxOK.Total(), sys.M.VoiceTxErr.Total()
	if rate := float64(errs) / float64(ok+errs); rate > 0.03 {
		t.Fatalf("voice tx error rate %v too high for CSI-aware scheduling", rate)
	}
}

func TestAlphaZeroDegradesToChannelBlind(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	run := func(alpha float64) float64 {
		sc := core.DefaultScenario(core.ProtoCharisma)
		sc.NumVoice = 90
		sc.WarmupSec = 1
		sc.DurationSec = 6
		sc.MAC.Charisma.Alpha = alpha
		r, err := sc.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return r.VoiceLossRate
	}
	withCSI := run(1.0)
	blind := run(0.0)
	if withCSI >= blind {
		t.Fatalf("CSI-aware priority (%.4f) not better than channel-blind (%.4f)", withCSI, blind)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() mac.Result {
		sys, proto := build(t, 25, 5, true, nil)
		runFrames(sys, proto, 1500)
		return sys.M.Result("charisma", sys.Cfg.Geometry.FrameSymbols)
	}
	if run() != run() {
		t.Fatal("protocol not deterministic")
	}
}

func TestReservationReleasedAfterSilence(t *testing.T) {
	sys, proto := build(t, 4, 0, false, nil)
	runFrames(sys, proto, 12000) // 30 s: several talkspurt cycles
	// After long runs, the number of granted reservations must exceed the
	// station count: reservations lapse at talkspurt end and are re-granted.
	if sys.M.ReservationsGranted.Total() <= 4 {
		t.Fatalf("only %d reservations over 30 s — releases not happening",
			sys.M.ReservationsGranted.Total())
	}
}
