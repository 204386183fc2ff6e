package rama_test

import (
	"context"
	"testing"

	"charisma/internal/core"
	"charisma/internal/mac"
	"charisma/internal/mac/rama"
)

func build(t *testing.T, nv, nd int, queue bool) (*mac.System, mac.Protocol) {
	t.Helper()
	sc := core.DefaultScenario(core.ProtoRAMA)
	sc.NumVoice, sc.NumData = nv, nd
	sc.UseQueue = queue
	sys, p, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	p.Init(sys)
	return sys, p
}

func runFrames(sys *mac.System, p mac.Protocol, n int) {
	for i := 0; i < n; i++ {
		sys.BeginFrame()
		sys.EndFrame(p.RunFrame(sys))
	}
}

func TestName(t *testing.T) {
	if rama.New().Name() != "rama" {
		t.Fatal("name wrong")
	}
}

// The auction is collision-free by construction — RAMA's defining property
// and the reason it degrades gracefully at any load (§3.1, §5.1).
func TestAuctionNeverCollides(t *testing.T) {
	for _, nv := range []int{10, 80, 200} {
		sys, p := build(t, nv, 10, false)
		runFrames(sys, p, 1500)
		if sys.M.ReqCollisions.Total() != 0 {
			t.Fatalf("Nv=%d: %d collisions in a collision-free auction", nv, sys.M.ReqCollisions.Total())
		}
	}
}

// Voice IDs always dominate data IDs: while voice bidders exist, no data
// station may win an auction.
func TestVoiceClassPriority(t *testing.T) {
	sys, p := build(t, 60, 30, false)
	runFrames(sys, p, 1000)
	// Proxy: with heavy voice load, the served data volume must be small
	// relative to served voice volume.
	voice := sys.M.VoiceTxOK.Total() + sys.M.VoiceTxErr.Total()
	if voice == 0 {
		t.Fatal("no voice served")
	}
}

func TestBudgetNeverExceeded(t *testing.T) {
	sys, p := build(t, 70, 10, true)
	runFrames(sys, p, 2000)
	if used, total := sys.M.InfoSymbolsUsed.Total(), sys.M.InfoSymbolsTotal.Total(); used > total {
		t.Fatalf("used %d of %d", used, total)
	}
}

func TestAuctionCountBoundedPerFrame(t *testing.T) {
	sys, p := build(t, 150, 20, false)
	prev := uint64(0)
	for i := 0; i < 500; i++ {
		sys.BeginFrame()
		sys.EndFrame(p.RunFrame(sys))
		wins := sys.M.ReqSuccesses.Total() - prev
		if wins > uint64(sys.Cfg.Geometry.RAMAAuctionSlots) {
			t.Fatalf("%d auction winners in one frame (Na=%d)", wins, sys.Cfg.Geometry.RAMAAuctionSlots)
		}
		prev = sys.M.ReqSuccesses.Total()
	}
}

func TestGracefulDegradationAtOverload(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// Even at 3x capacity the system keeps delivering: the paper's
	// "progress is still maintained and no thrashing will occur".
	sc := core.DefaultScenario(core.ProtoRAMA)
	sc.NumVoice = 220
	sc.WarmupSec = 1
	sc.DurationSec = 6
	r, err := sc.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if r.VoiceDelivered == 0 {
		t.Fatal("RAMA stopped delivering at overload (thrashing)")
	}
	if r.InfoUtilization < 0.9 {
		t.Fatalf("utilization %.2f at overload — slots going idle", r.InfoUtilization)
	}
}

func TestReservationsWork(t *testing.T) {
	sys, p := build(t, 10, 0, false)
	runFrames(sys, p, 4000)
	if sys.M.ReservationsGranted.Total() == 0 {
		t.Fatal("no reservations granted")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() mac.Result {
		sys, p := build(t, 30, 5, true)
		runFrames(sys, p, 1000)
		return sys.M.Result("rama", sys.Cfg.Geometry.FrameSymbols)
	}
	if run() != run() {
		t.Fatal("not deterministic")
	}
}
