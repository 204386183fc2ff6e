package rmav_test

import (
	"context"
	"testing"

	"charisma/internal/channel"
	"charisma/internal/core"
	"charisma/internal/mac"
	"charisma/internal/mac/rmav"
	"charisma/internal/phy"
	"charisma/internal/rng"
	"charisma/internal/sim"
	"charisma/internal/traffic"
)

func build(t *testing.T, nv, nd int) (*mac.System, mac.Protocol) {
	t.Helper()
	sc := core.DefaultScenario(core.ProtoRMAV)
	sc.NumVoice, sc.NumData = nv, nd
	sys, p, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	p.Init(sys)
	return sys, p
}

func TestName(t *testing.T) {
	if rmav.New().Name() != "rmav" {
		t.Fatal("name wrong")
	}
}

// RMAV's frame length varies with the assigned population (Fig. 2b) and
// shrinks to a single competitive slot when idle.
func TestVariableFrameDuration(t *testing.T) {
	sys, p := build(t, 30, 5)
	slot := sim.Time(sys.Cfg.Geometry.InfoSlotSymbols)
	sawShort, sawLong := false, false
	for i := 0; i < 6000; i++ {
		sys.BeginFrame()
		dur := p.RunFrame(sys)
		if dur < slot {
			t.Fatalf("frame shorter than the competitive slot: %v", dur)
		}
		if dur%slot != 0 {
			t.Fatalf("frame %v not a whole number of slots", dur)
		}
		if dur == slot {
			sawShort = true
		}
		if dur >= 3*slot {
			sawLong = true
		}
		sys.EndFrame(dur)
	}
	if !sawShort {
		t.Fatal("never saw an idle (single-slot) frame")
	}
	if !sawLong {
		t.Fatal("never saw a loaded multi-slot frame")
	}
}

// Data grants are one-shot: at most Pmax slots in the next frame (§3.2).
func TestDataGrantBoundedByPmax(t *testing.T) {
	sys, p := build(t, 0, 1)
	prev := uint64(0)
	for i := 0; i < 20000; i++ {
		sys.BeginFrame()
		sys.EndFrame(p.RunFrame(sys))
		got := sys.M.DataDelivered.Total() + sys.M.DataTxErr.Total()
		if int(got-prev) > sys.Cfg.Geometry.RMAVMaxGrantSlots {
			t.Fatalf("served %d packets in one frame, Pmax=%d", got-prev, sys.Cfg.Geometry.RMAVMaxGrantSlots)
		}
		prev = got
	}
	if prev == 0 {
		t.Fatal("no data ever served")
	}
}

// A voice winner holds one slot in every frame for its whole talkspurt.
func TestVoiceSlotPersistsAcrossFrames(t *testing.T) {
	sys, p := build(t, 3, 0)
	granted := false
	for i := 0; i < 20000; i++ {
		sys.BeginFrame()
		dur := p.RunFrame(sys)
		sys.EndFrame(dur)
		if sys.M.ReservationsGranted.Total() > 0 {
			granted = true
			break
		}
	}
	if !granted {
		t.Fatal("no voice winner in 20k frames")
	}
	// While any station is reserved, the frame must carry assigned slots.
	reservedFrames, multiSlot := 0, 0
	for i := 0; i < 2000; i++ {
		sys.BeginFrame()
		dur := p.RunFrame(sys)
		sys.EndFrame(dur)
		anyReserved := false
		for _, st := range sys.Stations {
			if st.Reserved() {
				anyReserved = true
			}
		}
		if anyReserved {
			reservedFrames++
			if dur > sim.Time(sys.Cfg.Geometry.InfoSlotSymbols) {
				multiSlot++
			}
		}
	}
	if reservedFrames > 0 && multiSlot == 0 {
		t.Fatal("reserved stations never enlarged the frame")
	}
}

// A station holding a live voice slot sits the competitive slot out, even
// with data queued: only a station carrying both services can hit this
// rule, so the cell is built by hand.
func TestSlotHolderSitsOutCompetitiveSlot(t *testing.T) {
	cfg := mac.DefaultConfig()
	cfg.PermVoice, cfg.PermData = 1, 1
	st := mac.NewStation(0,
		traffic.NewVoice(traffic.DefaultVoiceParams(), rng.Derive(1, "voice"), 0),
		traffic.NewData(traffic.DefaultDataParams(), rng.Derive(1, "data"), 0),
		channel.NewFading(channel.DefaultParams(), rng.Derive(1, "chan")))
	sys, err := mac.NewSystem(cfg, phy.NewFixed(phy.DefaultParams()), []*mac.Station{st}, rng.Derive(1, "mac"))
	if err != nil {
		t.Fatal(err)
	}
	p := rmav.New()
	p.Init(sys)
	held := 0
	for i := 0; i < 20000; i++ {
		sys.BeginFrame()
		reserved := st.Reserved()
		if reserved && st.Data().Backlog() > 0 && !st.PendingAtBS() {
			held++
		}
		dur := p.RunFrame(sys)
		if reserved && st.PendingAtBS() {
			t.Fatalf("frame %d: a voice-slot holder won the competitive slot for data", i)
		}
		sys.EndFrame(dur)
	}
	if held == 0 {
		t.Fatal("the station never held a voice slot with data queued")
	}
}

// The single contention opportunity per frame is RMAV's downfall: at a
// moderate population it must already lose dramatically more voice than at
// a small one (Fig. 11's early instability).
func TestInstabilityAtModerateLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	run := func(nv int) float64 {
		sc := core.DefaultScenario(core.ProtoRMAV)
		sc.NumVoice = nv
		sc.WarmupSec = 1
		sc.DurationSec = 8
		r, err := sc.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return r.VoiceLossRate
	}
	small, moderate := run(5), run(40)
	if moderate < 4*small || moderate < 0.05 {
		t.Fatalf("no instability: loss %.4f at Nv=5 vs %.4f at Nv=40", small, moderate)
	}
}

func TestQueueIgnored(t *testing.T) {
	// RMAV inherently needs no request queue (§4.5 footnote): behaviour
	// must be identical with and without it.
	run := func(queue bool) mac.Result {
		sc := core.DefaultScenario(core.ProtoRMAV)
		sc.NumVoice, sc.NumData = 20, 5
		sc.UseQueue = queue
		sc.WarmupSec = 1
		sc.DurationSec = 4
		r, err := sc.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		r.Protocol = "" // normalize
		return r
	}
	if run(false) != run(true) {
		t.Fatal("queue flag changed RMAV behaviour")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() mac.Result {
		sys, p := build(t, 15, 5)
		for i := 0; i < 3000; i++ {
			sys.BeginFrame()
			sys.EndFrame(p.RunFrame(sys))
		}
		return sys.M.Result("rmav", sys.Cfg.Geometry.FrameSymbols)
	}
	if run() != run() {
		t.Fatal("not deterministic")
	}
}
