package frame

import (
	"strings"
	"testing"

	"charisma/internal/sim"
)

func TestDefaultValidates(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFrameIs800SymbolsAnd2500us(t *testing.T) {
	g := Default()
	if g.FrameSymbols != 800 {
		t.Fatalf("frame = %d symbols, want 800 (320 kHz x 2.5 ms)", g.FrameSymbols)
	}
	if g.Duration() != 800 {
		t.Fatalf("duration = %v ticks", g.Duration())
	}
	if g.Duration().Milliseconds() != 2.5 {
		t.Fatalf("frame duration = %v ms, want 2.5 (Table 1)", g.Duration().Milliseconds())
	}
}

func TestCharismaBudgetExactly800(t *testing.T) {
	g := Default()
	total := (g.CharismaRequestSlots+g.CharismaPilotSlots)*g.MinislotSymbols + g.CharismaInfoSymbols()
	if total != g.FrameSymbols {
		t.Fatalf("CHARISMA layout = %d symbols, want %d", total, g.FrameSymbols)
	}
	if g.CharismaInfoSymbols() != 640 {
		t.Fatalf("info subframe = %d symbols, want 640 (4 slot-equivalents)", g.CharismaInfoSymbols())
	}
}

func TestDTDMABudgetFits(t *testing.T) {
	g := Default()
	used := g.DTDMARequestSlots*g.MinislotSymbols + g.DTDMAInfoSlots*g.InfoSlotSymbols
	if used > g.FrameSymbols {
		t.Fatalf("D-TDMA layout = %d symbols > %d", used, g.FrameSymbols)
	}
	// Nr "slightly larger" than the slot-equivalent count of the info
	// subframe (paper §4.3).
	if g.DTDMARequestSlots <= g.DTDMAInfoSlots {
		t.Fatal("request slots should outnumber info slots")
	}
}

func TestRAMABudgetFits(t *testing.T) {
	g := Default()
	used := g.RAMAAuctionSlots*g.RAMAAuctionSymbols + g.RAMAInfoSlots*g.InfoSlotSymbols
	if used > g.FrameSymbols {
		t.Fatalf("RAMA layout = %d symbols > %d", used, g.FrameSymbols)
	}
	// An auction slot is larger than a request minislot (§3.1).
	if g.RAMAAuctionSymbols <= g.MinislotSymbols {
		t.Fatal("auction slot should exceed a request minislot")
	}
}

func TestDRMABudgetFits(t *testing.T) {
	g := Default()
	if g.DRMAInfoSlots*g.InfoSlotSymbols > g.FrameSymbols {
		t.Fatal("DRMA layout exceeds frame")
	}
	// DRMA devotes the whole frame to info slots: that is its edge.
	if g.DRMAInfoSlots <= g.DTDMAInfoSlots {
		t.Fatal("DRMA should carry more info slots than D-TDMA")
	}
	// A converted slot yields Nx minislots that fit inside one slot.
	if g.DRMAMinislotsPerSlot*g.MinislotSymbols > g.InfoSlotSymbols {
		t.Fatal("Nx minislots overflow a converted slot")
	}
}

func TestRMAVFrameDuration(t *testing.T) {
	g := Default()
	if got := g.RMAVFrameDuration(0); got != sim.Time(g.InfoSlotSymbols) {
		t.Fatalf("idle RMAV frame = %v, want one competitive slot", got)
	}
	if got := g.RMAVFrameDuration(3); got != sim.Time(4*g.InfoSlotSymbols) {
		t.Fatalf("3-slot RMAV frame = %v", got)
	}
}

func TestVoicePeriodIsEightFrames(t *testing.T) {
	g := Default()
	if g.VoicePeriod != 8*g.Duration() {
		t.Fatalf("voice period = %v, want 8 frames (20 ms / 2.5 ms)", g.VoicePeriod)
	}
}

func TestValidateRejectsBadLayouts(t *testing.T) {
	cases := []func(*Geometry){
		func(g *Geometry) { g.FrameSymbols = 0 },
		func(g *Geometry) { g.MinislotSymbols = -1 },
		func(g *Geometry) { g.CharismaRequestSlots = 100 }, // info subframe vanishes
		func(g *Geometry) { g.DTDMAInfoSlots = 10 },
		func(g *Geometry) { g.RAMAInfoSlots = 10 },
		func(g *Geometry) { g.DRMAInfoSlots = 10 },
		func(g *Geometry) { g.RMAVMaxGrantSlots = 0 },
		func(g *Geometry) { g.VoicePeriod = 0 },
		func(g *Geometry) { g.VoicePeriod = 900 }, // not a whole frame multiple
	}
	for i, mutate := range cases {
		g := Default()
		mutate(&g)
		if g.Validate() == nil {
			t.Errorf("case %d: invalid geometry accepted", i)
		}
	}
}

// TestValidateRejectsImpossibleLayouts: a negative slot count or overhead,
// a non-positive auction slot and more DRMA minislots than a slot holds
// describe layouts no frame can carry, and each is rejected by name.
func TestValidateRejectsImpossibleLayouts(t *testing.T) {
	for name, c := range map[string]struct {
		mutate func(*Geometry)
		want   string
	}{
		"negative CHARISMA pilots":   {func(g *Geometry) { g.CharismaPilotSlots = -5 }, "CharismaPilotSlots"},
		"negative CHARISMA requests": {func(g *Geometry) { g.CharismaRequestSlots = -5 }, "CharismaRequestSlots"},
		"negative grant overhead":    {func(g *Geometry) { g.CharismaGrantOverheadSymbols = -50 }, "CharismaGrantOverheadSymbols"},
		"negative D-TDMA requests":   {func(g *Geometry) { g.DTDMARequestSlots = -1 }, "DTDMARequestSlots"},
		"negative D-TDMA info slots": {func(g *Geometry) { g.DTDMAInfoSlots = -4 }, "DTDMAInfoSlots"},
		"negative RAMA auctions":     {func(g *Geometry) { g.RAMAAuctionSlots = -1 }, "RAMAAuctionSlots"},
		"negative RAMA info slots":   {func(g *Geometry) { g.RAMAInfoSlots = -1 }, "RAMAInfoSlots"},
		"negative DRMA info slots":   {func(g *Geometry) { g.DRMAInfoSlots = -1 }, "DRMAInfoSlots"},
		"negative DRMA minislots":    {func(g *Geometry) { g.DRMAMinislotsPerSlot = -1 }, "DRMAMinislotsPerSlot"},
		"negative auction symbols":   {func(g *Geometry) { g.RAMAAuctionSymbols = -40 }, "symbol sizes"},
		"zero auction symbols":       {func(g *Geometry) { g.RAMAAuctionSymbols = 0 }, "symbol sizes"},
		"DRMA minislots overflow":    {func(g *Geometry) { g.DRMAMinislotsPerSlot = 20 }, "minislots"},
	} {
		g := Default()
		c.mutate(&g)
		if err := g.Validate(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err %v, want a rejection naming %q", name, err, c.want)
		}
	}
	// The request-slot ablation's layouts stay valid: Nr request and
	// 10 − Nr pilot minislots.
	for _, nr := range []int{2, 5, 8} {
		g := Default()
		g.CharismaRequestSlots, g.CharismaPilotSlots = nr, 10-nr
		if err := g.Validate(); err != nil {
			t.Errorf("Nr=%d: %v", nr, err)
		}
	}
}
