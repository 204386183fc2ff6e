// Package frame defines the TDMA air-interface geometry shared by all six
// protocols (paper Figs. 2 and 4, Table 1).
//
// The 320 kHz system carries 800 symbols per 2.5 ms frame. One information
// slot is 160 symbols — exactly one 160-bit packet at the baseline η = 1
// mode — and one request/pilot minislot is 16 symbols. Each protocol
// partitions the same 800-symbol budget differently (Default):
//
//	CHARISMA : 5 request minislots + 640-symbol info subframe + 5 pilot slots
//	D-TDMA   : 10 request minislots + 4 information slots
//	RAMA     : 4 auction slots (40 symbols each) + 4 information slots
//	DRMA     : 5 information slots (an idle slot converts to 10 minislots)
//	RMAV     : variable: one 160-symbol slot per assigned grant + 1
//	           full-size competitive slot
//
// The paper's Table 1 is partially unreadable in the source scan; this
// reconstruction is derived from the readable constants (320 kHz, 2.5 ms
// frames, 8 kbps speech, 20 ms voice period). Another set fills the frame
// as exactly (20-symbol minislots; CHARISMA Nr 6 and Nb 2; D-TDMA Nr 8;
// DRMA Nx 8). Every recorded result uses Default's set; choosing between
// the two is left to the reconstruction write-up (DESIGN.md §3, unwritten).
package frame

import (
	"fmt"

	"charisma/internal/sim"
)

// Geometry is the static air-interface layout.
type Geometry struct {
	// FrameSymbols is the frame length in symbols (800 = 2.5 ms).
	FrameSymbols int
	// MinislotSymbols is the request/pilot minislot length (16).
	MinislotSymbols int
	// InfoSlotSymbols is the information slot length (160).
	InfoSlotSymbols int

	// CharismaRequestSlots is Nr for CHARISMA (5, "slightly larger than
	// the number of information slots", §4.3).
	CharismaRequestSlots int
	// CharismaPilotSlots is Nb, the CSI-polling pilot subframe (5).
	CharismaPilotSlots int
	// CharismaGrantOverheadSymbols is the per-grant announcement/guard
	// cost of CHARISMA's symbol-granular packing.
	CharismaGrantOverheadSymbols int

	// DTDMARequestSlots is Nr for D-TDMA/FR and /VR (10).
	DTDMARequestSlots int
	// DTDMAInfoSlots is Ni for D-TDMA/FR and /VR (4).
	DTDMAInfoSlots int

	// RAMAAuctionSlots is Na (4) and RAMAAuctionSymbols the size of one
	// auction slot (40 symbols — "an auction slot is larger than a
	// normal request slot", §3.1).
	RAMAAuctionSlots   int
	RAMAAuctionSymbols int
	// RAMAInfoSlots is Ni for RAMA (4).
	RAMAInfoSlots int

	// DRMAInfoSlots is Nk (5); DRMAMinislotsPerSlot is Nx (10), the number
	// of request minislots an idle information slot converts into.
	DRMAInfoSlots        int
	DRMAMinislotsPerSlot int

	// RMAVMaxGrantSlots is Pmax, the cap on slots a data user can win in
	// one frame (10, from [12]).
	RMAVMaxGrantSlots int

	// VoicePeriod is the speech packet interval (20 ms = 8 frames).
	VoicePeriod sim.Time
}

// Default returns the reconstructed Table 1 geometry.
func Default() Geometry {
	return Geometry{
		FrameSymbols:                 800,
		MinislotSymbols:              16,
		InfoSlotSymbols:              160,
		CharismaRequestSlots:         5,
		CharismaPilotSlots:           5,
		CharismaGrantOverheadSymbols: 0,
		DTDMARequestSlots:            10,
		DTDMAInfoSlots:               4,
		RAMAAuctionSlots:             4,
		RAMAAuctionSymbols:           40,
		RAMAInfoSlots:                4,
		DRMAInfoSlots:                5,
		DRMAMinislotsPerSlot:         10,
		RMAVMaxGrantSlots:            10,
		VoicePeriod:                  20 * sim.Millisecond,
	}
}

// Duration returns the fixed frame duration in ticks (one tick per symbol).
func (g Geometry) Duration() sim.Time { return sim.Time(g.FrameSymbols) }

// CharismaInfoSymbols returns the symbol budget of CHARISMA's information
// subframe: whatever the request and pilot subframes leave over.
func (g Geometry) CharismaInfoSymbols() int {
	return g.FrameSymbols - (g.CharismaRequestSlots+g.CharismaPilotSlots)*g.MinislotSymbols
}

// RMAVFrameDuration returns the duration of an RMAV frame carrying the
// given number of assigned information slots plus the single full-size
// competitive slot at the end (Fig. 2b).
func (g Geometry) RMAVFrameDuration(assignedSlots int) sim.Time {
	return sim.Time((assignedSlots + 1) * g.InfoSlotSymbols)
}

// Validate checks that every protocol's layout fits the frame budget.
func (g Geometry) Validate() error {
	if g.FrameSymbols <= 0 || g.MinislotSymbols <= 0 || g.InfoSlotSymbols <= 0 || g.RAMAAuctionSymbols <= 0 {
		return fmt.Errorf("frame: non-positive symbol sizes")
	}
	for _, c := range []struct {
		name string
		n    int
	}{
		{"CharismaRequestSlots", g.CharismaRequestSlots},
		{"CharismaPilotSlots", g.CharismaPilotSlots},
		{"CharismaGrantOverheadSymbols", g.CharismaGrantOverheadSymbols},
		{"DTDMARequestSlots", g.DTDMARequestSlots},
		{"DTDMAInfoSlots", g.DTDMAInfoSlots},
		{"RAMAAuctionSlots", g.RAMAAuctionSlots},
		{"RAMAInfoSlots", g.RAMAInfoSlots},
		{"DRMAInfoSlots", g.DRMAInfoSlots},
		{"DRMAMinislotsPerSlot", g.DRMAMinislotsPerSlot},
	} {
		if c.n < 0 {
			return fmt.Errorf("frame: negative %s %d", c.name, c.n)
		}
	}
	if got := g.CharismaInfoSymbols(); got < g.InfoSlotSymbols {
		return fmt.Errorf("frame: CHARISMA info subframe too small (%d symbols)", got)
	}
	if used := g.DTDMARequestSlots*g.MinislotSymbols + g.DTDMAInfoSlots*g.InfoSlotSymbols; used > g.FrameSymbols {
		return fmt.Errorf("frame: D-TDMA layout uses %d of %d symbols", used, g.FrameSymbols)
	}
	if used := g.RAMAAuctionSlots*g.RAMAAuctionSymbols + g.RAMAInfoSlots*g.InfoSlotSymbols; used > g.FrameSymbols {
		return fmt.Errorf("frame: RAMA layout uses %d of %d symbols", used, g.FrameSymbols)
	}
	if used := g.DRMAInfoSlots * g.InfoSlotSymbols; used > g.FrameSymbols {
		return fmt.Errorf("frame: DRMA layout uses %d of %d symbols", used, g.FrameSymbols)
	}
	if used := g.DRMAMinislotsPerSlot * g.MinislotSymbols; used > g.InfoSlotSymbols {
		return fmt.Errorf("frame: DRMA converts a %d-symbol slot into %d symbols of minislots", g.InfoSlotSymbols, used)
	}
	if g.RMAVMaxGrantSlots < 1 {
		return fmt.Errorf("frame: RMAV Pmax must be at least 1")
	}
	if g.VoicePeriod <= 0 {
		return fmt.Errorf("frame: non-positive voice period")
	}
	if g.VoicePeriod%g.Duration() != 0 {
		return fmt.Errorf("frame: voice period %v not a whole number of frames", g.VoicePeriod)
	}
	return nil
}
