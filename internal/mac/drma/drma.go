// Package drma implements the DRMA baseline (Qiu & Li [19]; paper §3.3).
//
// DRMA uses a dynamic frame of Nk information slots with no dedicated
// request subframe. At the beginning of each information slot the base
// station announces whether the slot is assigned; an unassigned slot is
// "converted" into Nx request minislots in which active users contend.
// Successful requests are granted information slots later in the current
// frame if any remain free. Because users only get contention opportunities
// when idle slots exist, the request load is automatically throttled at
// high traffic — the protocol's self-stabilizing property (§5.1: an
// inherent "distributed requests queueing" behaviour).
//
// Voice winners reserve one transmission every 20 ms; data users contend
// per frame. The physical layer is the fixed-throughput encoder.
package drma

import (
	"charisma/internal/mac"
	"charisma/internal/phy"
	"charisma/internal/sim"
)

// Protocol is the DRMA access scheme.
type Protocol struct {
	// servedAt stamps, per station ID, the frame in which the station was
	// acknowledged (frame-stamped so no per-frame clearing pass is needed).
	servedAt []int64
	// pending holds contention winners awaiting their information slot.
	// This is the protocol's *dynamic reservation*: a successful request
	// stays assigned at the base station until a slot frees up, which is
	// also why an additional explicit request queue barely helps DRMA
	// (§5.1: the protocol has an inherent queueing property).
	pending []*mac.Request
}

// New returns a DRMA instance.
func New() *Protocol { return &Protocol{} }

// Name implements mac.Protocol.
func (p *Protocol) Name() string { return "drma" }

// Init implements mac.Protocol.
func (p *Protocol) Init(s *mac.System) {
	if n := len(s.Stations); cap(p.servedAt) >= n {
		p.servedAt = p.servedAt[:n]
	} else {
		p.servedAt = make([]int64, n)
	}
	for i := range p.servedAt {
		p.servedAt[i] = -1
	}
	p.pending = p.pending[:0]
}

func (p *Protocol) fixedMode(s *mac.System) phy.Mode { return s.PHY.Modes()[0] }

// RunFrame implements mac.Protocol.
func (p *Protocol) RunFrame(s *mac.System) sim.Time {
	g := s.Cfg.Geometry
	s.M.AddInfoBudget(g.DRMAInfoSlots * g.InfoSlotSymbols)
	frame := s.FrameIndex()
	mode := p.fixedMode(s)

	// Pending grants from previous frames are served first, in FIFO
	// order, as slots free up. Winners whose service class evaporated in
	// the meantime are scrubbed: all voice packets expired, data backlog
	// drained, or the station left the cell entirely (a multicell handoff
	// detaches the clone's traffic sources).
	grants := p.pending[:0]
	for _, r := range p.pending {
		if (r.Kind == mac.KindVoice && (r.St.Voice() == nil || (r.St.Voice().Buffered() == 0 && !r.St.Voice().Talking()))) ||
			(r.Kind == mac.KindData && (r.St.Data() == nil || r.St.Data().Backlog() == 0)) {
			s.SetPendingAtBS(r.St, false)
			s.FreeRequest(r)
			continue
		}
		grants = append(grants, r)
	}
	for _, r := range grants {
		p.servedAt[r.St.ID] = frame
	}
	reserved := s.VoiceReservationsDue()
	ri, gi := 0, 0

	for slot := 0; slot < g.DRMAInfoSlots; slot++ {
		// The BS announcement: is this slot assigned?
		if ri < len(reserved) {
			st := reserved[ri]
			ri++
			s.TransmitVoice(st, mode, 1)
			s.AdvanceReservation(st)
			s.M.AddInfoUsed(g.InfoSlotSymbols)
			continue
		}
		if gi < len(grants) {
			r := grants[gi]
			gi++
			s.SetPendingAtBS(r.St, false)
			if r.Kind == mac.KindVoice {
				if r.St.Voice().Buffered() > 0 {
					s.TransmitVoice(r.St, mode, 1)
					s.GrantReservation(r.St)
					s.M.AddInfoUsed(g.InfoSlotSymbols)
				}
			} else if r.St.Data().Backlog() > 0 {
				s.TransmitData(r.St, mode, 1)
				s.M.AddInfoUsed(g.InfoSlotSymbols)
			}
			s.FreeRequest(r)
			continue
		}
		// Unassigned: the slot converts into Nx request minislots. The
		// slot itself is consumed by the contention process; winners
		// are granted *later* slots of this frame (or queued).
		for x := 0; x < g.DRMAMinislotsPerSlot; x++ {
			w := s.ContendStamped(p.servedAt, frame)
			if w == nil {
				continue
			}
			p.servedAt[w.ID] = frame
			grants = append(grants, s.NewRequest(w, s.RequestKind(w)))
		}
	}

	// Winners that found no free slot keep their dynamic reservation and
	// take the first slots of upcoming frames. The unserved tail moves to
	// the front of the same backing array, so pending keeps its capacity.
	for _, r := range grants[gi:] {
		s.SetPendingAtBS(r.St, true)
	}
	p.pending = grants[:copy(grants, grants[gi:])]
	return g.Duration()
}
