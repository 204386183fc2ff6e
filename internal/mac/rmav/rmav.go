// Package rmav implements the RMAV baseline (Jeong, Choi & Jeon [12];
// paper §3.2).
//
// RMAV uses a variable-length frame in which every slot except the last is
// an *assigned* information slot and the single trailing slot is the
// "competitive slot" where slotless users contend. A winner's assignment
// persists in every subsequent frame until released: a voice winner holds
// one slot per frame for the rest of its talkspurt, and a data winner
// holds up to Pmax = 10 slots per frame until its backlog drains. The
// frame length therefore tracks the admitted population (bounded by
// n·Pmax for n users), shrinking to a bare competitive slot when idle —
// which is why RMAV achieves very short delay at light load and high raw
// throughput at high load.
//
// The fatal flaw the paper demonstrates: one contention opportunity per
// frame. As admitted users stretch the frame, contention opportunities per
// second collapse exactly when the contender population grows, and the
// protocol thrashes at a moderate user count (Fig. 11: unstable beyond
// ≈10–20 voice users).
//
// RMAV inherently needs no BS request queue — each frame has at most one
// winner (§4.5, footnote 3) — so the queue configuration is ignored. The
// PHY is the fixed-rate encoder.
package rmav

import (
	"slices"

	"charisma/internal/mac"
	"charisma/internal/phy"
	"charisma/internal/sim"
)

// Protocol is the RMAV access scheme.
type Protocol struct {
	// voiceSlot records persistent voice slot assignments (one slot per
	// frame for the whole talkspurt), per station ID. A slot whose
	// reservation lapsed is released lazily the next time its station
	// re-enters the contention population.
	voiceSlot []bool
	// dataGrant is the data station that won the previous competitive
	// slot; it holds up to Pmax slots in this frame only ("one or more
	// information slots ... in the next frame", §3.2) and must contend
	// again afterwards.
	dataGrant *mac.Station
	// heldAt stamps, per station ID, the frame in which the station was
	// seen holding a live voice slot: ContendStamped skips it.
	heldAt []int64
}

// New returns an RMAV instance.
func New() *Protocol { return &Protocol{} }

// Name implements mac.Protocol.
func (p *Protocol) Name() string { return "rmav" }

// Init implements mac.Protocol.
func (p *Protocol) Init(s *mac.System) {
	n := len(s.Stations)
	p.voiceSlot = slices.Grow(p.voiceSlot[:0], n)[:n]
	p.heldAt = slices.Grow(p.heldAt[:0], n)[:n]
	clear(p.voiceSlot)
	for i := range p.heldAt {
		p.heldAt[i] = -1
	}
	p.dataGrant = nil
}

func (p *Protocol) fixedMode(s *mac.System) phy.Mode { return s.PHY.Modes()[0] }

// RunFrame implements mac.Protocol. It returns the variable frame
// duration: one 160-symbol slot per persistent assignment plus the
// full-size competitive slot.
func (p *Protocol) RunFrame(s *mac.System) sim.Time {
	g := s.Cfg.Geometry
	mode := p.fixedMode(s)
	assigned := 0
	used := 0

	// Voice assignments: one slot every frame for the talkspurt. Slot
	// holders are exactly the stations whose MAC-level reservation is
	// still alive, i.e. the registry's reserved bucket; a station whose
	// reservation lapsed in BeginFrame has already left the bucket, so
	// its slot simply stops recurring (voiceSlot is cleared when the
	// station next contends).
	s.ForEachReserved(func(st *mac.Station) {
		if !p.voiceSlot[st.ID] {
			return
		}
		assigned++
		if st.Voice().Buffered() > 0 {
			s.TransmitVoice(st, mode, 1)
			used += g.InfoSlotSymbols
		}
	})

	// The data grant won in the previous competitive slot: up to Pmax
	// slots in this frame only.
	if st := p.dataGrant; st != nil {
		p.dataGrant = nil
		s.SetPendingAtBS(st, false)
		n := st.Data().Backlog()
		if n > g.RMAVMaxGrantSlots {
			n = g.RMAVMaxGrantSlots
		}
		if n > 0 {
			assigned += n
			s.TransmitData(st, mode, n)
			used += n * g.InfoSlotSymbols
		}
	}

	// The single competitive slot at the end of the frame. A live slot
	// holder sits it out; a stale slot (talkspurt ended earlier) is
	// released so its station contends again.
	frame := s.FrameIndex()
	s.ForEachCandidate(func(st *mac.Station) {
		if p.voiceSlot[st.ID] && st.Reserved() {
			p.heldAt[st.ID] = frame
		} else {
			p.voiceSlot[st.ID] = false
		}
	})
	if w := s.ContendStamped(p.heldAt, frame); w != nil {
		if s.RequestKind(w) == mac.KindVoice {
			p.voiceSlot[w.ID] = true
			// Mark the MAC-level reservation so talkspurt-end release
			// and metrics work uniformly; the slot itself recurs every
			// frame rather than every 20 ms, hence due = now.
			s.GrantReservationAt(w, s.Now())
		} else {
			p.dataGrant = w
			// The station must not re-contend while its grant is
			// outstanding.
			s.SetPendingAtBS(w, true)
		}
	}

	s.M.AddInfoBudget(assigned*g.InfoSlotSymbols + g.InfoSlotSymbols)
	s.M.AddInfoUsed(used)
	return g.RMAVFrameDuration(assigned)
}
