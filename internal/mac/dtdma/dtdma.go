// Package dtdma implements the D-TDMA/FR and D-TDMA/VR baselines
// (paper §3.4–§3.5).
//
// D-TDMA/FR is the classical improved-PRMA dynamic TDMA protocol: a static
// frame of Nr request minislots and an information subframe; whenever a
// request is successfully received in the request phase, information
// capacity (if any remains) is assigned to it immediately, first-come-
// first-served. A voice user that wins capacity keeps one transmission
// every 20 ms (reservation) until its talkspurt ends; data users must
// contend again for every frame. The physical layer is the fixed-
// throughput (η=1) encoder: one packet costs exactly one 160-symbol slot.
//
// D-TDMA/VR uses the identical access mechanism on the variable-throughput
// channel-adaptive physical layer, but — crucially — "there is no
// interaction between the access control layer and the physical layer":
// the scheduler stays FCFS and channel-blind. The adaptive encoder simply
// makes a packet cost ⌈160/η⌉ symbols of the information subframe, which
// is how the paper's "twice the average offered throughput" materializes
// without the MAC ever looking at CSI.
package dtdma

import (
	"charisma/internal/mac"
	"charisma/internal/phy"
	"charisma/internal/sim"
)

// Protocol is the D-TDMA access scheme; Variable selects the /VR flavour.
type Protocol struct {
	// Variable marks D-TDMA/VR: transmitter-side link adaptation.
	Variable bool

	// servedAt stamps, per station ID, the frame in which the station was
	// acknowledged (frame-stamped so no per-frame clearing pass is needed).
	servedAt []int64
}

// New returns the fixed-rate variant (D-TDMA/FR).
func New() *Protocol { return &Protocol{} }

// NewVariable returns the variable-rate variant (D-TDMA/VR).
func NewVariable() *Protocol { return &Protocol{Variable: true} }

// Name implements mac.Protocol.
func (p *Protocol) Name() string {
	if p.Variable {
		return "d-tdma/vr"
	}
	return "d-tdma/fr"
}

// Init implements mac.Protocol. The stamp slice is resized in place when
// capacity allows, so re-Init for a new replication does not allocate.
func (p *Protocol) Init(s *mac.System) {
	if n := len(s.Stations); cap(p.servedAt) >= n {
		p.servedAt = p.servedAt[:n]
	} else {
		p.servedAt = make([]int64, n)
	}
	for i := range p.servedAt {
		p.servedAt[i] = -1
	}
}

// txMode returns the transmission mode for a station: the fixed mode for
// /FR; for /VR the mode the current frame's pilot estimate selects
// (MeasureEstimate), with no feedback lag. Whether /VR should instead
// adapt on the one-frame-old CSI the receiver feeds back (paper Fig. 6)
// is an open question on the ROADMAP. The MAC never sees the mode — it
// only shows up as transmission time on air.
func (p *Protocol) txMode(s *mac.System, st *mac.Station) phy.Mode {
	if !p.Variable {
		return s.PHY.Modes()[0]
	}
	est := s.MeasureEstimate(st)
	return s.PHY.ModeForAmplitude(est.Amp)
}

// serveVoice transmits one voice packet for st, returning the information
// symbols consumed (0 if it does not fit the remaining budget).
func (p *Protocol) serveVoice(s *mac.System, st *mac.Station, budget int) int {
	m := p.txMode(s, st)
	if m.SymbolsPerPacket > budget {
		return 0
	}
	s.TransmitVoice(st, m, 1)
	s.M.AddInfoUsed(m.SymbolsPerPacket)
	return m.SymbolsPerPacket
}

// serveData grants st one slot-equivalent data transmission opportunity:
// at mode η it carries max(1, ⌊η⌋) packets. Returns symbols consumed.
func (p *Protocol) serveData(s *mac.System, st *mac.Station, budget int) int {
	m := p.txMode(s, st)
	pkts := m.PacketsPerSlot()
	if pkts < 1 {
		pkts = 1 // half-rate mode: a lone packet costs two slot times
	}
	if pkts > st.Data().Backlog() {
		pkts = st.Data().Backlog()
	}
	// FCFS is channel-blind but not wasteful: it trims the grant to the
	// remaining subframe.
	for pkts > 0 && pkts*m.SymbolsPerPacket > budget {
		pkts--
	}
	if pkts == 0 {
		return 0
	}
	s.TransmitData(st, m, pkts)
	cost := pkts * m.SymbolsPerPacket
	s.M.AddInfoUsed(cost)
	return cost
}

// RunFrame implements mac.Protocol.
func (p *Protocol) RunFrame(s *mac.System) sim.Time {
	g := s.Cfg.Geometry
	budget := g.DTDMAInfoSlots * g.InfoSlotSymbols
	s.M.AddInfoBudget(budget)
	frame := s.FrameIndex()

	// Phase 1: reserved voice users transmit without contention.
	for _, st := range s.VoiceReservationsDue() {
		if used := p.serveVoice(s, st, budget); used > 0 {
			budget -= used
			s.AdvanceReservation(st)
		}
	}

	// Phase 2: the base-station request queue is served FCFS before new
	// contention (with-queue variant only; §4.5).
	for i := 0; i < s.QueueLen() && budget >= 0; {
		r := s.Queue()[i]
		var used int
		if r.Kind == mac.KindVoice {
			if used = p.serveVoice(s, r.St, budget); used > 0 {
				s.GrantReservation(r.St)
			}
		} else {
			used = p.serveData(s, r.St, budget)
		}
		if used == 0 {
			break // FCFS: the head blocks until capacity frees up
		}
		budget -= used
		s.FreeRequest(s.PopQueueAt(i))
	}

	// Phase 3: request contention with immediate FCFS assignment.
	for ms := 0; ms < g.DTDMARequestSlots; ms++ {
		w := s.ContendStamped(p.servedAt, frame)
		if w == nil {
			continue
		}
		p.servedAt[w.ID] = frame
		kind := s.RequestKind(w)
		r := s.NewRequest(w, kind)
		var used int
		if kind == mac.KindVoice {
			if used = p.serveVoice(s, w, budget); used > 0 {
				s.GrantReservation(w)
			}
		} else {
			used = p.serveData(s, w, budget)
		}
		if used > 0 {
			budget -= used
			s.FreeRequest(r)
			continue
		}
		// Acknowledged but the frame is full: queue it or lose it.
		if !s.Enqueue(r) {
			s.FreeRequest(r)
		}
	}
	return g.Duration()
}
