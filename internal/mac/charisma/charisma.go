// Package charisma implements the paper's proposed protocol: CHannel
// Adaptive Reservation-based ISochronous Multiple Access (§4).
//
// CHARISMA departs from the baselines in one structural way: it does NOT
// assign information capacity immediately after each successful request.
// Instead the base station first gathers every request of the frame — new
// contention winners, backlog requests held in the request queue, and the
// reservation requests it auto-generates for admitted voice users every
// 20 ms — and then allocates the information subframe in one pass, ordered
// by a priority metric (eq. (2)) that combines:
//
//   - the CSI-dependent achievable throughput f(ĉ) the adaptive PHY would
//     realize for that user (selection diversity: frames get packed with
//     good-channel users, deferring deep-faded ones until their channel
//     recovers or their deadline approaches),
//   - deadline urgency for voice and accumulated waiting time for data
//     (the fairness terms that bound starvation), and
//   - a static voice priority offset.
//
// CSI is estimated from pilot symbols carried in request packets and is
// treated as valid for two frames; older estimates of high-priority backlog
// requests are refreshed through the downlink CSI-polling / uplink pilot
// subframe (Nb slots per frame, §4.4), and anything still stale is
// discounted so the scheduler stays conservative about obsolete channel
// knowledge.
package charisma

import (
	"cmp"
	"math"
	"slices"

	"charisma/internal/channel"
	"charisma/internal/mac"
	"charisma/internal/phy"
	"charisma/internal/sim"
)

// Protocol is the CHARISMA access scheme.
type Protocol struct {
	// resEst holds the BS-side CSI estimate for each admitted (reserved)
	// voice station, refreshed by polling; indexed by station ID.
	resEst []channel.Estimate
	// ackedAt stamps, per station ID, the frame in which the station's
	// request was received (frame-stamped instead of cleared so marking
	// the whole population acknowledged costs nothing per frame).
	ackedAt []int64
	// etaMax normalizes f(CSI) to [0,1].
	etaMax float64
	// avgEta tracks each station's EWMA realized throughput for the
	// fairness extension (§6 / [22]); indexed by station ID.
	avgEta []float64
	// pool and keys are the per-frame candidate and rank-key scratch,
	// reused across frames and replications so the gather/allocate cycle
	// stops allocating once they reach their high-water marks.
	pool []candidate
	keys []rankKey
	// urgency and powD memoize the eq. (2) voice-urgency and data-patience
	// powers λ^x; the panel profiles show math.Pow as one of the largest
	// leaf costs without them.
	urgency urgencyMemo
	powD    powCache
}

// powCache memoizes math.Pow(lambda, x) keyed by the exact bits of x.
// Pow is a pure function, so replaying a cached result is bit-identical
// to recomputing it — safe under the golden byte-identity contract. The
// table is direct-mapped: a collision just recomputes and overwrites.
// Data waits are whole frames (requests are born at frame starts), so a
// few dozen distinct exponents dominate a run and the table hits.
type powCache struct {
	lambda float64
	keys   [256]uint64 // math.Float64bits(x)+1; 0 marks an empty line
	vals   [256]float64
}

// reset points the cache at a base. Entries survive when the base is
// unchanged (replication reuse: the memo stays warm across reps).
func (c *powCache) reset(lambda float64) {
	if c.lambda != lambda {
		c.lambda = lambda
		c.keys = [256]uint64{}
	}
}

func (c *powCache) pow(x float64) float64 {
	k := math.Float64bits(x) + 1
	h := (k * 0x9E3779B97F4A7C15) >> 56
	if c.keys[h] == k {
		return c.vals[h]
	}
	v := math.Pow(c.lambda, x)
	c.keys[h] = k
	c.vals[h] = v
	return v
}

// urgencyMemoMax bounds the urgency table: deadline distances from it on
// (a voice lifetime above 0.2 s) are computed on every use, not stored.
const urgencyMemoMax = 1 << 16

// urgencyMemo memoizes the voice urgency λv^framesLeft by the integer
// tick distance d to the oldest packet's deadline, clamped at 0.
// framesLeft is float64(d)/fd and fd is fixed per run, so each distance
// has one value, and math.Pow is pure, so a replayed entry is
// bit-identical to recomputing it. Deadlines fall at arbitrary ticks, so
// a float-keyed table misses at tick resolution; indexed by d, the table
// spans the voice lifetime (6,400 ticks at the defaults) and hits once
// each distance has been seen.
type urgencyMemo struct {
	lambda, fd float64
	vals       []float64 // vals[d]; NaN until computed
}

// reset points the memo at a base and frame duration. Entries survive
// when both are unchanged (replication reuse keeps the table warm).
func (m *urgencyMemo) reset(lambda, fd float64) {
	if m.lambda != lambda || m.fd != fd {
		m.lambda, m.fd = lambda, fd
		m.vals = m.vals[:0]
	}
}

// at returns λv^(d/fd) for d clamped at 0.
func (m *urgencyMemo) at(d sim.Time) float64 {
	if d < 0 {
		d = 0
	}
	if d >= urgencyMemoMax {
		return math.Pow(m.lambda, float64(d)/m.fd)
	}
	if old, n := len(m.vals), int(d)+1; n > old {
		m.vals = slices.Grow(m.vals, n-old)[:n]
		for i := old; i < n; i++ {
			m.vals[i] = math.NaN()
		}
	}
	v := m.vals[d]
	if v != v {
		v = math.Pow(m.lambda, float64(d)/m.fd)
		m.vals[d] = v
	}
	return v
}

// New returns a CHARISMA instance.
func New() *Protocol { return &Protocol{} }

// Name implements mac.Protocol.
func (p *Protocol) Name() string { return "charisma" }

// Init implements mac.Protocol. Per-station slices are resized in place
// when capacity allows, so re-Init for a new replication of the same
// population (the arena path, see internal/core) does not allocate.
func (p *Protocol) Init(s *mac.System) {
	n := len(s.Stations)
	if cap(p.resEst) >= n {
		p.resEst = p.resEst[:n]
		clear(p.resEst)
	} else {
		p.resEst = make([]channel.Estimate, n)
	}
	if cap(p.ackedAt) >= n {
		p.ackedAt = p.ackedAt[:n]
	} else {
		p.ackedAt = make([]int64, n)
	}
	for i := range p.ackedAt {
		p.ackedAt[i] = -1
	}
	modes := s.PHY.Modes()
	p.etaMax = modes[len(modes)-1].Eta
	if cap(p.avgEta) >= n {
		p.avgEta = p.avgEta[:n]
	} else {
		p.avgEta = make([]float64, n)
	}
	for i := range p.avgEta {
		p.avgEta[i] = 1 // neutral prior: the fixed-rate baseline
	}
	p.urgency.reset(s.Cfg.Charisma.LambdaV, float64(s.FrameDuration()))
	p.powD.reset(s.Cfg.Charisma.LambdaD)
}

// fairnessWeight returns the divisor the fairness extension applies to the
// CSI term: avgEta^exponent, clamped away from zero.
func (p *Protocol) fairnessWeight(s *mac.System, id int) float64 {
	exp := s.Cfg.Charisma.FairnessExponent
	if exp == 0 {
		return 1
	}
	avg := p.avgEta[id]
	if avg < 0.1 {
		avg = 0.1
	}
	return math.Pow(avg/p.etaMax, exp)
}

// observeEta folds a scheduled transmission's throughput into the user's
// EWMA for the fairness extension.
func (p *Protocol) observeEta(s *mac.System, id int, eta float64) {
	if s.Cfg.Charisma.FairnessExponent == 0 {
		return
	}
	mem := s.Cfg.Charisma.FairnessMemory
	if mem == 0 {
		mem = 0.99
	}
	p.avgEta[id] = mem*p.avgEta[id] + (1-mem)*eta
}

// candidate is one allocation candidate with its computed priority.
type candidate struct {
	r        *mac.Request
	reserved bool // BS-generated reservation request (not queueable)
	ranked   bool // prio, mode and outage are current for r.Est
	prio     float64
	mode     phy.Mode
	outage   bool
}

// rankKey is a candidate's sort key: its priority, the station ID that
// breaks ties, and its index in the pool. Sorting the 16-byte keys moves
// a fraction of the bytes sorting the candidates themselves would.
type rankKey struct {
	prio float64
	id   int32
	idx  int32
}

// keyOf builds pool[i]'s rank key.
func keyOf(pool []candidate, i int) rankKey {
	return rankKey{prio: pool[i].prio, id: int32(pool[i].r.St.ID), idx: int32(i)}
}

// byRank orders keys by priority descending, then station ID ascending.
// Both sorts use it through slices.SortStableFunc: the same comparator
// and the same stable algorithm over the same key sequence give the same
// permutation, even where a NaN priority makes two keys compare equal.
func byRank(a, b rankKey) int {
	if a.prio != b.prio {
		return cmp.Compare(b.prio, a.prio)
	}
	return cmp.Compare(a.id, b.id)
}

// priority computes eq. (2) for a request given the effective (staleness-
// discounted) CSI amplitude, and marks the candidate ranked.
func (p *Protocol) priority(s *mac.System, c *candidate) {
	c.ranked = true
	cp := s.Cfg.Charisma
	amp := s.EffectiveAmp(c.r.Est)
	c.mode = s.PHY.ModeForAmplitude(amp)
	c.outage = s.PHY.OutageForAmplitude(amp)
	f := c.mode.Eta / p.etaMax
	if c.outage {
		f = 0
	}
	// Fairness extension (§6/[22]): rank the channel relative to the
	// user's own long-run average rather than absolutely.
	f /= p.fairnessWeight(s, c.r.St.ID)
	fd := float64(s.FrameDuration())
	if c.r.Kind == mac.KindVoice {
		// λv^framesLeft, framesLeft = max(0, deadline−now)/fd (0 with no
		// packet buffered).
		var left sim.Time
		if pkt, ok := c.r.St.Voice().Oldest(); ok {
			left = pkt.Deadline - s.Now()
		}
		urgency := p.urgency.at(left)
		c.prio = cp.Alpha*f + cp.BetaV*urgency + cp.VoiceOffset
		return
	}
	waited := float64(s.Now()-c.r.Born) / fd
	if waited < 0 {
		waited = 0
	}
	patience := 1 - p.powD.pow(waited)
	c.prio = cp.Alpha*f + cp.BetaD*patience
}

// RunFrame implements mac.Protocol.
func (p *Protocol) RunFrame(s *mac.System) sim.Time {
	g := s.Cfg.Geometry
	budget := g.CharismaInfoSymbols()
	s.M.AddInfoBudget(budget)
	frame := s.FrameIndex()

	// --- Gather phase ---

	pool := p.pool[:0]

	// Reservation requests the BS auto-generates for admitted voice
	// users (§4.3: one per 20 ms voice period, materialized by the
	// packets waiting in the device buffer). These are base-station
	// state, not contention survivors, so they retry each frame while
	// their packets live regardless of the request-queue variant — the
	// queue of §4.5 holds only contention-borne requests. Admitted users
	// live in the reserved bucket of the station registry.
	s.ForEachReserved(func(st *mac.Station) {
		if st.Voice().Buffered() > 0 {
			r := s.BorrowRequest()
			r.St, r.Kind, r.NPkts, r.Born, r.Est =
				st, mac.KindVoice, st.Voice().Buffered(), s.Now(), p.resEst[st.ID]
			pool = append(pool, candidate{r: r, reserved: true})
		}
	})

	// Backlog requests held at the BS (queue variant). They are
	// re-evaluated every frame; survivors are re-enqueued at the end.
	// Gathered after the reservation scan so a station whose earlier
	// request still sits in the queue is not double-represented.
	for _, r := range s.TakeQueue() {
		pool = append(pool, candidate{r: r})
	}

	// CSI-polling subframe: refresh the Nb most important stale
	// estimates (paper Fig. 10). Priorities are computed with the stale
	// values first, exactly as the BS would rank its backlog.
	if !s.Cfg.Charisma.DisableCSIRefresh {
		p.pollCSI(s, pool)
	}

	// Every station already represented in the pool (reservation or
	// dequeued backlog) must not contend again this frame.
	for i := range pool {
		p.ackedAt[pool[i].r.St.ID] = frame
	}

	// Request phase: Nr contention minislots gather new requests —
	// without announcing any allocation yet.
	for ms := 0; ms < g.CharismaRequestSlots; ms++ {
		w := s.ContendStamped(p.ackedAt, frame)
		if w == nil {
			continue
		}
		p.ackedAt[w.ID] = frame
		pool = append(pool, candidate{r: s.NewRequest(w, s.RequestKind(w))})
	}

	// --- Allocation phase ---

	// Rank each candidate once: the stale ones pollCSI ranked and did not
	// refresh keep their priority, since nothing they depend on (their
	// estimate, buffer, average throughput, the clock) has changed —
	// contention only measures new winners, and the ackedAt stamps keep
	// those out of the gathered pool.
	keys := p.keys[:0]
	for i := range pool {
		if !pool[i].ranked {
			p.priority(s, &pool[i])
		}
		keys = append(keys, keyOf(pool, i))
	}
	slices.SortStableFunc(keys, byRank)
	p.keys = keys

	overhead := g.CharismaGrantOverheadSymbols
	for _, k := range keys {
		c := &pool[k.idx]
		st := c.r.St
		var want int
		if c.r.Kind == mac.KindVoice {
			want = st.Voice().Buffered()
		} else {
			want = st.Data().Backlog()
		}
		if want == 0 {
			continue // nothing left to send; candidate evaporates
		}
		spp := c.mode.SymbolsPerPacket
		maxFit := (budget - overhead) / spp
		if maxFit <= 0 {
			// Does not fit — keep scanning: a higher-mode (cheaper)
			// candidate further down may still pack into the
			// remaining symbols.
			continue
		}
		n := want
		if n > maxFit {
			n = maxFit
		}
		cost := n*spp + overhead
		budget -= cost
		s.M.AddInfoUsed(cost)
		p.observeEta(s, st.ID, c.mode.Eta)
		if c.r.Kind == mac.KindVoice {
			s.TransmitVoice(st, c.mode, n)
			if !st.Reserved() {
				s.GrantReservation(st)
			}
			// The information transmission itself carries pilot
			// symbols, so the BS leaves this frame with a fresh
			// estimate for the next reservation cycle — without
			// spending a polling slot.
			p.resEst[st.ID] = s.MeasureEstimate(st)
			// Fully served or not, the reservation regenerates the
			// request next frame for any remainder.
			s.FreeRequest(c.r)
			c.r = nil
		} else {
			s.TransmitData(st, c.mode, n)
			// Data allocations are one-shot: the station must
			// contend again for any remaining backlog (§4.1).
			s.FreeRequest(c.r)
			c.r = nil
		}
	}

	// --- Backlog phase ---

	// Unserved contention-borne requests survive in the BS queue when it
	// is enabled; without the queue they are lost and the stations must
	// contend again. Reservation requests regenerate from BS state.
	for _, k := range keys {
		c := &pool[k.idx]
		if c.r == nil {
			continue
		}
		if c.reserved || !s.Enqueue(c.r) {
			s.FreeRequest(c.r)
		}
		c.r = nil
	}
	p.pool = pool
	return g.Duration()
}

// pollCSI spends the Nb pilot slots refreshing the highest-priority stale
// estimates among the backlog candidates. Each stale candidate is ranked
// here once; a refreshed one is marked for re-ranking on its fresh
// estimate, and the rest keep their rank for the allocation phase.
func (p *Protocol) pollCSI(s *mac.System, pool []candidate) {
	keys := p.keys[:0]
	for i := range pool {
		if s.EstimateStale(pool[i].r.Est) {
			p.priority(s, &pool[i])
			keys = append(keys, keyOf(pool, i))
		}
	}
	p.keys = keys
	if len(keys) == 0 {
		return
	}
	slices.SortStableFunc(keys, byRank)
	n := s.Cfg.Geometry.CharismaPilotSlots
	if n > len(keys) {
		n = len(keys)
	}
	for i := 0; i < n; i++ {
		c := &pool[keys[i].idx]
		c.r.Est = s.RefreshEstimate(c.r.St)
		c.ranked = false
		if c.r.Kind == mac.KindVoice && c.r.St.Reserved() {
			p.resEst[c.r.St.ID] = c.r.Est
		}
	}
}
