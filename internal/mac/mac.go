package mac

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"charisma/internal/channel"
	"charisma/internal/frame"
	"charisma/internal/mathx"
	"charisma/internal/phy"
	"charisma/internal/rng"
	"charisma/internal/sim"
	"charisma/internal/traffic"
)

// Kind distinguishes the two request/service classes.
type Kind uint8

// The two service classes of the integrated-services cell.
const (
	KindVoice Kind = iota
	KindData
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	if k == KindVoice {
		return "voice"
	}
	return "data"
}

// Station is one mobile device. It holds only cold configuration — its
// identity, its traffic sources, its fading process — packed into 32
// bytes; all hot per-station state (bucket membership, wake/reservation
// stamps, fading sync counters, timer-wheel entries) lives in the owning
// System's structure-of-arrays slabs, indexed by the station's ID (see
// registry.go). Boolean MAC state is bit-packed into flags. Only
// System.Reset builds stations, deferred: a station carries no sources
// and no fading process until its first wake (see Population), and an
// idle one costs its struct, a pointer in System.Stations, and a handful
// of slab rows — a few tens of bytes.
type Station struct {
	// ID is the station's index in its System's Stations table and in
	// every slab.
	ID int
	// src bundles the traffic sources behind one pointer so a station
	// carrying either or both pays 8 bytes in the struct; nil for inert
	// multicell clones and for deferred stations before materialization.
	src *Sources
	// fad is the station's uplink fading process; nil until a deferred
	// station materializes.
	fad *channel.Fading
	// flags packs the registry bucket (low 3 bits) with the MAC booleans.
	flags uint8
}

// Sources carries a station's traffic endpoints; either may be nil.
type Sources struct {
	Voice *traffic.VoiceSource
	Data  *traffic.DataSource
}

// Station flag bits above the bucket field.
const (
	stationBucketBits uint8 = 0x07
	// flagReserved marks an active voice reservation: the station owns
	// one information transmission every voice period without
	// re-contending. The due time lives in the registry's stamp slab.
	flagReserved uint8 = 1 << 3
	// flagPendingAtBS marks that a request from this station is held in
	// the base-station request queue, so the station must not re-contend.
	flagPendingAtBS uint8 = 1 << 4
	// flagDeferred marks a station whose sources and fading process have
	// not been constructed yet (see Population).
	flagDeferred uint8 = 1 << 5
	// flagCandidate mirrors the station's live contention candidacy —
	// it sits in a contention bucket and NeedsVoiceRequest or
	// NeedsDataRequest holds. Reindex keeps the bit in sync and bumps the
	// registry epoch only when it flips, so state changes that cannot
	// alter the candidate set (servicing a reserved voice station, idle
	// re-arms) leave the memoized candidate list valid. See Reindex and
	// ForEachCandidate in registry.go.
	flagCandidate uint8 = 1 << 6
)

func (st *Station) bucket() bucketKind     { return bucketKind(st.flags & stationBucketBits) }
func (st *Station) setBucket(b bucketKind) { st.flags = st.flags&^stationBucketBits | uint8(b) }

// Voice returns the station's voice source, or nil.
func (st *Station) Voice() *traffic.VoiceSource {
	if st.src == nil {
		return nil
	}
	return st.src.Voice
}

// Data returns the station's data source, or nil.
func (st *Station) Data() *traffic.DataSource {
	if st.src == nil {
		return nil
	}
	return st.src.Data
}

// Fading returns the station's fading process, or nil.
func (st *Station) Fading() *channel.Fading { return st.fad }

// Reserved reports whether the station holds an active voice reservation.
func (st *Station) Reserved() bool { return st.flags&flagReserved != 0 }

// PendingAtBS reports whether a request from this station is held at the
// base station.
func (st *Station) PendingAtBS() bool { return st.flags&flagPendingAtBS != 0 }

// SetTraffic points the station at a traffic pair the caller owns, or
// makes it inert with nil (the multicell attach/detach path). The station
// keeps the pointer, so the pair must stay live and unchanged while the
// station carries it. The caller must Reindex the station with its owning
// system for the change to reach the scan paths.
func (st *Station) SetTraffic(src *Sources) { st.src = src }

// CharismaParams are the priority-metric weights of CHARISMA's eq. (2):
// phi = Alpha·f(CSI) + Beta·urgency (+ VoiceOffset for voice), with
// forgetting factors LambdaV (deadline urgency growth) and LambdaD
// (waiting-time growth). See DESIGN.md §3 for the reconstruction.
type CharismaParams struct {
	Alpha       float64
	BetaV       float64
	BetaD       float64
	VoiceOffset float64
	LambdaV     float64
	LambdaD     float64
	// DisableCSIRefresh turns off the pilot-polling subframe (ablation:
	// backlog requests then keep stale estimates).
	DisableCSIRefresh bool

	// FairnessExponent enables the paper's first future-work extension
	// (§6, referencing the authors' channel-capacity fair queueing work
	// [22]): the CSI term of eq. (2) is divided by the user's own
	// long-run average throughput raised to this exponent, so a user is
	// ranked by how good its channel is *relative to its own norm*
	// rather than absolutely. 0 (default) reproduces eq. (2) exactly;
	// 1 gives fully proportional-fair ranking that stops starving
	// permanently shadowed users. Negative is invalid.
	FairnessExponent float64
	// FairnessMemory is the EWMA coefficient, in [0,1), for the per-user
	// average throughput estimate (per scheduled transmission); 0 means
	// 0.99.
	FairnessMemory float64
}

// DefaultCharismaParams returns the reproduction defaults.
func DefaultCharismaParams() CharismaParams {
	return CharismaParams{
		Alpha:       1.0,
		BetaV:       2.0,
		BetaD:       1.0,
		VoiceOffset: 1.0,
		LambdaV:     0.7,
		LambdaD:     0.9,
	}
}

// Config carries everything the protocols need beyond the PHY.
type Config struct {
	Geometry frame.Geometry

	// PermVoice and PermData are the permission probabilities pv and pd
	// governing request transmission in a contention minislot (§2).
	PermVoice float64
	PermData  float64

	// UseQueue enables the base-station request queue (§4.5); QueueCap
	// bounds it.
	UseQueue bool
	QueueCap int

	// CSIEstNoiseStd is the relative pilot-estimation error.
	CSIEstNoiseStd float64
	// CSIValidityFrames is how many frames an estimate stays fresh
	// (§4.4: "valid for two consecutive frames").
	CSIValidityFrames int
	// StaleDecayPerFrame discounts an estimate's amplitude for every
	// frame beyond its validity, making the scheduler conservative about
	// obsolete CSI.
	StaleDecayPerFrame float64

	Charisma CharismaParams
}

// DefaultConfig returns the reproduction defaults (Table 1 where readable;
// reconstructed values per DESIGN.md §3 otherwise).
func DefaultConfig() Config {
	return Config{
		Geometry:           frame.Default(),
		PermVoice:          0.1,
		PermData:           0.05,
		UseQueue:           false,
		QueueCap:           128,
		CSIEstNoiseStd:     0.05,
		CSIValidityFrames:  2,
		StaleDecayPerFrame: 0.9,
		Charisma:           DefaultCharismaParams(),
	}
}

// Validate reports configuration errors. Every float field, the CHARISMA
// block's included, must be finite.
func (c Config) Validate() error {
	if err := c.Geometry.Validate(); err != nil {
		return err
	}
	cp := c.Charisma
	if err := mathx.CheckFinite("mac",
		mathx.Field{Name: "PermVoice", Value: c.PermVoice},
		mathx.Field{Name: "PermData", Value: c.PermData},
		mathx.Field{Name: "CSIEstNoiseStd", Value: c.CSIEstNoiseStd},
		mathx.Field{Name: "StaleDecayPerFrame", Value: c.StaleDecayPerFrame},
		mathx.Field{Name: "Charisma.Alpha", Value: cp.Alpha},
		mathx.Field{Name: "Charisma.BetaV", Value: cp.BetaV},
		mathx.Field{Name: "Charisma.BetaD", Value: cp.BetaD},
		mathx.Field{Name: "Charisma.VoiceOffset", Value: cp.VoiceOffset},
		mathx.Field{Name: "Charisma.LambdaV", Value: cp.LambdaV},
		mathx.Field{Name: "Charisma.LambdaD", Value: cp.LambdaD},
		mathx.Field{Name: "Charisma.FairnessExponent", Value: cp.FairnessExponent},
		mathx.Field{Name: "Charisma.FairnessMemory", Value: cp.FairnessMemory},
	); err != nil {
		return err
	}
	if c.PermVoice <= 0 || c.PermVoice > 1 {
		return fmt.Errorf("mac: voice permission probability %v out of (0,1]", c.PermVoice)
	}
	if c.PermData <= 0 || c.PermData > 1 {
		return fmt.Errorf("mac: data permission probability %v out of (0,1]", c.PermData)
	}
	if c.UseQueue && c.QueueCap <= 0 {
		return fmt.Errorf("mac: queue enabled with cap %d", c.QueueCap)
	}
	if c.CSIValidityFrames < 1 {
		return fmt.Errorf("mac: CSI validity %d frames", c.CSIValidityFrames)
	}
	if c.StaleDecayPerFrame <= 0 || c.StaleDecayPerFrame > 1 {
		return fmt.Errorf("mac: stale decay %v out of (0,1]", c.StaleDecayPerFrame)
	}
	if c.CSIEstNoiseStd < 0 {
		return fmt.Errorf("mac: negative CSI noise %v", c.CSIEstNoiseStd)
	}
	if cp.FairnessExponent < 0 {
		return fmt.Errorf("mac: negative CHARISMA fairness exponent %v", cp.FairnessExponent)
	}
	if cp.FairnessMemory < 0 || cp.FairnessMemory >= 1 {
		return fmt.Errorf("mac: CHARISMA fairness memory %v out of [0,1)", cp.FairnessMemory)
	}
	return nil
}

// Request is a transmission request as the base station sees it: who, what
// service, how many packets, when it was acknowledged, and the pilot CSI
// estimate that arrived with it.
type Request struct {
	St    *Station
	Kind  Kind
	NPkts int
	Born  sim.Time
	Est   channel.Estimate
}

// Protocol is one uplink access control scheme. RunFrame executes a single
// frame — contention, allocation and transmissions — and returns the
// frame's duration (fixed 800 symbols for all protocols except RMAV).
type Protocol interface {
	Name() string
	Init(s *System)
	RunFrame(s *System) sim.Time
}

// Population describes the stations System.Reset builds. Every station
// starts deferred: parked in the idle bucket with no sources and no fading
// process. FirstWake[i] is station i's first source event time (computed
// cheaply at build time, e.g. via the traffic birth probes), or -1 for a
// station that never wakes on its own (an inert multicell clone).
// Materialize builds station i's sources and fading process when that
// wake fires or an observer needs them, and must return objects whose
// state at time zero matches what building them up front would have
// produced — the deferred station then replays its traffic and fading
// exactly as an idle station built up front would have.
type Population struct {
	FirstWake   []sim.Time
	Materialize func(i int) (*traffic.VoiceSource, *traffic.DataSource, *channel.Fading)
}

// System is the per-scenario simulation state shared between the platform
// and the protocol: stations, PHY, clock, metrics, and the BS queue.
type System struct {
	Cfg      Config
	PHY      phy.PHY
	Stations []*Station
	// Rand is the MAC-side randomness: contention coin flips, packet
	// error draws, CSI estimation noise. It is distinct from the channel
	// and traffic streams so every protocol observes identical channel
	// and traffic sample paths.
	Rand *rng.Stream
	M    Metrics

	now      sim.Time
	frameIdx int64
	// windowOpen: Run has opened the measurement window since the rebuild.
	windowOpen bool

	reg registry
	pop *Population
	// stnSlab is the contiguous station storage, kept on the System so
	// Reset can rebuild the population into the same memory (the
	// replication arenas of internal/core and internal/multicell).
	// srcChunks is the matching storage for materialized stations'
	// sources pairs: fixed-capacity chunks allocated on demand (an idle
	// cell pays nothing, a mostly-deferred million-station cell pays per
	// materialized station), rewound and reused by Reset. Chunks never
	// grow, so handed-out *Sources pointers stay valid.
	stnSlab   []Station
	srcChunks [][]Sources
	srcChunk  int

	queue []*Request
	// reqFree recycles retired Request objects: schedulers create a
	// handful per frame, so without pooling they dominate the frame
	// path's allocations. See BorrowRequest/FreeRequest for the
	// ownership rules.
	reqFree []*Request

	// DebugEndFrame, when non-nil, observes every completed frame with
	// the duration the protocol consumed. It is the System's only
	// observer hook, and the flight recorder (internal/trace) its only
	// user; nil unless the recorder is armed, so the frame path pays one
	// predictable branch.
	DebugEndFrame func(dur sim.Time)

	ctr Counters
}

// Counters are a System's registry event counts. Only the goroutine that
// drives the system writes them, with plain adds: no atomics, no
// allocation, no rng draw, so the frame path pays a register add and no
// result byte moves. They are cumulative across Reset: a reused system
// reports totals over every replication it hosted. Read them only once
// the driver has quiesced (between replications, or after Run returns).
type Counters struct {
	WheelArms     uint64 // timers armed on the wheel
	WheelCascades uint64 // level cascades triggered by pointer advance
	WheelWakes    uint64 // stations collected as due and woken
	EpochBumps    uint64 // candidacy-changing Reindex calls (cache invalidations)
	CandHits      uint64 // ForEachCandidate served from the cached scratch
	CandMisses    uint64 // ForEachCandidate rebuilds of the scratch
}

// Obs returns the system's counters. Only the driving goroutine writes
// them; read them only once it has quiesced. They are cumulative across
// Reset.
func (s *System) Obs() *Counters { return &s.ctr }

// Reset (re-)builds s as a cell of n deferred stations: station i is
// parked in the idle bucket with its first wake pop.FirstWake[i] armed in
// the timer wheel, and pop.Materialize builds its sources and fading
// process only when that wake fires or an observer needs them
// (SyncChannel, MaterializeAll). It is the only way to populate a System,
// so every station a System is handed is one it built, and station i's ID
// is its index in Stations and in every slab. An idle cell costs
// O(tens of bytes) per station however heavy the materialized sources
// are, and results equal those of building every station up front,
// because an idle station's sources are untouched until its first wake.
//
// Reset reuses s's previous station slab, registry slabs, timer wheel,
// queue and request free list wherever capacity suffices. Every scalar,
// the metrics and the hooks are re-zeroed, every station struct is
// overwritten whole, and recycled Requests are zeroed on reuse, so a
// rebuilt system behaves as a new one: the replication arenas rebuild
// rep N+1's cells into rep N's memory with near-zero allocations when the
// population size repeats.
func (s *System) Reset(cfg Config, modem phy.PHY, n int, macStream *rng.Stream, pop *Population) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if modem == nil {
		return fmt.Errorf("mac: nil PHY")
	}
	if macStream == nil {
		return fmt.Errorf("mac: nil MAC stream")
	}
	if pop == nil || pop.Materialize == nil {
		return fmt.Errorf("mac: population without a Materialize hook")
	}
	if len(pop.FirstWake) != n {
		return fmt.Errorf("mac: %d first wakes for %d stations", len(pop.FirstWake), n)
	}
	s.Cfg, s.PHY, s.Rand, s.pop = cfg, modem, macStream, pop
	s.M = Metrics{}
	s.now, s.frameIdx, s.windowOpen = 0, 0, false
	s.queue = s.queue[:0]
	s.DebugEndFrame = nil
	s.reg.reset(n, &s.ctr)
	if cap(s.stnSlab) >= n {
		s.stnSlab = s.stnSlab[:n]
	} else {
		s.stnSlab = make([]Station, n)
	}
	for i := range s.srcChunks {
		s.srcChunks[i] = s.srcChunks[i][:0]
	}
	s.srcChunk = 0
	if cap(s.Stations) >= n {
		s.Stations = s.Stations[:n]
	} else {
		s.Stations = make([]*Station, n)
	}
	for i := range s.stnSlab {
		st := &s.stnSlab[i]
		*st = Station{ID: i, flags: flagDeferred | uint8(bucketIdle)}
		s.Stations[i] = st
		s.reg.place(i, bucketIdle)
		// A station that never wakes keeps its -1 in the stamp slab,
		// where nextWake reads a deferred station's first wake.
		fw := pop.FirstWake[i]
		s.reg.stamp[i] = fw
		if fw >= 0 {
			s.reg.wheel.add(int32(i), fw)
		}
	}
	return nil
}

// srcChunkSize is the per-chunk capacity of the sources slab: small
// enough that a lightly populated cell wastes little, big enough that a
// typical cell fits in one or two chunks.
const srcChunkSize = 64

// newSources takes the next row of the chunked sources slab. A chunk is
// append-only up to its fixed capacity and never reallocated, so the
// returned pointer is stable; Reset rewinds the chunks for reuse.
func (s *System) newSources(v *traffic.VoiceSource, d *traffic.DataSource) *Sources {
	if s.srcChunk == len(s.srcChunks) {
		s.srcChunks = append(s.srcChunks, make([]Sources, 0, srcChunkSize))
	}
	c := s.srcChunks[s.srcChunk]
	c = append(c, Sources{Voice: v, Data: d})
	s.srcChunks[s.srcChunk] = c
	if len(c) == srcChunkSize {
		s.srcChunk++
	}
	return &c[len(c)-1]
}

// materialize constructs a deferred station's sources and fading process.
func (s *System) materialize(st *Station) {
	if st.flags&flagDeferred == 0 {
		return
	}
	st.flags &^= flagDeferred
	v, d, fad := s.pop.Materialize(st.ID)
	if v != nil || d != nil {
		st.src = s.newSources(v, d)
	}
	st.fad = fad
}

// MaterializeAll forces construction of every deferred station. External
// drivers that inspect stations directly (tests, diagnostics) call it
// before reading sources or fading state; the frame loop never needs it.
func (s *System) MaterializeAll() {
	for _, st := range s.Stations {
		s.materialize(st)
	}
}

// Now returns the current frame's start time.
func (s *System) Now() sim.Time { return s.now }

// FrameIndex returns the number of completed frames.
func (s *System) FrameIndex() int64 { return s.frameIdx }

// FrameDuration returns the standard fixed frame duration. Reading the
// symbol count directly keeps this an inlinable field load — calling
// Geometry.Duration() would copy the whole struct on a hot path (the
// lazy fading replay pays it per catch-up).
func (s *System) FrameDuration() sim.Time { return sim.Time(s.Cfg.Geometry.FrameSymbols) }

// BeginFrame realizes traffic arrivals, deadline drops, and reservation
// releases at the new frame boundary. Only the active buckets and the idle
// stations whose next source event is due are touched; channel fading is
// replayed lazily per station when it is next observed (see syncChannel),
// so the per-frame cost scales with the active population, not the cell
// size.
func (s *System) BeginFrame() {
	// Idle stations whose talkspurt or data burst starts this frame.
	s.wakeDue()
	// Every already-active station advances each frame, exactly like the
	// legacy full-population loop did. Snapshot first: advancing can move
	// a station between buckets mid-scan.
	snap := s.appendIn(s.reg.frameScratch[:0], maskActive)
	s.reg.frameScratch = snap[:0]
	for _, st := range snap {
		s.advanceTraffic(st)
		s.Reindex(st)
	}
	s.scrubQueue()
	// Fused candidate prepass: seed the contention-candidate cache from
	// the snapshot while its stations are still cache-hot, so the
	// protocol's first ForEachCandidate scan of the frame is free. This is
	// exactly the scan that ForEachCandidate would run: the snapshot is a
	// ID-ordered superset of the contention buckets (wakeDue ran before
	// it was taken, and nothing after can move a station into a contention
	// bucket that was not in an active bucket already), and the Reindex
	// each snapshot station just went through (in the sweep above, or in
	// scrubQueue for released pending stations) left flagCandidate equal
	// to its live candidacy, so filtering the snapshot by that bit
	// reproduces the bitset walk's order and membership without
	// re-evaluating the predicates.
	r := &s.reg
	r.candScratch = r.candScratch[:0]
	for _, st := range snap {
		if st.flags&flagCandidate != 0 {
			r.candScratch = append(r.candScratch, st)
		}
	}
	r.candEpoch = r.epoch
}

// advanceTraffic realizes one station's source events up to now and applies
// the reservation-lapse rule. Advance is idempotent within a frame, so a
// station woken from the idle bucket may safely be visited again by the
// active-bucket pass of the same frame.
func (s *System) advanceTraffic(st *Station) {
	if st.src == nil {
		return
	}
	if v := st.src.Voice; v != nil {
		gen := v.Advance(s.now)
		s.M.VoiceGenerated.Add(uint64(gen))
		dropped := v.DropExpired(s.now)
		s.M.VoiceDropped.Add(uint64(dropped))
		// A reservation lapses once the talkspurt is over and
		// the buffer has drained (by transmission or drop).
		if st.flags&flagReserved != 0 && !v.Talking() && v.Buffered() == 0 {
			st.flags &^= flagReserved
		}
	}
	if d := st.src.Data; d != nil {
		gen := d.Advance(s.now)
		s.M.DataGenerated.Add(uint64(gen))
	}
}

// EndFrame closes the frame: dur is what the protocol consumed.
func (s *System) EndFrame(dur sim.Time) {
	if dur <= 0 {
		panic("mac: protocol returned non-positive frame duration")
	}
	s.M.MeasuredTicks.Add(uint64(dur))
	s.now += dur
	if dur != s.FrameDuration() {
		// Variable-length frame (RMAV): the lazy replay assumes every
		// deferred step is one standard frame, so settle each channel
		// eagerly — replay what is owed at the standard duration, then
		// take this frame's variable-length step. Deferred stations
		// materialize here: their fading process must take the
		// variable-length step like everyone else's.
		for _, st := range s.Stations {
			s.syncChannel(st)
			st.fad.Advance(dur)
			s.reg.chSync[st.ID] = int32(s.frameIdx + 1)
		}
	}
	s.frameIdx++
	if s.DebugEndFrame != nil {
		s.DebugEndFrame(dur)
	}
}

// ctxCheckFrames is how often Run checks its context. Every lane of a
// sweep shares one context, whose Err takes a mutex, so Run does not
// check it every frame.
const ctxCheckFrames = 64

// Run is the frame loop: BeginFrame, p.RunFrame, EndFrame, until the
// first frame that ends at or past until, and always at least one frame.
// It opens the measurement window (M.Mark) before the first frame that
// starts at or after warmup, once per rebuild, so a run split into
// several calls opens it once. It checks ctx before the first frame and
// every ctxCheckFrames frames after, and returns ctx.Err() itself once
// ctx is cancelled. It allocates nothing.
func (s *System) Run(ctx context.Context, p Protocol, warmup, until sim.Time) error {
	for i := 0; ; i++ {
		if i%ctxCheckFrames == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if !s.windowOpen && s.now >= warmup {
			s.M.Mark()
			s.windowOpen = true
		}
		s.BeginFrame()
		s.EndFrame(p.RunFrame(s))
		if s.now >= until {
			return nil
		}
	}
}

// syncChannel replays the per-frame fading steps a station has deferred
// since it was last observed. The replay consumes exactly the draws (same
// count, same step size, same private stream) the legacy every-frame
// advance did, so amplitudes at every observation point are byte-identical
// to the eager schedule regardless of how long the station idled. The
// catch-up is batched over the fading plane (one AdvanceSteps call resolves
// the step coefficients once and keeps the recurrence in registers) rather
// than paying a full Advance per deferred frame.
func (s *System) syncChannel(st *Station) {
	if st.flags&flagDeferred != 0 {
		s.materialize(st)
	}
	if k := s.frameIdx - int64(s.reg.chSync[st.ID]); k > 0 {
		st.fad.AdvanceSteps(s.FrameDuration(), int(k))
		s.reg.chSync[st.ID] = int32(s.frameIdx)
	}
}

// SyncChannel brings a station's fading process up to the state an eager
// per-frame schedule would show at a frame boundary — after the last
// completed frame, before the next frame's advance. External observers of
// the station's fading between frames (the multicell handoff rule,
// diagnostic traces) must call it before reading, since the frame loop
// defers fading work until observation.
func (s *System) SyncChannel(st *Station) {
	if st.flags&flagDeferred != 0 {
		s.materialize(st)
	}
	if k := s.frameIdx - 1 - int64(s.reg.chSync[st.ID]); k > 0 {
		st.fad.AdvanceSteps(s.FrameDuration(), int(k))
		s.reg.chSync[st.ID] = int32(s.frameIdx - 1)
	}
}

// NeedsVoiceRequest reports whether a station should contend for a voice
// grant: it has speech packets buffered, no reservation, and no request
// already queued at the base station.
func (s *System) NeedsVoiceRequest(st *Station) bool {
	return st.src != nil && st.src.Voice != nil && st.src.Voice.Buffered() > 0 &&
		st.flags&(flagReserved|flagPendingAtBS) == 0
}

// NeedsDataRequest reports whether a station should contend for a data
// grant: backlog exists and no request is already queued at the BS. (Data
// reservations are never allowed: "a data request is not allowed to make
// reservation", §4.1.)
func (s *System) NeedsDataRequest(st *Station) bool {
	return st.src != nil && st.src.Data != nil && st.src.Data.Backlog() > 0 &&
		st.flags&flagPendingAtBS == 0
}

// RequestKind classifies what a contending station is asking for. Voice
// takes precedence when a station carries both services.
func (s *System) RequestKind(st *Station) Kind {
	if s.NeedsVoiceRequest(st) {
		return KindVoice
	}
	return KindData
}

// PermissionProb returns the §2 permission probability for a station's
// pending request class.
func (s *System) PermissionProb(st *Station) float64 {
	if s.RequestKind(st) == KindVoice {
		return s.Cfg.PermVoice
	}
	return s.Cfg.PermData
}

// ContendStamped runs one contention minislot over the current contention
// candidates (ForEachCandidate's list, refreshed and counted the same way)
// minus every station whose stampedAt[ID] equals frame — a protocol stamps
// a station's ID with the frame once its request is acknowledged, or once
// it holds a slot that keeps it out of contention. Every candidate left
// transmits its request with its permission probability, in station-ID
// order; the minislot succeeds only if exactly one transmits (no capture
// effect, §2). It returns the winner or nil. It walks the epoch-cached
// list in place, so a minislot copies no per-slot list.
func (s *System) ContendStamped(stampedAt []int64, frame int64) *Station {
	var winner *Station
	transmitted := 0
	for _, st := range s.candidates() {
		if stampedAt[st.ID] == frame {
			continue
		}
		if s.Rand.Bernoulli(s.PermissionProb(st)) {
			transmitted++
			winner = st
		}
	}
	return s.settleMinislot(winner, transmitted)
}

// settleMinislot records a minislot's request attempts and its collision
// or success, and returns the winner of a single-transmission slot.
func (s *System) settleMinislot(winner *Station, transmitted int) *Station {
	if transmitted == 0 {
		return nil
	}
	s.M.ReqAttempts.Add(uint64(transmitted))
	if transmitted > 1 {
		s.M.ReqCollisions.Inc()
		return nil
	}
	s.M.ReqSuccesses.Inc()
	return winner
}

// BorrowRequest returns a zeroed request from the per-system free list
// (allocating only when the list is empty). A request stays live from
// here until it is retired — fully served, rejected by a full or
// disabled queue, or scrubbed — at which point its last holder must hand
// it back through FreeRequest; the BS queue and DRMA's pending list hold
// live requests across frames and retire them on removal. With every
// retirement accounted for, the steady-state frame path allocates no
// request objects at all.
func (s *System) BorrowRequest() *Request {
	if n := len(s.reqFree); n > 0 {
		r := s.reqFree[n-1]
		s.reqFree = s.reqFree[:n-1]
		*r = Request{}
		return r
	}
	return new(Request)
}

// FreeRequest retires a request to the free list. The caller must hold
// the only remaining reference: the next BorrowRequest/NewRequest will
// recycle the object and overwrite it in place.
func (s *System) FreeRequest(r *Request) {
	if r != nil {
		s.reqFree = append(s.reqFree, r)
	}
}

// NewRequest builds a request for a contention winner, measuring CSI from
// the pilot symbols embedded in the request packet (§4.3/§4.4). The
// request comes from the free list; see BorrowRequest for its lifetime.
func (s *System) NewRequest(st *Station, kind Kind) *Request {
	r := s.BorrowRequest()
	r.St, r.Kind, r.Born = st, kind, s.now
	if kind == KindVoice {
		r.NPkts = st.src.Voice.Buffered()
	} else {
		r.NPkts = st.src.Data.Backlog()
	}
	r.Est = s.MeasureEstimate(st)
	return r
}

// MeasureEstimate takes a pilot-symbol CSI measurement of a station's
// channel at the current time, settling any deferred fading steps first.
// All scheduler-side channel observations go through here (or through
// helpers that do), so the lazy replay is invisible to protocols.
func (s *System) MeasureEstimate(st *Station) channel.Estimate {
	s.syncChannel(st)
	return st.fad.MeasureEstimate(s.Cfg.CSIEstNoiseStd, s.Rand, s.now)
}

// EffectiveAmp returns the amplitude the scheduler should assume for an
// estimate at the current time: the measured value geometrically discounted
// per frame of age, so mode selection stays conservative about channel
// drift. A same-frame estimate passes through unchanged; an estimate past
// the paper's two-frame validity window (which also gates CSI-polling
// eligibility) has decayed enough that the scheduler effectively treats the
// user as near the bottom of its adaptation range.
func (s *System) EffectiveAmp(e channel.Estimate) float64 {
	amp := e.Amp
	for age := e.Age(s.now); age > 0; age -= s.FrameDuration() {
		amp *= s.Cfg.StaleDecayPerFrame
	}
	return amp
}

// EstimateStale reports whether an estimate is past the validity window
// (§4.4) and therefore a candidate for CSI polling.
func (s *System) EstimateStale(e channel.Estimate) bool {
	return e.Age(s.now) > sim.Time(s.Cfg.CSIValidityFrames)*s.FrameDuration()
}

// RefreshEstimate re-measures a station's CSI (the CSI-polling mechanism of
// §4.4: the station transmits pilot symbols in its assigned pilot slot).
func (s *System) RefreshEstimate(st *Station) channel.Estimate {
	s.M.CSIPolls.Inc()
	return s.MeasureEstimate(st)
}

// NextVoiceDue returns when a station's reservation next entitles a
// transmission. Meaningful only while the station is Reserved: the
// underlying slab row doubles as the idle wake stamp.
func (s *System) NextVoiceDue(st *Station) sim.Time { return s.reg.stamp[st.ID] }

// VoiceReservationsDue returns stations whose reservation entitles a
// transmission this frame and that actually have speech queued, ordered by
// due time then ID for determinism.
func (s *System) VoiceReservationsDue() []*Station {
	// Reserved stations normally live in the reserved bucket; the
	// talkspurt and pending buckets are included so a reservation
	// installed by an external driver between frames (tests, handoff
	// re-admission) is honoured before the next reindex.
	s.reg.dueScratch = s.reg.dueScratch[:0]
	s.forEachIn(maskReserved|maskTalkspurt|maskPending, func(st *Station) {
		if st.flags&flagReserved == 0 || s.reg.stamp[st.ID] > s.now {
			return
		}
		if st.src.Voice.Buffered() == 0 {
			// Nothing to send this period (packet already dropped);
			// keep the reservation cadence.
			s.AdvanceReservation(st)
			return
		}
		s.reg.dueScratch = append(s.reg.dueScratch, st)
	})
	due := s.reg.dueScratch
	if len(due) > 1 {
		// (due time, ID) is a strict total order, so the sort result is
		// unique and the swap from sort.Slice changed no draws.
		stamp := s.reg.stamp
		slices.SortFunc(due, func(a, b *Station) int {
			if stamp[a.ID] != stamp[b.ID] {
				return cmp.Compare(stamp[a.ID], stamp[b.ID])
			}
			return cmp.Compare(a.ID, b.ID)
		})
	}
	return due
}

// GrantReservation installs a voice reservation starting now.
func (s *System) GrantReservation(st *Station) {
	s.GrantReservationAt(st, s.now+s.Cfg.Geometry.VoicePeriod)
}

// GrantReservationAt installs a voice reservation with an explicit first
// due time (RMAV's persistent slots recur every frame, so it admits with
// due = now rather than one voice period out).
func (s *System) GrantReservationAt(st *Station, due sim.Time) {
	st.flags |= flagReserved
	s.reg.stamp[st.ID] = due
	s.M.ReservationsGranted.Inc()
	s.Reindex(st)
}

// CancelReservation revokes a station's voice reservation (the multicell
// detach path; a lapsing talkspurt clears itself in advanceTraffic).
func (s *System) CancelReservation(st *Station) {
	st.flags &^= flagReserved
	s.Reindex(st)
}

// SetPendingAtBS flips the "request held at the base station" flag and
// re-buckets the station; protocols that track BS-side grants outside the
// request queue (DRMA's dynamic reservations, RMAV's data grant) use it
// instead of writing the flag directly.
func (s *System) SetPendingAtBS(st *Station, pending bool) {
	if pending {
		st.flags |= flagPendingAtBS
	} else {
		st.flags &^= flagPendingAtBS
	}
	s.Reindex(st)
}

// AdvanceReservation moves a reservation to its next period. The cadence
// stays anchored to the original grant (like a PRMA user keeping the same
// slot position every frame cycle): serving a deferred packet late must not
// postpone the following period, or the service rate would fall below the
// 20 ms packet arrival rate and the buffer would bleed deadline drops.
func (s *System) AdvanceReservation(st *Station) {
	period := s.Cfg.Geometry.VoicePeriod
	due := s.reg.stamp[st.ID] + period
	for due <= s.now {
		due += period
	}
	s.reg.stamp[st.ID] = due
}

// TransmitVoice sends up to maxPkts buffered voice packets of st in mode m.
// Voice packets are never retransmitted (they are delay-bound): an error is
// a loss. Returns packets sent OK and in error.
func (s *System) TransmitVoice(st *Station, m phy.Mode, maxPkts int) (ok, errs int) {
	s.syncChannel(st)
	per := s.PHY.PacketErrorProb(m, st.fad.Amplitude())
	v := st.src.Voice
	n := v.Buffered()
	if n > maxPkts {
		n = maxPkts
	}
	for i := 0; i < n; i++ {
		if _, popped := v.Pop(); !popped {
			break
		}
		if s.Rand.Bernoulli(per) {
			errs++
		} else {
			ok++
		}
	}
	s.M.VoiceTxOK.Add(uint64(ok))
	s.M.VoiceTxErr.Add(uint64(errs))
	s.Reindex(st)
	return ok, errs
}

// TransmitData attempts nPkts head-of-line data packets of st in mode m.
// Failed packets remain queued for ARQ; successes record their queueing
// delay. Returns successes and failures.
func (s *System) TransmitData(st *Station, m phy.Mode, nPkts int) (ok, errs int) {
	s.syncChannel(st)
	per := s.PHY.PacketErrorProb(m, st.fad.Amplitude())
	ok, errs = st.src.Data.TransmitAttempts(nPkts, s.now,
		func() bool { return !s.Rand.Bernoulli(per) },
		func(delay sim.Time) { s.M.ObserveDataDelay(delay) },
	)
	s.M.DataDelivered.Add(uint64(ok))
	s.M.DataTxErr.Add(uint64(errs))
	s.Reindex(st)
	return ok, errs
}

// --- base-station request queue (§4.5) ---

// QueueLen returns the number of queued requests.
func (s *System) QueueLen() int { return len(s.queue) }

// Queue returns the live queue slice (owned by the system; protocols may
// reorder it but must use Enqueue/Pop/Take to change membership).
func (s *System) Queue() []*Request { return s.queue }

// Enqueue stores a request that survived contention but got no slots. It
// returns false (and counts a drop) when the queue is full or queueing is
// disabled.
func (s *System) Enqueue(r *Request) bool {
	if !s.Cfg.UseQueue || len(s.queue) >= s.Cfg.QueueCap {
		s.M.QueueRejects.Inc()
		return false
	}
	s.queue = append(s.queue, r)
	s.SetPendingAtBS(r.St, true)
	return true
}

// PopQueueAt removes and returns the i-th queued request.
func (s *System) PopQueueAt(i int) *Request {
	r := s.queue[i]
	s.queue = append(s.queue[:i], s.queue[i+1:]...)
	s.SetPendingAtBS(r.St, false)
	return r
}

// TakeQueue empties the queue and returns its contents, clearing each
// station's pending flag. CHARISMA uses this to rebuild its candidate pool
// every frame. The queue keeps the backing array, so the returned slice is
// valid only until the next Enqueue, PopQueueAt or TakeQueue.
func (s *System) TakeQueue() []*Request {
	q := s.queue
	s.queue = q[:0]
	for _, r := range q {
		s.SetPendingAtBS(r.St, false)
	}
	return q
}

// scrubQueue discards queued requests that can no longer be served: voice
// requests whose packets all expired. ("If the deadline for a remaining
// request has expired, this request will not be queued anymore", §4.3.)
func (s *System) scrubQueue() {
	if len(s.queue) == 0 {
		return
	}
	kept := s.queue[:0]
	for _, r := range s.queue {
		if r.Kind == KindVoice && r.St.Voice().Buffered() == 0 {
			s.SetPendingAtBS(r.St, false)
			s.FreeRequest(r)
			continue
		}
		if r.Kind == KindData && r.St.Data().Backlog() == 0 {
			s.SetPendingAtBS(r.St, false)
			s.FreeRequest(r)
			continue
		}
		kept = append(kept, r)
	}
	s.queue = kept
}
