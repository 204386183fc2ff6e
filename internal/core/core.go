// Package core is the paper's "common simulation platform" (§5): it
// assembles a cell — fading links, physical layer, traffic sources, one of
// the six access control protocols — from a declarative Scenario, steps it
// frame by frame through mac.System.Run, and harvests the paper's metrics
// after a warm-up transient.
//
// All six protocols run against byte-identical channel and traffic sample
// paths for a given seed (common random numbers): per-user streams are
// derived from the scenario seed only, never from protocol identity.
package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"

	"charisma/internal/channel"
	"charisma/internal/mac"
	charismaproto "charisma/internal/mac/charisma"
	"charisma/internal/mac/drma"
	"charisma/internal/mac/dtdma"
	"charisma/internal/mac/rama"
	"charisma/internal/mac/rmav"
	"charisma/internal/mathx"
	"charisma/internal/phy"
	"charisma/internal/rng"
	"charisma/internal/sim"
	"charisma/internal/trace"
	"charisma/internal/traffic"
)

// Protocol names accepted by Scenario.Protocol.
const (
	ProtoCharisma = "charisma"
	ProtoRAMA     = "rama"
	ProtoRMAV     = "rmav"
	ProtoDRMA     = "drma"
	ProtoDTDMAFR  = "d-tdma/fr"
	ProtoDTDMAVR  = "d-tdma/vr"
)

// Protocols lists all six implemented protocols in the paper's order of
// presentation.
func Protocols() []string {
	return []string{ProtoCharisma, ProtoDTDMAVR, ProtoDTDMAFR, ProtoDRMA, ProtoRAMA, ProtoRMAV}
}

// CanonicalProtocol maps a protocol name, or one of its accepted aliases,
// to its Proto* name: case is ignored and surrounding space trimmed. ok is
// false for a name no protocol answers to. It is the one table of
// spellings — NewProtocol, KnownProtocol, AdaptivePHYFor and the multicell
// RMAV rule all read it — and it allocates nothing for a lowercase name.
func CanonicalProtocol(name string) (canon string, ok bool) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case ProtoCharisma:
		return ProtoCharisma, true
	case ProtoRAMA:
		return ProtoRAMA, true
	case ProtoRMAV:
		return ProtoRMAV, true
	case ProtoDRMA:
		return ProtoDRMA, true
	case ProtoDTDMAFR, "dtdma/fr", "d-tdma-fr":
		return ProtoDTDMAFR, true
	case ProtoDTDMAVR, "dtdma/vr", "d-tdma-vr":
		return ProtoDTDMAVR, true
	}
	return "", false
}

// NewProtocol instantiates a protocol by name (any spelling
// CanonicalProtocol accepts).
func NewProtocol(name string) (mac.Protocol, error) {
	canon, _ := CanonicalProtocol(name)
	switch canon {
	case ProtoCharisma:
		return charismaproto.New(), nil
	case ProtoRAMA:
		return rama.New(), nil
	case ProtoRMAV:
		return rmav.New(), nil
	case ProtoDRMA:
		return drma.New(), nil
	case ProtoDTDMAFR:
		return dtdma.New(), nil
	case ProtoDTDMAVR:
		return dtdma.NewVariable(), nil
	}
	return nil, fmt.Errorf("core: unknown protocol %q", name)
}

// KnownProtocol reports whether name (or one of its accepted aliases)
// names an implemented protocol. It is the allocation-free validation
// twin of NewProtocol.
func KnownProtocol(name string) bool {
	_, ok := CanonicalProtocol(name)
	return ok
}

// AdaptivePHYFor reports whether a protocol runs on the channel-adaptive
// physical layer (only CHARISMA and D-TDMA/VR do; §3–§4).
func AdaptivePHYFor(name string) bool {
	canon, _ := CanonicalProtocol(name)
	return canon == ProtoCharisma || canon == ProtoDTDMAVR
}

// Scenario declares one simulation run.
type Scenario struct {
	// Protocol is one of the Proto* names.
	Protocol string
	// NumVoice and NumData are the voice-only and data-only user counts
	// (the paper's Nv and Nd axes).
	NumVoice int
	NumData  int
	// UseQueue enables the base-station request queue (§4.5).
	UseQueue bool
	// Seed determines every random stream of the run.
	Seed int64
	// WarmupSec is excluded from all metrics; DurationSec is the
	// measurement window.
	WarmupSec   float64
	DurationSec float64

	// Channel, PHY and MAC carry the substrate parameters; a block left
	// entirely zero is replaced by its calibrated defaults (WithDefaults).
	Channel channel.Params
	PHY     phy.Params
	MAC     mac.Config

	// SpeedsKmh optionally assigns per-station speeds (the §5.3.3
	// mobility experiment); when set it must cover NumVoice+NumData
	// stations.
	SpeedsKmh []float64
}

// DefaultScenario returns a ready-to-run scenario for the named protocol
// with the calibrated Table 1 defaults: 60 s measured after 2 s warm-up.
func DefaultScenario(protocol string) Scenario {
	return Scenario{
		Protocol:    protocol,
		NumVoice:    50,
		NumData:     0,
		Seed:        1,
		WarmupSec:   2,
		DurationSec: 60,
		Channel:     channel.DefaultParams(),
		PHY:         phy.DefaultParams(),
		MAC:         mac.DefaultConfig(),
	}
}

// WithDefaults returns the scenario with every all-zero substrate block
// and every unset window replaced by its calibrated default — exactly the
// normalization Build and Run apply before validating. A block is
// replaced whole or not at all: a partly set one is kept as given, so
// Validate rejects it instead of a run silently ignoring its knobs.
// External loaders (the grid's scenario files) use it to validate a
// scenario as it will actually run.
func (sc Scenario) WithDefaults() Scenario {
	if sc.Channel == (channel.Params{}) {
		sc.Channel = channel.DefaultParams()
	}
	if phyUnset(sc.PHY) {
		sc.PHY = phy.DefaultParams()
	}
	if sc.MAC == (mac.Config{}) {
		sc.MAC = mac.DefaultConfig()
	}
	sc.MAC.UseQueue = sc.UseQueue
	if sc.WarmupSec <= 0 {
		sc.WarmupSec = 2
	}
	if sc.DurationSec <= 0 {
		sc.DurationSec = 30
	}
	return sc
}

// ValidationError is the typed rejection every Scenario.Validate path
// returns: Field names the offending scenario field, Reason says why it
// was rejected. Callers dispatch with errors.As instead of matching
// message strings.
type ValidationError struct {
	Field  string
	Reason string
}

func (e *ValidationError) Error() string {
	return fmt.Sprintf("core: invalid %s: %s", e.Field, e.Reason)
}

// Validate reports scenario configuration errors. Every rejection is a
// *ValidationError; substrate rejections (Channel/PHY/MAC) are wrapped
// with the owning field name.
func (sc Scenario) Validate() error {
	if sc.NumVoice < 0 {
		return &ValidationError{Field: "NumVoice", Reason: fmt.Sprintf("negative station count %d", sc.NumVoice)}
	}
	if sc.NumData < 0 {
		return &ValidationError{Field: "NumData", Reason: fmt.Sprintf("negative station count %d", sc.NumData)}
	}
	if sc.NumVoice+sc.NumData == 0 {
		return &ValidationError{Field: "NumVoice+NumData", Reason: "empty traffic mix: no stations"}
	}
	if !KnownProtocol(sc.Protocol) {
		return &ValidationError{Field: "Protocol", Reason: fmt.Sprintf("unknown protocol %q", sc.Protocol)}
	}
	if f, bad := mathx.FirstNonFinite(
		mathx.Field{Name: "WarmupSec", Value: sc.WarmupSec},
		mathx.Field{Name: "DurationSec", Value: sc.DurationSec},
	); bad {
		return &ValidationError{Field: f.Name, Reason: fmt.Sprintf("%v, want a finite value", f.Value)}
	}
	// The run ends at tick FromSeconds(WarmupSec) + FromSeconds(DurationSec)
	// of the int64 clock (a value ≤ 0 selects a default, see WithDefaults).
	w, d := math.Max(sc.WarmupSec, 0)*float64(sim.Second), math.Max(sc.DurationSec, 0)*float64(sim.Second)
	if w >= 1<<63 {
		return &ValidationError{Field: "WarmupSec", Reason: fmt.Sprintf("%v s overflows the simulation clock", sc.WarmupSec)}
	}
	if d >= 1<<63 || sim.Time(d) > math.MaxInt64-sim.Time(w) {
		return &ValidationError{Field: "DurationSec", Reason: fmt.Sprintf("%v s after a %v s warm-up overflows the simulation clock", sc.DurationSec, sc.WarmupSec)}
	}
	if err := sc.Channel.Validate(); err != nil {
		return &ValidationError{Field: "Channel", Reason: err.Error()}
	}
	if err := sc.PHY.Validate(); err != nil {
		return blockError("PHY", len(sc.PHY.Etas) == 0 && !phyUnset(sc.PHY), err)
	}
	if err := sc.MAC.Validate(); err != nil {
		return blockError("MAC", sc.MAC.Geometry.FrameSymbols == 0 && sc.MAC != (mac.Config{}), err)
	}
	if n := sc.NumVoice + sc.NumData; len(sc.SpeedsKmh) > 0 && len(sc.SpeedsKmh) != n {
		return &ValidationError{Field: "SpeedsKmh", Reason: fmt.Sprintf("%d speeds for %d stations", len(sc.SpeedsKmh), n)}
	}
	for i, v := range sc.SpeedsKmh {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return &ValidationError{Field: "SpeedsKmh", Reason: fmt.Sprintf("station %d speed %v", i, v)}
		}
	}
	return nil
}

// phyUnset reports an all-zero PHY block, the one WithDefaults fills.
func phyUnset(p phy.Params) bool {
	return p.MeanSNRdB == 0 && p.TargetBER == 0 && p.FixedThresholdDB == 0 &&
		p.CSIMargin == 0 && len(p.Etas) == 0 && len(p.ThresholdsDB) == 0
}

// blockError wraps a substrate block's rejection with the block's field
// name. partial marks a set block that lacks its modes (PHY) or frame
// geometry (MAC), almost always one meant to tweak the defaults.
func blockError(field string, partial bool, err error) error {
	reason := err.Error()
	if partial {
		reason = "block only partly set (give every field, or omit the block for the calibrated defaults): " + reason
	}
	return &ValidationError{Field: field, Reason: reason}
}

// NewModem builds the physical layer a protocol runs on: the
// channel-adaptive modem for CHARISMA and D-TDMA/VR, the fixed-rate
// encoder for the rest (see AdaptivePHYFor).
func NewModem(protocol string, p phy.Params) phy.PHY {
	if AdaptivePHYFor(protocol) {
		return phy.NewAdaptive(p)
	}
	return phy.NewFixed(p)
}

// CellParts is what a replication arena keeps of one cell's MAC between
// replications: the modem it last built, with the inputs it was built
// from, and one protocol instance per canonical name. A single-cell run
// (Scenario.Run) and every cell of a multicell deployment rebuild through
// it, so a sweep's replications reuse the modem's mode tables and each
// protocol's scratch and memos. A protocol is re-Init'ed for every
// replication, and its memos are keyed by the inputs they depend on, so a
// reused instance behaves as a new one.
type CellParts struct {
	modem phy.PHY
	// modemParams holds defensive clones of the slice fields, so a caller
	// mutating its own phy.Params in place between runs is detected as a
	// change.
	modemParams phy.Params
	protos      map[string]mac.Protocol
}

// Modem returns the cached modem when the adaptivity class and PHY
// parameters are unchanged, else builds (and caches) a fresh one.
func (c *CellParts) Modem(protocol string, p phy.Params) phy.PHY {
	if c.modem == nil || c.modem.Adaptive() != AdaptivePHYFor(protocol) || !phyParamsEqual(p, c.modemParams) {
		c.modem = NewModem(protocol, p)
		c.modemParams = p
		c.modemParams.Etas = slices.Clone(p.Etas)
		c.modemParams.ThresholdsDB = slices.Clone(p.ThresholdsDB)
	}
	return c.modem
}

// Protocol returns the cell's instance of the named protocol (any
// accepted spelling), building it on first use.
func (c *CellParts) Protocol(name string) (mac.Protocol, error) {
	canon, ok := CanonicalProtocol(name)
	if !ok {
		return nil, fmt.Errorf("core: unknown protocol %q", name)
	}
	if p := c.protos[canon]; p != nil {
		return p, nil
	}
	p, err := NewProtocol(canon)
	if err != nil {
		return nil, err
	}
	if c.protos == nil {
		c.protos = make(map[string]mac.Protocol)
	}
	c.protos[canon] = p
	return p, nil
}

// runArena owns every allocation a scenario run can recycle across
// replications: the lazy system (station/registry/request slabs), the
// channel slab, per-slot RNG streams and traffic sources, and the cell's
// modem and protocols (CellParts). Scenario.Run borrows an arena from a
// sync.Pool, rebuilds the cell into it, and returns it — so a parameter
// sweep's rep N+1 reuses rep N's memory with near-zero fresh
// allocations. Reuse is byte-identity-safe because every component
// re-initializes completely: mac.ResetLazy (which also closes the
// measurement window), channel.Slab.Reset + initUser, Stream.Reseed
// (pinned equal to a fresh New by TestReseedMatchesNew), and the traffic
// Reset constructors reproduce the fresh draw sequences exactly.
type runArena struct {
	probe     *rng.Stream
	macStream *rng.Stream
	firstWake []sim.Time
	pop       mac.LazyPopulation
	sys       *mac.System
	slab      *channel.Slab
	parts     CellParts

	// Per-slot cached streams and source objects (index = station slot).
	// A stream is re-seeded at materialization time, so only stations
	// that actually wake in a replication pay for it.
	chStreams []*rng.Stream
	vStreams  []*rng.Stream
	dStreams  []*rng.Stream
	vSrcs     []*traffic.VoiceSource
	dSrcs     []*traffic.DataSource

	// Materialization inputs, rebound by buildIn for each replication.
	seed     int64
	numVoice int
	chp      channel.Params
	speeds   []float64
	vp       traffic.VoiceParams
	dp       traffic.DataParams
}

func newRunArena() *runArena {
	a := &runArena{
		probe: rng.New(0),
		slab:  channel.NewSlab(),
	}
	a.pop.Materialize = a.materialize
	return a
}

var arenaPool = sync.Pool{New: func() any { return newRunArena() }}

// stream returns the cached per-slot stream, re-seeded exactly as
// rng.DeriveIndexed(a.seed, label, i) would seed a fresh one.
func (a *runArena) stream(pool []*rng.Stream, label string, i int) *rng.Stream {
	pool[i] = rng.Renew(pool[i], rng.SeedForIndexed(a.seed, label, i))
	return pool[i]
}

// materialize is the arena's mac.LazyPopulation hook: identical draws to
// the fresh-build path (stream seeded from (seed, label, i), then the
// source/fading constructor draws), but into recycled objects.
func (a *runArena) materialize(i int) (*traffic.VoiceSource, *traffic.DataSource, *channel.Fading) {
	p := a.chp
	if len(a.speeds) > 0 {
		// Per-station speed (the §5.3.3 mobility experiment), Doppler
		// re-derived from it.
		p.SpeedKmh = a.speeds[i]
		p.DopplerHz = 0
	}
	fad := a.slab.New(p, a.stream(a.chStreams, "chan", i))
	if i < a.numVoice {
		v := a.vSrcs[i]
		if v == nil {
			v = &traffic.VoiceSource{}
			a.vSrcs[i] = v
		}
		v.Reset(a.vp, a.stream(a.vStreams, "voice", i), 0)
		return v, nil, fad
	}
	d := a.dSrcs[i]
	if d == nil {
		d = &traffic.DataSource{}
		a.dSrcs[i] = d
	}
	d.Reset(a.dp, a.stream(a.dStreams, "data", i), 0)
	return nil, d, fad
}

// growStreams resizes a per-slot cache to n entries, keeping every
// already-built stream in the surviving prefix.
func growStreams(s []*rng.Stream, n int) []*rng.Stream {
	if cap(s) >= n {
		return s[:n]
	}
	out := make([]*rng.Stream, n)
	copy(out, s[:cap(s)])
	return out
}

func phyParamsEqual(a, b phy.Params) bool {
	return a.MeanSNRdB == b.MeanSNRdB && a.TargetBER == b.TargetBER &&
		a.FixedThresholdDB == b.FixedThresholdDB && a.CSIMargin == b.CSIMargin &&
		slices.Equal(a.Etas, b.Etas) && slices.Equal(a.ThresholdsDB, b.ThresholdsDB)
}

// Build assembles the system and protocol without running them (exposed
// for tests and custom drivers, which Init the protocol and step it with
// System.Run). Each call uses a private arena, so the returned system
// shares no state with pooled Run executions or other Build results.
func (sc Scenario) Build() (*mac.System, mac.Protocol, error) {
	return sc.buildIn(newRunArena())
}

// buildIn assembles the scenario's system and protocol into the arena,
// reusing whatever the arena already holds.
func (sc Scenario) buildIn(a *runArena) (*mac.System, mac.Protocol, error) {
	sc = sc.WithDefaults()
	if err := sc.Validate(); err != nil {
		return nil, nil, err
	}
	proto, err := a.parts.Protocol(sc.Protocol)
	if err != nil {
		return nil, nil, err
	}
	modem := a.parts.Modem(sc.Protocol, sc.PHY)

	// The population is built lazily: stations are deferred until their
	// first source event, so instantiating a 10⁶-station cell costs one
	// Station slab plus the registry slabs, not 10⁶ traffic sources and
	// fading states. First wakes come from the traffic birth probes on a
	// throwaway stream reseeded per station; materialization later draws
	// from a fresh-seeded stream with the same derived seed, so the
	// sources (and every downstream draw) are byte-identical to an eager
	// build. The per-station fading processes are slab rows, each on its
	// own stream ("chan"/i) and advanced per row, so the sample paths
	// match an eager build too.
	n := sc.NumVoice + sc.NumData
	a.seed, a.numVoice = sc.Seed, sc.NumVoice
	a.chp, a.speeds = sc.Channel, sc.SpeedsKmh
	a.vp = traffic.DefaultVoiceParams()
	a.dp = traffic.DefaultDataParams()
	if cap(a.firstWake) >= n {
		a.firstWake = a.firstWake[:n]
	} else {
		a.firstWake = make([]sim.Time, n)
	}
	for i := 0; i < n; i++ {
		if i < sc.NumVoice {
			a.probe.Reseed(rng.SeedForIndexed(sc.Seed, "voice", i))
			a.firstWake[i] = traffic.ProbeVoiceBirth(a.vp, a.probe, 0)
		} else {
			a.probe.Reseed(rng.SeedForIndexed(sc.Seed, "data", i))
			a.firstWake[i] = traffic.ProbeDataBirth(a.dp, a.probe, 0)
		}
	}
	a.chStreams = growStreams(a.chStreams, n)
	a.vStreams = growStreams(a.vStreams, n)
	a.dStreams = growStreams(a.dStreams, n)
	if cap(a.vSrcs) >= n {
		a.vSrcs = a.vSrcs[:n]
	} else {
		out := make([]*traffic.VoiceSource, n)
		copy(out, a.vSrcs[:cap(a.vSrcs)])
		a.vSrcs = out
	}
	if cap(a.dSrcs) >= n {
		a.dSrcs = a.dSrcs[:n]
	} else {
		out := make([]*traffic.DataSource, n)
		copy(out, a.dSrcs[:cap(a.dSrcs)])
		a.dSrcs = out
	}
	a.slab.Reset()
	a.pop.FirstWake = a.firstWake

	a.macStream = rng.Renew(a.macStream, rng.SeedFor(sc.Seed, "mac", sc.Protocol))
	if a.sys == nil {
		sys, err := mac.NewSystemLazy(sc.MAC, modem, n, a.macStream, &a.pop)
		if err != nil {
			return nil, nil, err
		}
		a.sys = sys
	} else if err := a.sys.ResetLazy(sc.MAC, modem, n, a.macStream, &a.pop); err != nil {
		return nil, nil, err
	}
	return a.sys, proto, nil
}

// Run executes the scenario and returns the measured metrics. The run
// borrows a replication arena from a process-wide pool, so consecutive
// runs (a sweep's replications) recycle their predecessors' allocations.
// A cancelled ctx stops the run within System.Run's check interval and
// returns ctx.Err().
func (sc Scenario) Run(ctx context.Context) (mac.Result, error) {
	a := arenaPool.Get().(*runArena)
	res, err := sc.runIn(ctx, a)
	arenaPool.Put(a)
	return res, err
}

func (sc Scenario) runIn(ctx context.Context, a *runArena) (mac.Result, error) {
	sc = sc.WithDefaults()
	sys, proto, err := sc.buildIn(a)
	if err != nil {
		return mac.Result{}, err
	}
	warmup := sim.FromSeconds(sc.WarmupSec)
	proto.Init(sys)
	if fl := AttachFlight(sys, sc.Protocol, sc.Seed, -1); fl != nil {
		defer fl.Close()
		defer trace.DumpOnPanic(fl)
	}
	if err := sys.Run(ctx, proto, warmup, warmup+sim.FromSeconds(sc.DurationSec)); err != nil {
		return mac.Result{}, err
	}
	return sys.M.Result(proto.Name(), sys.Cfg.Geometry.FrameSymbols), nil
}

// AttachFlight attaches the armed flight recorder (trace.ArmFlight) to
// sys and returns it; nil, at the cost of one check, when the recorder is
// disarmed. Scenario.Run and every multicell cell attach through it. The
// dump labels the ring with the protocol and seed, and with the cell's
// index when cell is not negative. The caller Closes the recorder when
// its run ends and defers trace.DumpOnPanic around the frame loop.
func AttachFlight(sys *mac.System, protocol string, seed int64, cell int) *trace.Flight {
	frames, _ := trace.FlightArmed()
	if frames <= 0 {
		return nil
	}
	label := fmt.Sprintf("%s seed=%d", protocol, seed)
	if cell >= 0 {
		label += fmt.Sprintf(" cell=%d", cell)
	}
	return trace.AttachFlight(sys, frames, label)
}
