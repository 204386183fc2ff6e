// Package multicell implements the paper's second future-work item (§6):
// coordinating CHARISMA-style cells so that a nomadic user attaches to the
// base station that is best "from a channel quality point of view".
//
// Each user maintains an independent composite fading process toward every
// base station (different paths, different terrain, hence independent
// shadowing). Every decision period the deployment re-evaluates
// attachments: a user hands off when another base station's local-mean
// (long-term) amplitude exceeds its current one by a hysteresis margin —
// the classical shadowing-driven handoff rule. A handoff is not free: the
// user loses its reservation and any queued requests and must re-enter the
// new cell through the request contention phase.
//
// The implementation keeps one station *clone* per (user, cell). Exactly
// one clone — the attached one — carries the user's live traffic sources;
// the others are inert but keep their channel processes advancing, so
// every link's sample path is time-consistent when the handoff rule
// consults it.
//
// Run rebuilds each replication into a deployment a previous run left,
// as core.Scenario.Run does for a single cell: users, clones, fading
// slabs, streams, traffic sources, systems and protocols are all reused,
// and every one is re-initialized whole, so a rebuilt deployment is built
// in the same order from the same seeds as a new one and runs the same
// draws.
package multicell

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strconv"

	"charisma/internal/channel"
	"charisma/internal/core"
	"charisma/internal/mac"
	"charisma/internal/phy"
	"charisma/internal/rng"
	"charisma/internal/run"
	"charisma/internal/sim"
	"charisma/internal/stats"
	"charisma/internal/trace"
	"charisma/internal/traffic"
)

// Params configures a multi-cell deployment.
type Params struct {
	// Cells is the number of base stations (≥ 2).
	Cells int
	// Protocol is the per-cell uplink MAC (any fixed-frame protocol;
	// RMAV's variable frames cannot be cell-synchronized and are
	// rejected).
	Protocol string
	// NumVoice and NumData are deployment-wide user counts.
	NumVoice int
	NumData  int
	// UseQueue enables the per-cell BS request queue.
	UseQueue bool
	// HysteresisDB is the long-term-CSI advantage (amplitude dB) a
	// neighbour cell must show before a handoff triggers.
	HysteresisDB float64
	// DecisionPeriodFrames is how often attachments are re-evaluated.
	DecisionPeriodFrames int
	// DisableHandoff freezes the initial attachment (the baseline the
	// channel-quality rule is measured against).
	DisableHandoff bool
	// Workers bounds the goroutines advancing cells concurrently between
	// handoff decision epochs; values below 1 mean GOMAXPROCS. Results
	// are byte-identical for any worker count: cells only couple at
	// decision boundaries, where the deployment synchronizes.
	Workers int
	// Seed drives all randomness.
	Seed int64
	// WarmupSec / DurationSec bracket the measurement window.
	WarmupSec   float64
	DurationSec float64

	// Channel, PHY and MAC default and validate like core.Scenario's.
	Channel channel.Params
	PHY     phy.Params
	MAC     mac.Config
}

// DefaultParams returns a two-cell deployment with a 4 dB hysteresis and
// 100 ms decision period.
func DefaultParams() Params {
	return Params{
		Cells:                2,
		Protocol:             core.ProtoCharisma,
		NumVoice:             60,
		HysteresisDB:         4,
		DecisionPeriodFrames: 40,
		Seed:                 1,
		WarmupSec:            2,
		DurationSec:          20,
		Channel:              channel.DefaultParams(),
		PHY:                  phy.DefaultParams(),
		MAC:                  mac.DefaultConfig(),
	}
}

// cell is the single-cell view of the deployment: the fields
// core.Scenario owns, so one normalizer and one validator serve both
// spec kinds.
func (p Params) cell() core.Scenario {
	return core.Scenario{
		Protocol: p.Protocol, NumVoice: p.NumVoice, NumData: p.NumData, UseQueue: p.UseQueue,
		Seed: p.Seed, WarmupSec: p.WarmupSec, DurationSec: p.DurationSec,
		Channel: p.Channel, PHY: p.PHY, MAC: p.MAC,
	}
}

// WithDefaults returns the params as New runs them: a 20 s measurement
// window when none is set, then core.Scenario's defaults for the warm-up
// and the substrate blocks (an all-zero block is replaced whole, a partly
// set one is kept for Validate to reject). External loaders (the grid's
// scenario files) use it to validate a deployment as it will actually
// run.
func (p Params) WithDefaults() Params {
	if p.DurationSec <= 0 {
		p.DurationSec = 20
	}
	c := p.cell().WithDefaults()
	p.Channel, p.PHY, p.MAC, p.WarmupSec = c.Channel, c.PHY, c.MAC, c.WarmupSec
	return p
}

// Validate reports configuration errors, each a *core.ValidationError
// naming the offending field: the deployment's own knobs first, then
// every cell rule of core.Scenario.Validate, then the fixed-frame rule.
func (p Params) Validate() error {
	invalid := func(field, reason string, args ...any) error {
		return &core.ValidationError{Field: field, Reason: fmt.Sprintf(reason, args...)}
	}
	if p.Cells < 2 {
		return invalid("Cells", "need at least 2 cells, got %d", p.Cells)
	}
	if p.DecisionPeriodFrames < 1 {
		return invalid("DecisionPeriodFrames", "decision period %d frames", p.DecisionPeriodFrames)
	}
	if h := p.HysteresisDB; math.IsNaN(h) || math.IsInf(h, 0) || h < 0 {
		return invalid("HysteresisDB", "%v, want a finite value ≥ 0", h)
	}
	if err := p.cell().Validate(); err != nil {
		return err
	}
	if canon, _ := core.CanonicalProtocol(p.Protocol); canon == core.ProtoRMAV {
		return invalid("Protocol", "RMAV's variable frames cannot be cell-synchronized")
	}
	return nil
}

// user is one nomadic terminal: its traffic source, the stream that
// source draws from, and the cell whose clone carries it. src is the pair
// the attached clone points at.
type user struct {
	src    mac.Sources
	voice  traffic.VoiceSource
	data   traffic.DataSource
	stream *rng.Stream
	cell   int
}

// cell is one base station: its system, its protocol and the modem and
// protocol instances it keeps (parts), and its links. Clone k is user k's
// station in this cell; its fading process is a slab row on its own
// stream chStreams[k].
type cell struct {
	sys       *mac.System
	proto     mac.Protocol
	parts     core.CellParts
	macStream *rng.Stream
	slab      *channel.Slab
	clones    []mac.Station
	stations  []*mac.Station // the system's table: &clones[k]
	chStreams []*rng.Stream
}

// Deployment is a running multi-cell simulation.
type Deployment struct {
	p     Params
	users []user
	cells []cell

	handoffs uint64
	now      sim.Time

	dbScratch []float64       // per-decision clone dB cache (one entry per cell)
	flights   []*trace.Flight // each cell's flight recorder while an armed Run runs
}

// New assembles a deployment the caller owns.
func New(p Params) (*Deployment, error) {
	d := &Deployment{}
	if err := d.build(p); err != nil {
		return nil, err
	}
	return d, nil
}

// build assembles the deployment for p into d, reusing whatever d holds
// from an earlier build. Every stream is reseeded and every station,
// source, slab, system and protocol re-initialized, so the result does
// not depend on what d held.
func (d *Deployment) build(p Params) error {
	p = p.WithDefaults()
	if err := p.Validate(); err != nil {
		return err
	}
	n := p.NumVoice + p.NumData
	d.p = p
	d.handoffs, d.now = 0, 0
	d.users = resize(d.users, n)
	d.cells = resize(d.cells, p.Cells)
	d.dbScratch = resize(d.dbScratch, p.Cells)
	for c := range d.cells {
		cl := &d.cells[c]
		if cl.slab == nil {
			cl.slab = channel.NewSlab()
		}
		cl.slab.Reset()
		cl.clones = resize(cl.clones, n)
		cl.stations = resize(cl.stations, n)
		cl.chStreams = resize(cl.chStreams, n)
	}
	// Each cell keeps its links on one slab: clone k of cell c is a slab
	// row on its own stream, derived from (seed, "mc-chan", c, k), so a
	// link's sample path does not depend on the order the rows are built.
	// Clones carry cell-local dense IDs.
	vp, dp := traffic.DefaultVoiceParams(), traffic.DefaultDataParams()
	for k := range d.users {
		u := &d.users[k]
		if k < p.NumVoice {
			u.stream = rng.Renew(u.stream, rng.SeedForIndexed(p.Seed, "mc-voice", k))
			u.voice.Reset(vp, u.stream, 0)
			u.src = mac.Sources{Voice: &u.voice}
		} else {
			u.stream = rng.Renew(u.stream, rng.SeedForIndexed(p.Seed, "mc-data", k))
			u.data.Reset(dp, u.stream, 0)
			u.src = mac.Sources{Data: &u.data}
		}
		bestCell, bestDB := 0, -1e18
		for c := range d.cells {
			cl := &d.cells[c]
			cl.chStreams[k] = rng.Renew(cl.chStreams[k], rng.SeedForIndexed(p.Seed, "mc-chan", c, k))
			fad := cl.slab.New(p.Channel, cl.chStreams[k])
			st := &cl.clones[k]
			st.Reset(k, fad)
			cl.stations[k] = st
			if db := fad.LongTermDB(); db > bestDB {
				bestCell, bestDB = c, db
			}
		}
		d.attach(k, bestCell)
	}

	for c := range d.cells {
		cl := &d.cells[c]
		cl.macStream = rng.Renew(cl.macStream, rng.SeedFor(p.Seed, "mc-mac", strconv.Itoa(c), p.Protocol))
		if cl.sys == nil {
			cl.sys = &mac.System{}
		}
		if err := cl.sys.Reset(p.MAC, cl.parts.Modem(p.Protocol, p.PHY), cl.stations, cl.macStream); err != nil {
			return err
		}
		proto, err := cl.parts.Protocol(p.Protocol)
		if err != nil {
			return err
		}
		proto.Init(cl.sys)
		cl.proto = proto
	}
	return nil
}

// resize returns s with length n, keeping every element it held up to its
// capacity: a slot of an earlier, larger build keeps its warm memory.
func resize[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s[:n]
	}
	return append(s[:cap(s)], make([]T, n-cap(s))...)
}

// attach points user k's clone in cell c at the user's live traffic
// sources.
func (d *Deployment) attach(k, c int) {
	u := &d.users[k]
	d.cells[c].clones[k].SetTraffic(&u.src)
	u.cell = c
}

// detach makes user k's clone in cell c inert and clears its MAC state in
// the cell.
func (d *Deployment) detach(k, c int) {
	st := &d.cells[c].clones[k]
	st.SetTraffic(nil)
	sys := d.cells[c].sys
	// Purge any queued request referencing the departing station.
	for i := 0; i < sys.QueueLen(); {
		if sys.Queue()[i].St == st {
			sys.PopQueueAt(i)
			continue
		}
		i++
	}
	sys.SetPendingAtBS(st, false)
	sys.CancelReservation(st)
}

// Handoffs returns the number of executed handoffs.
func (d *Deployment) Handoffs() uint64 { return d.handoffs }

// decide re-evaluates every user's attachment. Each clone's long-term dB
// is computed exactly once per decision (settling its lazily-deferred
// fading first) and reused for the best-cell comparison.
func (d *Deployment) decide() {
	if d.p.DisableHandoff {
		return
	}
	dbs := d.dbScratch
	for k := range d.users {
		u := &d.users[k]
		for c := range d.cells {
			cl := &d.cells[c]
			st := &cl.clones[k]
			cl.sys.SyncChannel(st)
			dbs[c] = st.Fading().LongTermDB()
		}
		curDB := dbs[u.cell]
		best, bestDB := u.cell, curDB
		for c, db := range dbs {
			if db > bestDB {
				best, bestDB = c, db
			}
		}
		if best != u.cell && bestDB-curDB >= d.p.HysteresisDB {
			d.detach(k, u.cell)
			d.attach(k, best)
			d.cells[best].sys.Reindex(&d.cells[best].clones[k])
			d.handoffs++
		}
	}
}

// Result aggregates the per-cell measurement windows into deployment-wide
// metrics plus the handoff count.
type Result struct {
	mac.Result
	Handoffs uint64
	PerCell  []mac.Result
}

// Run executes the deployment and returns aggregated metrics.
//
// The deployment is sharded: each cell runs the frame loop,
// mac.System.Run, on its own goroutine (bounded by Params.Workers) up to
// the next handoff decision epoch — every DecisionPeriodFrames frames —
// where the cells synchronize. Between epochs the cells are fully
// independent (per-cell MAC streams, per-clone fading streams, and
// traffic sources owned by exactly one attached clone), so the result is
// byte-identical to sequential execution for any worker count;
// parallelism is purely a throughput knob. A cancelled ctx stops every
// cell, and Run returns ctx.Err(). An armed flight recorder gives each
// cell its own ring, labelled with the cell's index.
func (d *Deployment) Run(ctx context.Context) (Result, error) {
	frameDur := d.p.MAC.Geometry.Duration()
	warmup := sim.FromSeconds(d.p.WarmupSec)
	limit := warmup + sim.FromSeconds(d.p.DurationSec)
	for c := range d.cells {
		if fl := core.AttachFlight(d.cells[c].sys, d.p.Protocol, d.p.Seed, c); fl != nil {
			d.flights = append(d.flights, fl)
		}
	}
	if len(d.flights) > 0 {
		defer d.closeFlights()
	}
	frame := 0
	for d.now < limit {
		// Frames until the next decision boundary, capped at the horizon.
		k := d.p.DecisionPeriodFrames - frame%d.p.DecisionPeriodFrames
		if remaining := int((limit - d.now + frameDur - 1) / frameDur); k > remaining {
			k = remaining
		}
		until := d.now + sim.Time(k)*frameDur
		if err := d.advance(ctx, warmup, until); err != nil {
			return Result{}, err
		}
		frame += k
		d.now = until
		if d.now < limit && frame%d.p.DecisionPeriodFrames == 0 {
			d.decide()
		}
	}

	var agg Result
	agg.Protocol = d.p.Protocol
	agg.Handoffs = d.handoffs
	var delaySum float64
	minSet := false
	agg.PerCell = make([]mac.Result, 0, len(d.cells))
	for c := range d.cells {
		r := d.cells[c].sys.M.Result(d.p.Protocol, d.p.MAC.Geometry.FrameSymbols)
		agg.PerCell = append(agg.PerCell, r)
		if r.MaxDataDelaySec > agg.MaxDataDelaySec {
			agg.MaxDataDelaySec = r.MaxDataDelaySec
		}
		// Only cells that delivered data carry a meaningful minimum.
		if r.DataDelivered > 0 && (!minSet || r.MinDataDelaySec < agg.MinDataDelaySec) {
			agg.MinDataDelaySec = r.MinDataDelaySec
			minSet = true
		}
		agg.Frames += r.Frames
		agg.VoiceGenerated += r.VoiceGenerated
		agg.VoiceDropped += r.VoiceDropped
		agg.VoiceErrored += r.VoiceErrored
		agg.VoiceDelivered += r.VoiceDelivered
		agg.DataGenerated += r.DataGenerated
		agg.DataDelivered += r.DataDelivered
		agg.DataErrored += r.DataErrored
		agg.ReqAttempts += r.ReqAttempts
		agg.ReqCollisions += r.ReqCollisions
		agg.ReqSuccesses += r.ReqSuccesses
		delaySum += r.MeanDataDelaySec * float64(r.DataDelivered)
	}
	if agg.VoiceGenerated > 0 {
		agg.VoiceLossRate = float64(agg.VoiceDropped+agg.VoiceErrored) / float64(agg.VoiceGenerated)
		agg.VoiceDropRate = float64(agg.VoiceDropped) / float64(agg.VoiceGenerated)
		agg.VoiceErrorRate = float64(agg.VoiceErrored) / float64(agg.VoiceGenerated)
	}
	if agg.Frames > 0 {
		// Frames summed across cells; throughput is per cell-frame.
		agg.DataThroughputPerFrame = float64(agg.DataDelivered) / (agg.Frames / float64(len(d.cells)))
	}
	if agg.DataDelivered > 0 {
		agg.MeanDataDelaySec = delaySum / float64(agg.DataDelivered)
	}
	agg.CollisionRate = stats.Ratio(agg.ReqCollisions, agg.ReqCollisions+agg.ReqSuccesses)
	// Reps is deliberately left zero: a single deployment run is not a
	// replication pool, and the replication metadata flows only from the
	// aggregation layer (RunReplicated).
	return agg, nil
}

// advance runs every cell up to until: in turn on the calling goroutine
// when Workers is 1, else on run.Map's goroutines. A cancelled ctx stops
// every cell, and advance returns ctx.Err() itself.
func (d *Deployment) advance(ctx context.Context, warmup, until sim.Time) error {
	if d.p.Workers != 1 {
		_, err := run.Map(ctx, d.p.Workers, len(d.cells),
			func(c int) (struct{}, error) {
				return struct{}{}, d.advanceCell(ctx, c, warmup, until)
			})
		return err
	}
	for c := range d.cells {
		if err := d.advanceCell(ctx, c, warmup, until); err != nil {
			return err
		}
	}
	return nil
}

// advanceCell runs one cell's frame loop up to until; the loop opens the
// cell's measurement window when its clock crosses the warm-up boundary.
// It runs concurrently with the other cells' advances and must touch only
// cell-local state. A panic in the loop dumps every cell's flight
// recorder before unwinding, on whichever goroutine the cell runs.
func (d *Deployment) advanceCell(ctx context.Context, c int, warmup, until sim.Time) error {
	if len(d.flights) > 0 {
		defer trace.DumpOnPanic(d.flights...)
	}
	cl := &d.cells[c]
	if err := cl.sys.Run(ctx, cl.proto, warmup, until); err != nil {
		return err
	}
	if cl.sys.Now() != until {
		return fmt.Errorf("multicell: protocol %s produced a variable frame", cl.proto.Name())
	}
	return nil
}

// closeFlights detaches the cells' flight recorders once Run ends.
func (d *Deployment) closeFlights() {
	for _, fl := range d.flights {
		fl.Close()
	}
	d.flights = nil
}

// spares holds the deployments Run keeps between calls for the next
// replications to rebuild into (see build): one per processor, as many as
// can run at once. Not a sync.Pool, whose per-P caches and the victim
// copies it keeps across a GC held up to twice as many: a deployment
// holds about 1.3 MB at a scenario corpus's largest shapes (a 4.9 KB
// stream per link and per user), and pooling them raised the corpus
// benchmark's peak RSS 15–19% (DESIGN.md). A run that finds no spare
// builds a new deployment; one that finds the list full drops its own.
var spares = make(chan *Deployment, runtime.GOMAXPROCS(0))

// Run builds and runs a deployment in one call, rebuilding a spare one
// when there is one, so consecutive runs (a sweep's replications) recycle
// their predecessors' allocations. The result shares no memory with the
// deployment. A cancelled ctx stops the run and returns ctx.Err().
func Run(ctx context.Context, p Params) (Result, error) {
	var d *Deployment
	select {
	case d = <-spares:
	default:
		d = new(Deployment)
	}
	defer func() {
		select {
		case spares <- d:
		default:
		}
	}()
	if err := d.build(p); err != nil {
		return Result{}, err
	}
	return d.Run(ctx)
}

// RunReplicated executes reps independent deployments concurrently — each
// under a seed derived via run.RepSeed, so replication 0 reproduces Run(p)
// exactly — and pools them: counters and handoffs sum, rates recompute
// from pooled counters, Reps carries across-replication Student-t CI95,
// and PerCell aggregates each cell across replications.
func RunReplicated(ctx context.Context, p Params, reps int) (Result, error) {
	if reps < 1 {
		reps = 1
	}
	outs, err := run.Map(ctx, 0, reps, func(i int) (Result, error) {
		pi := p
		pi.Seed = run.RepSeed(p.Seed, i)
		return Run(ctx, pi)
	})
	if err != nil {
		return Result{}, err
	}
	return pool(outs), nil
}

// pool folds replication results, in replication order, into the
// RunReplicated aggregate.
func pool(outs []Result) Result {
	reps := len(outs)
	if reps == 1 {
		// The aggregation layer owns the replication metadata: stamp the
		// single replication here, never inside Run itself.
		outs[0].Result = mac.AggregateReplications([]mac.Result{outs[0].Result})
		return outs[0]
	}
	flat := make([]mac.Result, reps)
	agg := Result{}
	for i, o := range outs {
		flat[i] = o.Result
		agg.Handoffs += o.Handoffs
	}
	agg.Result = mac.AggregateReplications(flat)
	// A deployment-level Result sums Frames across cells, so the generic
	// aggregation's DataDelivered/Frames would shrink throughput by the
	// cell count; restore the per-cell-frame normalization Run uses.
	if cells := len(outs[0].PerCell); agg.Frames > 0 && cells > 0 {
		agg.Result.DataThroughputPerFrame = float64(agg.Result.DataDelivered) / (agg.Result.Frames / float64(cells))
	}
	for c := 0; c < len(outs[0].PerCell); c++ {
		per := make([]mac.Result, reps)
		for i, o := range outs {
			per[i] = o.PerCell[c]
		}
		agg.PerCell = append(agg.PerCell, mac.AggregateReplications(per))
	}
	return agg
}
