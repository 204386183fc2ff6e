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
package multicell

import (
	"context"
	"fmt"

	"charisma/internal/channel"
	"charisma/internal/core"
	"charisma/internal/mac"
	"charisma/internal/phy"
	"charisma/internal/rng"
	"charisma/internal/run"
	"charisma/internal/sim"
	"charisma/internal/stats"
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

	// Channel, PHY and MAC default like core.Scenario.
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

// WithDefaults returns the params with zero-valued substrate knobs
// replaced by the calibrated defaults, mirroring core.Scenario: it is the
// normalization New applies before validating, exposed so external
// loaders (the grid's scenario files) can validate a deployment as it
// will actually run.
func (p Params) WithDefaults() Params {
	if p.Channel == (channel.Params{}) {
		p.Channel = channel.DefaultParams()
	}
	if len(p.PHY.Etas) == 0 {
		p.PHY = phy.DefaultParams()
	}
	if p.MAC.Geometry.FrameSymbols == 0 {
		p.MAC = mac.DefaultConfig()
	}
	p.MAC.UseQueue = p.UseQueue
	if p.WarmupSec <= 0 {
		p.WarmupSec = 2
	}
	if p.DurationSec <= 0 {
		p.DurationSec = 20
	}
	return p
}

// Validate reports configuration errors.
func (p Params) Validate() error {
	if p.Cells < 2 {
		return fmt.Errorf("multicell: need at least 2 cells, got %d", p.Cells)
	}
	if p.Protocol == core.ProtoRMAV {
		return fmt.Errorf("multicell: RMAV's variable frames cannot be cell-synchronized")
	}
	if _, err := core.NewProtocol(p.Protocol); err != nil {
		return err
	}
	if p.NumVoice+p.NumData == 0 {
		return fmt.Errorf("multicell: no users")
	}
	if p.DecisionPeriodFrames < 1 {
		return fmt.Errorf("multicell: decision period %d frames", p.DecisionPeriodFrames)
	}
	if p.HysteresisDB < 0 {
		return fmt.Errorf("multicell: negative hysteresis")
	}
	if err := p.Channel.Validate(); err != nil {
		return err
	}
	if err := p.PHY.Validate(); err != nil {
		return err
	}
	if err := p.MAC.Validate(); err != nil {
		return err
	}
	return nil
}

// user is one nomadic terminal with a link to every cell.
type user struct {
	voice  *traffic.VoiceSource
	data   *traffic.DataSource
	clones []*mac.Station // one per cell; exactly one carries the sources
	cell   int
}

// Deployment is a running multi-cell simulation.
type Deployment struct {
	p       Params
	users   []*user
	systems []*mac.System
	protos  []mac.Protocol
	marked  []bool // per cell: measurement window opened

	handoffs uint64
	now      sim.Time

	dbScratch []float64 // per-decision clone dB cache (one entry per cell)
}

// New assembles a deployment.
func New(p Params) (*Deployment, error) {
	p = p.WithDefaults()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	d := &Deployment{p: p}

	n := p.NumVoice + p.NumData
	// One shared fading plane per cell: clone k of cell c is view k of
	// cell c's bank. Each (cell, user) link keeps its own private stream
	// derived from (seed, "mc-chan", c, k), so the per-link sample paths
	// are byte-identical to the former one-object-per-clone layout while
	// the per-cell frame loop advances one contiguous plane.
	banks := make([]*channel.Bank, p.Cells)
	for c := 0; c < p.Cells; c++ {
		c := c
		banks[c] = channel.NewBankFunc(n, func(k int) (channel.Params, *rng.Stream) {
			return p.Channel, rng.DeriveIndexed(p.Seed, "mc-chan", c, k)
		})
	}
	// Build clones: cell-local station lists with dense local IDs.
	cellStations := make([][]*mac.Station, p.Cells)
	for k := 0; k < n; k++ {
		u := &user{clones: make([]*mac.Station, p.Cells)}
		if k < p.NumVoice {
			u.voice = traffic.NewVoice(traffic.DefaultVoiceParams(),
				rng.DeriveIndexed(p.Seed, "mc-voice", k), 0)
		} else {
			u.data = traffic.NewData(traffic.DefaultDataParams(),
				rng.DeriveIndexed(p.Seed, "mc-data", k), 0)
		}
		bestCell, bestDB := 0, -1e18
		for c := 0; c < p.Cells; c++ {
			fad := banks[c].User(k)
			st := mac.NewStation(k, nil, nil, fad)
			u.clones[c] = st
			cellStations[c] = append(cellStations[c], st)
			if db := fad.LongTermDB(); db > bestDB {
				bestCell, bestDB = c, db
			}
		}
		u.cell = bestCell
		d.attach(u, bestCell)
		d.users = append(d.users, u)
	}

	for c := 0; c < p.Cells; c++ {
		var modem phy.PHY
		if core.AdaptivePHYFor(p.Protocol) {
			modem = phy.NewAdaptive(p.PHY)
		} else {
			modem = phy.NewFixed(p.PHY)
		}
		sys, err := mac.NewSystem(p.MAC, modem, cellStations[c],
			rng.Derive(p.Seed, "mc-mac", fmt.Sprint(c), p.Protocol))
		if err != nil {
			return nil, err
		}
		proto, err := core.NewProtocol(p.Protocol)
		if err != nil {
			return nil, err
		}
		proto.Init(sys)
		d.systems = append(d.systems, sys)
		d.protos = append(d.protos, proto)
	}
	d.marked = make([]bool, p.Cells)
	d.dbScratch = make([]float64, p.Cells)
	return d, nil
}

// attach points cell c's clone at the user's live traffic sources.
func (d *Deployment) attach(u *user, c int) {
	st := u.clones[c]
	st.SetTraffic(u.voice, u.data)
	u.cell = c
}

// detach makes a clone inert and clears its MAC state in its cell.
func (d *Deployment) detach(u *user, c int, sys *mac.System) {
	st := u.clones[c]
	st.SetTraffic(nil, nil)
	if sys != nil {
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
	for _, u := range d.users {
		for c, st := range u.clones {
			d.systems[c].SyncChannel(st)
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
			d.detach(u, u.cell, d.systems[u.cell])
			d.attach(u, best)
			d.systems[best].Reindex(u.clones[best])
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
// The deployment is sharded: cells advance on their own goroutines (bounded
// by Params.Workers) and only synchronize at handoff decision epochs —
// every DecisionPeriodFrames frames — instead of at every frame. Between
// epochs the cells are fully independent (per-cell MAC streams, per-clone
// fading streams, and traffic sources owned by exactly one attached clone),
// so the result is byte-identical to sequential execution for any worker
// count; parallelism is purely a throughput knob.
func (d *Deployment) Run() (Result, error) {
	frameDur := d.p.MAC.Geometry.Duration()
	warmup := sim.FromSeconds(d.p.WarmupSec)
	limit := warmup + sim.FromSeconds(d.p.DurationSec)
	frame := 0
	for d.now < limit {
		// Frames until the next decision boundary, capped at the horizon.
		k := d.p.DecisionPeriodFrames - frame%d.p.DecisionPeriodFrames
		if remaining := int((limit - d.now + frameDur - 1) / frameDur); k > remaining {
			k = remaining
		}
		_, err := run.Map(context.Background(), d.p.Workers, len(d.systems),
			func(c int) (struct{}, error) {
				return struct{}{}, d.advanceCell(c, k, frameDur, warmup)
			})
		if err != nil {
			return Result{}, err
		}
		frame += k
		d.now += sim.Time(k) * frameDur
		if d.now < limit && frame%d.p.DecisionPeriodFrames == 0 {
			d.decide()
		}
	}

	var agg Result
	agg.Protocol = d.p.Protocol
	agg.Handoffs = d.handoffs
	var delaySum float64
	minSet := false
	for _, sys := range d.systems {
		r := sys.M.Result(d.p.Protocol, d.p.MAC.Geometry.FrameSymbols)
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
		agg.DataThroughputPerFrame = float64(agg.DataDelivered) / (agg.Frames / float64(len(d.systems)))
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

// advanceCell runs one cell for k frames, opening its measurement window
// when the cell clock crosses the warm-up boundary. It runs concurrently
// with the other cells' advances and must touch only cell-local state.
func (d *Deployment) advanceCell(c, k int, frameDur, warmup sim.Time) error {
	sys, proto := d.systems[c], d.protos[c]
	for j := 0; j < k; j++ {
		if !d.marked[c] && sys.Now() >= warmup {
			sys.M.Mark()
			d.marked[c] = true
		}
		sys.BeginFrame()
		dur := proto.RunFrame(sys)
		if dur != frameDur {
			return fmt.Errorf("multicell: protocol %s produced a variable frame", proto.Name())
		}
		sys.EndFrame(dur)
	}
	return nil
}

// Run builds and runs a deployment in one call.
func Run(p Params) (Result, error) {
	d, err := New(p)
	if err != nil {
		return Result{}, err
	}
	return d.Run()
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
		return Run(pi)
	})
	if err != nil {
		return Result{}, err
	}
	if reps == 1 {
		// The aggregation layer owns the replication metadata: stamp the
		// single replication here, never inside Run itself.
		outs[0].Result = mac.AggregateReplications([]mac.Result{outs[0].Result})
		return outs[0], nil
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
	return agg, nil
}
