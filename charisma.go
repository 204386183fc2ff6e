// Package charisma is a from-scratch Go reproduction of
//
//	Y.-K. Kwok and V. K. N. Lau, "A Novel Channel-Adaptive Uplink Access
//	Control Protocol for Nomadic Computing" (ICPP 2000; IEEE TPDS
//	13(11):1150–1165, 2002),
//
// including the proposed CHARISMA protocol, the five baseline protocols it
// is evaluated against (RAMA, RMAV, DRMA, D-TDMA/FR, D-TDMA/VR), and every
// substrate the evaluation depends on: a frame-clocked simulator, the
// Rayleigh/log-normal burst-error channel model, the 6-mode adaptive
// physical layer, and the integrated voice/data traffic models.
//
// The public API is a thin facade over the internal simulation platform:
//
//	res, err := charisma.Run(charisma.Options{
//	    Protocol:   charisma.ProtocolCHARISMA,
//	    VoiceUsers: 80,
//	    DataUsers:  10,
//	    Duration:   30 * time.Second,
//	})
//	fmt.Println(res.VoiceLossRate, res.DataThroughputPerFrame)
//
// See README.md for the architecture and, under "Reproducing the paper",
// how every table and figure is regenerated.
package charisma

import (
	"cmp"
	"context"
	"fmt"
	"time"

	"charisma/internal/core"
	"charisma/internal/grid"
	"charisma/internal/mac"
)

// Protocol selects one of the six implemented uplink access control
// protocols.
type Protocol string

// The six protocols of the paper's evaluation (§3–§4).
const (
	// ProtocolCHARISMA is the paper's proposed channel-adaptive
	// reservation-based protocol.
	ProtocolCHARISMA Protocol = core.ProtoCharisma
	// ProtocolDTDMAVR is dynamic TDMA on a channel-adaptive PHY without
	// MAC/PHY interaction.
	ProtocolDTDMAVR Protocol = core.ProtoDTDMAVR
	// ProtocolDTDMAFR is classical dynamic TDMA on a fixed-rate PHY.
	ProtocolDTDMAFR Protocol = core.ProtoDTDMAFR
	// ProtocolDRMA is dynamic reservation multiple access.
	ProtocolDRMA Protocol = core.ProtoDRMA
	// ProtocolRAMA is resource auction multiple access.
	ProtocolRAMA Protocol = core.ProtoRAMA
	// ProtocolRMAV is reservation-based multiple access with variable
	// frame length.
	ProtocolRMAV Protocol = core.ProtoRMAV
)

// AllProtocols returns the six protocols in the paper's comparison order.
func AllProtocols() []Protocol {
	names := core.Protocols()
	out := make([]Protocol, len(names))
	for i, n := range names {
		out[i] = Protocol(n)
	}
	return out
}

// Options configures one simulation run. The zero value of every field is
// replaced by the paper's (reconstructed) Table 1 defaults, and a negative
// duration, speed, count or precision is rejected with a validation error
// naming the field.
type Options struct {
	// Protocol picks the access scheme (default CHARISMA).
	Protocol Protocol
	// VoiceUsers and DataUsers are the population sizes Nv and Nd.
	VoiceUsers int
	DataUsers  int
	// WithRequestQueue enables the base-station request queue (§4.5).
	WithRequestQueue bool
	// Seed makes the run reproducible (default 1). All protocols see
	// identical channel and traffic realizations for equal seeds.
	Seed int64
	// Replications is the number of independent replications pooled into
	// the result (default 1). Replication 0 runs the base seed — so one
	// replication reproduces the unreplicated run exactly — and each
	// further replication derives its own seed substream. With N ≥ 2 the
	// result's CI95 fields report across-replication Student-t intervals.
	Replications int
	// Workers bounds the worker pool replications run on (default: one
	// per CPU core). Worker count never changes the numbers — it is
	// purely a throughput knob.
	Workers int
	// CacheDir, when set, roots an on-disk content-addressed replication
	// cache: every (scenario, replication-seed) pair is simulated at most
	// once across runs, so repeating a run or growing Replications only
	// pays for the new replications.
	CacheDir string
	// TargetPrecision enables adaptive replication: the replication count
	// grows past Replications until the across-replication CI95
	// half-width of every headline metric is within TargetPrecision of
	// its mean (relative), or MaxReplications is reached. Zero keeps the
	// fixed Replications count.
	TargetPrecision float64
	// MaxReplications caps adaptive growth (default 64).
	MaxReplications int
	// Warmup is excluded from metrics (default 2 s); Duration is the
	// measurement window (default 30 s).
	Warmup   time.Duration
	Duration time.Duration
	// SpeedKmh is the mobile speed (default 50, the paper's mean;
	// Doppler spread scales with it).
	SpeedKmh float64
	// MeanSNRdB overrides the average link SNR (default 10 dB,
	// calibrated so the adaptive PHY averages twice the fixed PHY's
	// throughput).
	MeanSNRdB float64
	// Customize, when non-nil, receives the fully-populated internal
	// scenario for expert tweaks before the run.
	Customize func(*Scenario)
}

// Scenario aliases the internal scenario type for advanced configuration
// through Options.Customize.
type Scenario = core.Scenario

// Result carries the paper's performance metrics for one run.
type Result struct {
	// Protocol is the canonical protocol name.
	Protocol string
	// Frames is the measurement window in 2.5 ms frame equivalents.
	Frames float64

	// VoiceLossRate is Ploss (eq. 3): deadline drops plus transmission
	// errors over generated packets. VoiceDropRate and VoiceErrorRate
	// split it into its two components (§5.1).
	VoiceLossRate  float64
	VoiceDropRate  float64
	VoiceErrorRate float64
	VoiceGenerated uint64
	VoiceDelivered uint64

	// DataThroughputPerFrame is γ: data packets delivered per frame.
	DataThroughputPerFrame float64
	// MeanDataDelay is D_d: arrival to start of successful transmission.
	MeanDataDelay time.Duration
	DataGenerated uint64
	DataDelivered uint64

	// CollisionRate is the fraction of request opportunities lost to
	// collisions; InfoUtilization the used fraction of the information
	// subframe.
	CollisionRate   float64
	InfoUtilization float64

	// Replications is the number of independent replications pooled into
	// this result (1 unless Options.Replications asked for more).
	Replications int
	// VoiceLossCI95, DataThroughputCI95 and MeanDataDelayCI95 are
	// across-replication Student-t 95% confidence half-widths; all zero
	// for a single replication.
	VoiceLossCI95      float64
	DataThroughputCI95 float64
	MeanDataDelayCI95  time.Duration
}

func fromInternal(r mac.Result) Result {
	return Result{
		Protocol:               r.Protocol,
		Frames:                 r.Frames,
		VoiceLossRate:          r.VoiceLossRate,
		VoiceDropRate:          r.VoiceDropRate,
		VoiceErrorRate:         r.VoiceErrorRate,
		VoiceGenerated:         r.VoiceGenerated,
		VoiceDelivered:         r.VoiceDelivered,
		DataThroughputPerFrame: r.DataThroughputPerFrame,
		MeanDataDelay:          time.Duration(r.MeanDataDelaySec * float64(time.Second)),
		DataGenerated:          r.DataGenerated,
		DataDelivered:          r.DataDelivered,
		CollisionRate:          r.CollisionRate,
		InfoUtilization:        r.InfoUtilization,
		Replications:           r.Reps.Replications,
		VoiceLossCI95:          r.Reps.VoiceLossCI95,
		DataThroughputCI95:     r.Reps.DataThroughputCI95,
		MeanDataDelayCI95:      time.Duration(r.Reps.DataDelayCI95 * float64(time.Second)),
	}
}

// nonNegative rejects a negative option value: zero selects the option's
// default, and a negative value has no meaning of its own. It rejects NaN
// too, which every comparison would otherwise pass over to the default.
func nonNegative[T int | float64 | time.Duration](field string, v T) error {
	if v < 0 || v != v {
		return &core.ValidationError{Field: field, Reason: fmt.Sprintf("value %v is negative or not a number (0 selects the default)", v)}
	}
	return nil
}

func (o Options) scenario() (core.Scenario, error) {
	if err := cmp.Or(
		nonNegative("Warmup", o.Warmup),
		nonNegative("Duration", o.Duration),
		nonNegative("SpeedKmh", o.SpeedKmh),
		nonNegative("Replications", o.Replications),
		nonNegative("Workers", o.Workers),
		nonNegative("TargetPrecision", o.TargetPrecision),
		nonNegative("MaxReplications", o.MaxReplications),
	); err != nil {
		return core.Scenario{}, err
	}
	proto := o.Protocol
	if proto == "" {
		proto = ProtocolCHARISMA
	}
	sc := core.DefaultScenario(string(proto))
	sc.NumVoice = o.VoiceUsers
	sc.NumData = o.DataUsers
	sc.UseQueue = o.WithRequestQueue
	if o.Seed != 0 {
		sc.Seed = o.Seed
	}
	if o.Warmup > 0 {
		sc.WarmupSec = o.Warmup.Seconds()
	}
	if o.Duration > 0 {
		sc.DurationSec = o.Duration.Seconds()
	}
	if o.SpeedKmh > 0 {
		sc.Channel.SpeedKmh = o.SpeedKmh
	}
	if o.MeanSNRdB != 0 {
		sc.PHY.MeanSNRdB = o.MeanSNRdB
	}
	if o.Customize != nil {
		o.Customize(&sc)
	}
	if err := sc.Validate(); err != nil {
		return sc, err
	}
	return sc, nil
}

// Run executes one simulation — replicated across cores when
// Options.Replications asks for more than one run — and returns its
// (pooled) metrics.
func Run(o Options) (Result, error) {
	return RunContext(context.Background(), o)
}

// runScenarios executes scenarios on the sweep grid's in-process loopback
// transport: replications resolve against the (optional) content-addressed
// cache, grow adaptively when TargetPrecision asks for it, and merge in
// replication order — byte-identical to running each replication in turn
// under run.RepSeed.
func (o Options) runScenarios(ctx context.Context, scs []core.Scenario) ([]mac.Result, error) {
	points := make([]grid.Point, len(scs))
	for i, sc := range scs {
		points[i] = grid.Point{Spec: grid.ScenarioSpec(sc), Replications: o.Replications}
	}
	return grid.RunPoints(ctx, points, grid.DriveConfig{
		Cache:     grid.NewCache(o.CacheDir),
		Precision: grid.Precision{TargetRel: o.TargetPrecision, MaxReps: o.MaxReplications},
		Workers:   o.Workers,
	})
}

// RunContext is Run with cancellation: a cancelled context stops pending
// replications and running ones too, each within 64 frames, and returns
// the context's error. A replication cut short is dropped, never cached.
func RunContext(ctx context.Context, o Options) (Result, error) {
	sc, err := o.scenario()
	if err != nil {
		return Result{}, err
	}
	rs, err := o.runScenarios(ctx, []core.Scenario{sc})
	if err != nil {
		return Result{}, err
	}
	return fromInternal(rs[0]), nil
}

// Compare runs the same cell configuration under several protocols (all of
// them when none are named) in parallel, against identical channel and
// traffic realizations — replication i of every protocol shares one sample
// path — and returns results in argument order.
func Compare(o Options, protocols ...Protocol) ([]Result, error) {
	return CompareContext(context.Background(), o, protocols...)
}

// CompareContext is Compare with cancellation.
func CompareContext(ctx context.Context, o Options, protocols ...Protocol) ([]Result, error) {
	if len(protocols) == 0 {
		protocols = AllProtocols()
	}
	scs := make([]core.Scenario, len(protocols))
	for i, p := range protocols {
		oi := o
		oi.Protocol = p
		sc, err := oi.scenario()
		if err != nil {
			return nil, fmt.Errorf("charisma: %s: %w", p, err)
		}
		scs[i] = sc
	}
	rs, err := o.runScenarios(ctx, scs)
	if err != nil {
		return nil, err
	}
	out := make([]Result, len(rs))
	for i, r := range rs {
		out[i] = fromInternal(r)
	}
	return out, nil
}

// FrameDuration returns the air-interface frame duration (2.5 ms).
func FrameDuration() time.Duration {
	d := core.DefaultScenario(string(ProtocolCHARISMA)).MAC.Geometry.Duration()
	return time.Duration(d.Seconds() * float64(time.Second))
}
