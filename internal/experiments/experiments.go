// Package experiments regenerates every data-bearing table and figure of
// the paper's evaluation (§5): the Fig. 11 voice-loss panels, the Fig. 12
// data-throughput panels, the Fig. 13 data-delay panels, the Fig. 5 fading
// trace, the Fig. 7 ABICM curves, Table 1, and the §5.3.3 mobile-speed
// sensitivity study. Panels fan out across protocols, sweep points and
// independent replications as one sweep-grid session (internal/grid):
// replications are content-addressed — a re-run sweep with a cache
// directory is a cache walk — optionally precision-adaptive, and servable
// to remote charisma-worker processes. Error bars are across-replication
// Student-t CI95 half-widths.
package experiments

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"

	"charisma/internal/channel"
	"charisma/internal/core"
	"charisma/internal/grid"
	"charisma/internal/mac"
	"charisma/internal/mathx"
	"charisma/internal/phy"
	"charisma/internal/stats"
)

// RunConfig controls simulation effort for the sweep experiments.
type RunConfig struct {
	Seed        int64
	WarmupSec   float64
	DurationSec float64
	// Replications is the number of independent replications per sweep
	// point (values below 1 mean 1). Error bars come from the
	// across-replication Student-t CI95. When PrecisionRel is set this is
	// the initial count the adaptive controller grows from.
	Replications int
	// Workers bounds the sweep's worker pool (values below 1 mean one
	// per core). Purely a throughput knob: results are worker-invariant.
	Workers int
	// Protocols restricts the comparison set (default: all six).
	Protocols []string

	// Cache resolves replications before simulating; nil gives each sweep
	// a fresh in-memory cache. grid.NewCache(dir) adds the on-disk
	// content-addressed tier, so re-running a sweep (or re-anchoring a
	// figure) reuses every previously simulated (spec, seed) pair. Set it
	// once per process (the cmd does) so the in-memory tier spans panels:
	// Fig. 12 and Fig. 13 sweep identical scenarios and then share every
	// replication instead of re-simulating.
	Cache grid.Cache
	// PrecisionRel is the adaptive-replication target ε: each sweep point
	// grows its replication count until every headline metric's
	// across-replication CI95 half-width is ≤ ε·|mean| (or MaxReplications
	// is hit). Zero keeps the fixed Replications count.
	PrecisionRel float64
	// MaxReplications caps adaptive growth (default grid.DefaultMaxReps).
	MaxReplications int
	// Server, when non-nil, exposes every sweep session to remote grid
	// workers alongside (or instead of) the local pool.
	Server *grid.Server
	// RemoteOnly skips the in-process loopback workers: all simulation is
	// done by workers attached through Server.
	RemoteOnly bool
	// AuditFrac re-executes this fraction of remotely produced results
	// locally and quarantines any worker whose result diverges —
	// byzantine-result defense (see grid.Audit). Zero disables auditing.
	AuditFrac float64
	// Stats, when non-nil, accumulates simulated/cache-hit counts across
	// the sweeps of this config.
	Stats *grid.SweepStats
	// OnProgress, when non-nil, receives live progress snapshots while a
	// sweep runs — per-point partial aggregates with CI95 half-widths as
	// replications settle — so panels are observable (and their settled
	// points usable) before the final merge. ProgressPrinter renders them.
	OnProgress func(grid.Progress)
}

// DefaultRunConfig returns publication-effort settings: 30 measured seconds
// per point, 8 independent replications.
func DefaultRunConfig() RunConfig {
	return RunConfig{Seed: 1, WarmupSec: 2, DurationSec: 30, Replications: 8}
}

// QuickRunConfig returns smoke-test effort (a few seconds per point, two
// replications), used so every figure stays regenerable in CI time.
func QuickRunConfig() RunConfig {
	return RunConfig{Seed: 1, WarmupSec: 1, DurationSec: 5, Replications: 2}
}

// CheckFlags returns a *core.ValidationError naming the first numeric
// command-line flag whose value is negative, not a number or infinite.
// The commands give 0 its own meaning (a default, or off), so a negative
// value has none, and a NaN would slip past every "> 0" test into that
// meaning silently; no flag has a use for +Inf, and a duration of +Inf
// failed only once a sweep was under way. A flag whose name ends in
// "-frac" is a fraction and must also be at most 1. charisma-sim and
// charisma-experiments both check their flags with it.
func CheckFlags(flags ...mathx.Field) error {
	for _, f := range flags {
		if f.Value < 0 || math.IsNaN(f.Value) {
			return &core.ValidationError{Field: f.Name, Reason: fmt.Sprintf("value %v is negative or not a number", f.Value)}
		}
		if math.IsInf(f.Value, 1) {
			return &core.ValidationError{Field: f.Name, Reason: fmt.Sprintf("value %v is not finite", f.Value)}
		}
		if strings.HasSuffix(f.Name, "-frac") && f.Value > 1 {
			return &core.ValidationError{Field: f.Name, Reason: fmt.Sprintf("fraction %v is above 1", f.Value)}
		}
	}
	return nil
}

func (rc RunConfig) protocols() []string {
	if len(rc.Protocols) > 0 {
		return rc.Protocols
	}
	return core.Protocols()
}

func (rc RunConfig) replications() int {
	if rc.Replications < 1 {
		return 1
	}
	return rc.Replications
}

// Panel is one figure panel: a family of per-protocol series over a sweep.
type Panel struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []stats.Series
}

// Metric selects which measurement a sweep records.
type Metric int

// The paper's three performance metrics (§5).
const (
	MetricVoiceLoss Metric = iota
	MetricDataThroughput
	MetricDataDelay
)

func metricValue(m Metric, r mac.Result) float64 {
	switch m {
	case MetricVoiceLoss:
		return r.VoiceLossRate
	case MetricDataThroughput:
		return r.DataThroughputPerFrame
	default:
		return r.MeanDataDelaySec
	}
}

// metricCI returns the across-replication CI95 half-width matching a
// metric (the within-run interval for delay when only one rep ran).
func metricCI(m Metric, r mac.Result) float64 {
	switch m {
	case MetricVoiceLoss:
		return r.Reps.VoiceLossCI95
	case MetricDataThroughput:
		return r.Reps.DataThroughputCI95
	default:
		return r.DataDelayCI95
	}
}

// runScenarios executes one sweep's scenarios as a grid session: every
// (scenario, replication) pair is resolved against the cache, deduplicated
// in flight, executed by the loopback pool and any attached remote
// workers, and merged in rep order — byte-identical to running each
// replication in turn under run.RepSeed.
func (rc RunConfig) runScenarios(ctx context.Context, scs []core.Scenario) ([]mac.Result, error) {
	points := make([]grid.Point, len(scs))
	for i, sc := range scs {
		points[i] = grid.Point{Spec: grid.ScenarioSpec(sc), Replications: rc.replications()}
	}
	return rc.runPoints(ctx, points)
}

// sweep runs (protocols × xs × replications) cells as one grid session and
// collects one metric per point with its across-replication error bar.
func sweep(ctx context.Context, rc RunConfig, metric Metric, xs []int, build func(proto string, x int) core.Scenario) ([]stats.Series, error) {
	protos := rc.protocols()
	var scs []core.Scenario
	for _, p := range protos {
		for _, x := range xs {
			scs = append(scs, build(p, x))
		}
	}
	results, err := rc.runScenarios(ctx, scs)
	if err != nil {
		return nil, err
	}
	var out []stats.Series
	i := 0
	for _, p := range protos {
		s := stats.Series{Label: p}
		for _, x := range xs {
			r := results[i]
			i++
			s.Append(float64(x), metricValue(metric, r), metricCI(metric, r))
		}
		out = append(out, s)
	}
	return out, nil
}

// DefaultVoiceSweep is the Fig. 11 x-axis (number of voice users).
func DefaultVoiceSweep() []int { return []int{20, 40, 60, 80, 100, 120, 140, 160} }

// DefaultDataSweep is the Fig. 12/13 x-axis (number of data users).
func DefaultDataSweep() []int { return []int{2, 5, 10, 15, 20, 25, 30} }

// VoiceLossPanel reproduces one Fig. 11 panel: voice packet loss rate
// versus the number of voice users, for a fixed data population and queue
// setting.
func VoiceLossPanel(ctx context.Context, id string, nd int, queue bool, nvs []int, rc RunConfig) (Panel, error) {
	if nvs == nil {
		nvs = DefaultVoiceSweep()
	}
	series, err := sweep(ctx, rc, MetricVoiceLoss, nvs, func(proto string, nv int) core.Scenario {
		sc := core.DefaultScenario(proto)
		sc.NumVoice, sc.NumData = nv, nd
		sc.UseQueue = queue
		sc.Seed = rc.Seed
		sc.WarmupSec, sc.DurationSec = rc.WarmupSec, rc.DurationSec
		return sc
	})
	if err != nil {
		return Panel{}, err
	}
	return Panel{
		ID:     id,
		Title:  fmt.Sprintf("Fig.11%s — voice packet loss vs Nv (Nd=%d, queue=%v)", id[len(id)-1:], nd, queue),
		XLabel: "voice users Nv",
		YLabel: "Ploss",
		Series: series,
	}, nil
}

// DataPanel reproduces one Fig. 12 (throughput) or Fig. 13 (delay) panel:
// the metric versus the number of data users, for a fixed voice population
// and queue setting.
func DataPanel(ctx context.Context, id string, metric Metric, nv int, queue bool, nds []int, rc RunConfig) (Panel, error) {
	if nds == nil {
		nds = DefaultDataSweep()
	}
	series, err := sweep(ctx, rc, metric, nds, func(proto string, nd int) core.Scenario {
		sc := core.DefaultScenario(proto)
		sc.NumVoice, sc.NumData = nv, nd
		sc.UseQueue = queue
		sc.Seed = rc.Seed
		sc.WarmupSec, sc.DurationSec = rc.WarmupSec, rc.DurationSec
		return sc
	})
	if err != nil {
		return Panel{}, err
	}
	name, ylabel := "Fig.12", "data throughput γ (pkt/frame)"
	if metric == MetricDataDelay {
		name, ylabel = "Fig.13", "mean data delay (s)"
	}
	return Panel{
		ID:     id,
		Title:  fmt.Sprintf("%s%s — %s vs Nd (Nv=%d, queue=%v)", name, id[len(id)-1:], ylabel, nv, queue),
		XLabel: "data users Nd",
		YLabel: ylabel,
		Series: series,
	}, nil
}

// PanelSpec identifies one of the paper's 18 sweep panels.
type PanelSpec struct {
	ID     string
	Figure int // 11, 12 or 13
	Fixed  int // Nd for Fig. 11 panels; Nv for Fig. 12/13 panels
	Queue  bool
}

// PanelSpecs enumerates every sweep panel of Figs. 11–13 in the paper's
// (a)–(f) order.
func PanelSpecs() []PanelSpec {
	var specs []PanelSpec
	for _, fig := range []int{11, 12, 13} {
		letters := "abcdef"
		for i, fixed := range []int{0, 0, 10, 10, 20, 20} {
			specs = append(specs, PanelSpec{
				ID:     fmt.Sprintf("fig%d%c", fig, letters[i]),
				Figure: fig,
				Fixed:  fixed,
				Queue:  i%2 == 1,
			})
		}
	}
	return specs
}

// RunPanel executes one panel by spec.
func RunPanel(ctx context.Context, spec PanelSpec, rc RunConfig) (Panel, error) {
	switch spec.Figure {
	case 11:
		return VoiceLossPanel(ctx, spec.ID, spec.Fixed, spec.Queue, nil, rc)
	case 12:
		return DataPanel(ctx, spec.ID, MetricDataThroughput, spec.Fixed, spec.Queue, nil, rc)
	case 13:
		return DataPanel(ctx, spec.ID, MetricDataDelay, spec.Fixed, spec.Queue, nil, rc)
	default:
		return Panel{}, fmt.Errorf("experiments: unknown figure %d", spec.Figure)
	}
}

// Capacity summarizes a Fig. 11 panel the way the paper's §5.1 text does:
// the interpolated number of voice users each protocol supports at the 1%
// packet loss threshold.
func Capacity(p Panel, threshold float64) map[string]float64 {
	out := make(map[string]float64, len(p.Series))
	for _, s := range p.Series {
		out[s.Label] = s.CrossingX(threshold, false)
	}
	return out
}

// FadingTrace reproduces Fig. 5: a two-second sample of combined fading
// (fast fading superimposed on shadowing), sampled once per frame.
func FadingTrace(seed int64, seconds float64) []channel.TracePoint {
	p := channel.DefaultParams()
	n := int(seconds * 400) // one sample per 2.5 ms frame
	return slices.Collect(channel.Trace(p, seed, 800, n))
}

// ABICMPoint is one x-sample of the Fig. 7 curves.
type ABICMPoint struct {
	CSIAmp   float64
	SNRdB    float64
	Mode     int
	Eta      float64 // Fig. 7b staircase
	BER      float64 // Fig. 7a instantaneous BER at the selected mode
	InOutage bool
	FixedBER float64 // the fixed encoder's BER at the same CSI
}

// ABICMCurves reproduces Fig. 7: instantaneous BER and normalized
// throughput of the adaptive scheme across the CSI range.
func ABICMCurves(n int) []ABICMPoint {
	a := phy.NewAdaptive(phy.DefaultParams())
	f := phy.NewFixed(phy.DefaultParams())
	out := make([]ABICMPoint, 0, n)
	for i := 0; i < n; i++ {
		// Log-spaced amplitude from -30 dB to +15 dB.
		db := -30 + 45*float64(i)/float64(n-1)
		amp := math.Pow(10, db/20)
		snr := amp * amp * a.MeanSNR()
		m, outage := a.ModeForSNR(snr)
		eta := m.Eta
		if outage {
			eta = 0
		}
		out = append(out, ABICMPoint{
			CSIAmp:   amp,
			SNRdB:    10 * math.Log10(snr),
			Mode:     m.Index,
			Eta:      eta,
			BER:      a.BER(m, snr),
			InOutage: outage,
			FixedBER: f.BER(f.Modes()[0], snr),
		})
	}
	return out
}

// SpeedPoint is one mobile-speed sample of the §5.3.3 study.
type SpeedPoint struct {
	SpeedKmh  float64
	VoiceLoss float64
}

// SpeedSweep reproduces the §5.3.3 observation: CHARISMA's performance is
// nearly flat from 10 to 50 km/h and degrades only slightly (<5% relative)
// at 80 km/h.
func SpeedSweep(ctx context.Context, nv int, speeds []float64, rc RunConfig) ([]SpeedPoint, error) {
	if speeds == nil {
		speeds = []float64{10, 20, 30, 40, 50, 60, 70, 80}
	}
	var scs []core.Scenario
	for _, v := range speeds {
		sc := core.DefaultScenario(core.ProtoCharisma)
		sc.NumVoice = nv
		sc.Seed = rc.Seed
		sc.WarmupSec, sc.DurationSec = rc.WarmupSec, rc.DurationSec
		sc.Channel.SpeedKmh = v
		scs = append(scs, sc)
	}
	results, err := rc.runScenarios(ctx, scs)
	if err != nil {
		return nil, err
	}
	out := make([]SpeedPoint, len(speeds))
	for i, v := range speeds {
		out[i] = SpeedPoint{SpeedKmh: v, VoiceLoss: results[i].VoiceLossRate}
	}
	return out, nil
}

// Table1Row is one parameter row of the paper's Table 1.
type Table1Row struct{ Parameter, Value string }

// Table1 reproduces the simulation-parameter table (readable entries from
// the paper; reconstructed entries marked, per DESIGN.md §3).
func Table1() []Table1Row {
	g := mac.DefaultConfig()
	ch := channel.DefaultParams()
	ph := phy.DefaultParams()
	return []Table1Row{
		{"transmission bandwidth", "320 kHz"},
		{"frame duration", fmt.Sprintf("%.1f ms (%d symbols)", g.Geometry.Duration().Milliseconds(), g.Geometry.FrameSymbols)},
		{"speech source rate", "8 kbps (one 160-bit packet / 20 ms)"},
		{"voice packet deadline", "20 ms"},
		{"mean talkspurt / silence", "1.0 s / 1.35 s (exponential)"},
		{"data burst arrivals", "exponential, mean 1 s"},
		{"data burst size", "exponential, mean 100 packets"},
		{"mean / max mobile speed", fmt.Sprintf("%.0f / 80 km/h (Doppler %g Hz)", ch.SpeedKmh, ch.Doppler())},
		{"shadowing", fmt.Sprintf("log-normal, σ=%g dB, ~%g s coherence", ch.ShadowSigmaDB, ch.ShadowCoherenceSec)},
		{"ABICM modes (η)", "1/2, 1, 2, 3, 4, 5 bits/symbol"},
		{"ABICM target BER", fmt.Sprintf("%g (constant-BER operation)", ph.TargetBER)},
		{"mean link SNR Γ̄ *", fmt.Sprintf("%g dB", ph.MeanSNRdB)},
		{"permission prob. pv / pd *", fmt.Sprintf("%g / %g", g.PermVoice, g.PermData)},
		{"CHARISMA Nr / Nb *", fmt.Sprintf("%d request + %d pilot minislots", g.Geometry.CharismaRequestSlots, g.Geometry.CharismaPilotSlots)},
		{"information subframe", fmt.Sprintf("%d symbols (4 slot-equivalents)", g.Geometry.CharismaInfoSymbols())},
		{"D-TDMA Nr / Ni *", fmt.Sprintf("%d / %d", g.Geometry.DTDMARequestSlots, g.Geometry.DTDMAInfoSlots)},
		{"RAMA Na / Ni *", fmt.Sprintf("%d / %d", g.Geometry.RAMAAuctionSlots, g.Geometry.RAMAInfoSlots)},
		{"DRMA Nk / Nx *", fmt.Sprintf("%d / %d", g.Geometry.DRMAInfoSlots, g.Geometry.DRMAMinislotsPerSlot)},
		{"RMAV Pmax", fmt.Sprintf("%d", g.Geometry.RMAVMaxGrantSlots)},
		{"CSI validity / est. noise *", fmt.Sprintf("%d frames / %g", g.CSIValidityFrames, g.CSIEstNoiseStd)},
		{"BS request queue capacity *", fmt.Sprintf("%d", g.QueueCap)},
		{"(*) reconstructed", "unreadable in the source scan; see DESIGN.md §3"},
	}
}
