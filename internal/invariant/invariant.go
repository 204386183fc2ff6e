// Package invariant is a property-based checker for the simulator: it
// runs any grid.JobSpec and asserts the protocol-independent laws every
// run must satisfy, regardless of parameters.
//
//   - Conservation (single-cell specs): every generated packet is
//     accounted for. Voice: generated = delivered + errored + dropped +
//     still-buffered. Data: generated = delivered + still-backlogged
//     (failed data transmissions stay queued for ARQ). The system's
//     metric counters must also agree with the per-source lifetime
//     counters — two independent bookkeepers of the same events.
//   - Bounds: rates in [0, 1], frame count positive, delays ordered
//     (0 ≤ min ≤ mean ≤ max ≤ warmup+duration), every float finite.
//   - Determinism: running the same spec and seed twice yields
//     byte-identical canonical JSON; pooling two replications yields
//     finite across-replication CI95 half-widths.
//
// Conservation is checked on a dedicated warm-up-free run (the metric
// window would otherwise split packet lifetimes across the mark), driving
// the same Build and frame loop (mac.System.Run) Scenario.Run uses with a
// zero warm-up: the window opens at tick 0, so window counters equal
// lifetime totals and the laws are exact equalities.
package invariant

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"

	"charisma/internal/core"
	"charisma/internal/grid"
	"charisma/internal/mac"
	"charisma/internal/sim"
)

// Violation is one failed invariant.
type Violation struct {
	// Invariant names the violated law (e.g. "voice-conservation").
	Invariant string
	// Detail says which quantities disagreed and how.
	Detail string
}

func (v Violation) String() string { return v.Invariant + ": " + v.Detail }

// Report is the outcome of checking one spec.
type Report struct {
	// Hash is the checked spec's content hash — with the spec's seed, a
	// one-line repro for any violation.
	Hash string
	// Result is the replication-0 result the bounds were checked on.
	Result mac.Result
	// Violations is empty when every invariant held.
	Violations []Violation
}

// OK reports whether every invariant held.
func (r Report) OK() bool { return len(r.Violations) == 0 }

func (r *Report) violate(invariant, format string, args ...any) {
	r.Violations = append(r.Violations, Violation{Invariant: invariant, Detail: fmt.Sprintf(format, args...)})
}

// Check runs the spec and asserts every applicable invariant. The error
// return is for specs that cannot run at all (invalid parameters); a spec
// that runs but breaks a law reports violations instead.
func Check(spec grid.JobSpec) (Report, error) {
	if err := spec.Validate(); err != nil {
		return Report{}, err
	}
	hash, err := spec.Hash()
	if err != nil {
		return Report{}, err
	}
	rep := Report{Hash: hash}

	r0, err := spec.RunRep(0)
	if err != nil {
		return Report{}, err
	}
	rep.Result = r0
	checkBounds(&rep, spec, r0)

	// Determinism: same spec + seed ⇒ byte-identical canonical JSON.
	again, err := spec.RunRep(0)
	if err != nil {
		return Report{}, err
	}
	b0, err := json.Marshal(r0)
	if err != nil {
		return Report{}, err
	}
	b1, err := json.Marshal(again)
	if err != nil {
		return Report{}, err
	}
	if !bytes.Equal(b0, b1) {
		rep.violate("determinism", "same spec+seed produced different results:\n%s\n%s", b0, b1)
	}

	// Across-replication statistics stay finite.
	r1, err := spec.RunRep(1)
	if err != nil {
		return Report{}, err
	}
	agg := mac.AggregateReplications([]mac.Result{r0, r1})
	if agg.Reps.Replications != 2 {
		rep.violate("aggregation", "pooled 2 replications, Reps.Replications = %d", agg.Reps.Replications)
	}
	for name, v := range map[string]float64{
		"Reps.VoiceLossCI95":      agg.Reps.VoiceLossCI95,
		"Reps.DataThroughputCI95": agg.Reps.DataThroughputCI95,
		"Reps.DataDelayCI95":      agg.Reps.DataDelayCI95,
		"DataDelayCI95":           agg.DataDelayCI95,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			rep.violate("ci95-finite", "%s = %v", name, v)
		}
	}

	if spec.Kind == grid.KindScenario {
		if err := checkConservation(&rep, *spec.Scenario); err != nil {
			return Report{}, err
		}
	}
	return rep, nil
}

// window returns the spec's warm-up and measured seconds after defaults.
func window(spec grid.JobSpec) (warmup, duration float64) {
	switch spec.Kind {
	case grid.KindScenario:
		sc := spec.Scenario.WithDefaults()
		return sc.WarmupSec, sc.DurationSec
	default:
		p := spec.Multicell.WithDefaults()
		return p.WarmupSec, p.DurationSec
	}
}

func checkBounds(rep *Report, spec grid.JobSpec, r mac.Result) {
	for name, v := range map[string]float64{
		"VoiceLossRate":   r.VoiceLossRate,
		"VoiceDropRate":   r.VoiceDropRate,
		"VoiceErrorRate":  r.VoiceErrorRate,
		"CollisionRate":   r.CollisionRate,
		"InfoUtilization": r.InfoUtilization,
	} {
		if math.IsNaN(v) || v < 0 || v > 1 {
			rep.violate("rate-bounds", "%s = %v outside [0, 1]", name, v)
		}
	}
	if math.IsNaN(r.Frames) || r.Frames <= 0 {
		rep.violate("frames-positive", "Frames = %v over a positive measurement window", r.Frames)
	}
	if math.IsNaN(r.DataThroughputPerFrame) || math.IsInf(r.DataThroughputPerFrame, 0) || r.DataThroughputPerFrame < 0 {
		rep.violate("throughput-bounds", "DataThroughputPerFrame = %v", r.DataThroughputPerFrame)
	}
	warmup, duration := window(spec)
	horizon := warmup + duration
	switch {
	case math.IsNaN(r.MinDataDelaySec) || r.MinDataDelaySec < 0:
		rep.violate("delay-order", "MinDataDelaySec = %v", r.MinDataDelaySec)
	case math.IsNaN(r.MeanDataDelaySec) || r.MeanDataDelaySec < r.MinDataDelaySec:
		rep.violate("delay-order", "mean %v below min %v", r.MeanDataDelaySec, r.MinDataDelaySec)
	case math.IsNaN(r.MaxDataDelaySec) || r.MaxDataDelaySec < r.MeanDataDelaySec:
		rep.violate("delay-order", "max %v below mean %v", r.MaxDataDelaySec, r.MeanDataDelaySec)
	case r.MaxDataDelaySec > horizon:
		rep.violate("delay-order", "max delay %v exceeds the %vs simulated horizon", r.MaxDataDelaySec, horizon)
	}
	if math.IsNaN(r.DataDelayCI95) || math.IsInf(r.DataDelayCI95, 0) || r.DataDelayCI95 < 0 {
		rep.violate("ci95-finite", "DataDelayCI95 = %v", r.DataDelayCI95)
	}
}

// census is the end-of-run sum over every station's source counters.
type census struct {
	vGen, vDrop, vBuf uint64
	dGen, dBack       uint64
}

// checkConservation drives a warm-up-free replication of the scenario and
// asserts the exact packet-accounting laws against a full station census.
func checkConservation(rep *Report, sc core.Scenario) error {
	sc = sc.WithDefaults()
	sys, proto, err := sc.Build()
	if err != nil {
		return err
	}
	proto.Init(sys)
	limit := sim.FromSeconds(sc.WarmupSec) + sim.FromSeconds(sc.DurationSec)
	if err := sys.Run(context.Background(), proto, 0, limit); err != nil {
		return err
	}

	// Deferred stations that never woke materialize now with zero
	// lifetime counts — the census must still visit them.
	sys.MaterializeAll()
	var c census
	for _, st := range sys.Stations {
		if v := st.Voice(); v != nil {
			c.vGen += v.Generated()
			c.vDrop += v.Dropped()
			c.vBuf += uint64(v.Buffered())
		}
		if d := st.Data(); d != nil {
			c.dGen += d.Generated()
			c.dBack += uint64(d.Backlog())
		}
	}

	// The window opened at tick 0, so the counters are lifetime totals.
	m := &sys.M
	vGen, vDrop := m.VoiceGenerated.Total(), m.VoiceDropped.Total()
	vOK, vErr := m.VoiceTxOK.Total(), m.VoiceTxErr.Total()
	dGen, dOK := m.DataGenerated.Total(), m.DataDelivered.Total()

	if vGen != vOK+vErr+vDrop+c.vBuf {
		rep.violate("voice-conservation", "generated %d != delivered %d + errored %d + dropped %d + buffered %d",
			vGen, vOK, vErr, vDrop, c.vBuf)
	}
	if dGen != dOK+c.dBack {
		rep.violate("data-conservation", "generated %d != delivered %d + backlogged %d", dGen, dOK, c.dBack)
	}
	if vGen != c.vGen {
		rep.violate("voice-census", "metric counter saw %d generated, sources saw %d", vGen, c.vGen)
	}
	if vDrop != c.vDrop {
		rep.violate("voice-census", "metric counter saw %d dropped, sources saw %d", vDrop, c.vDrop)
	}
	if dGen != c.dGen {
		rep.violate("data-census", "metric counter saw %d generated, sources saw %d", dGen, c.dGen)
	}
	return nil
}
