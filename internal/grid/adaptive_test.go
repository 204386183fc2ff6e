package grid

import (
	"bytes"
	"context"
	"log/slog"
	"math"
	"reflect"
	"strings"
	"testing"

	"charisma/internal/core"
	"charisma/internal/mac"
	"charisma/internal/stats"
)

// loadedScenario carries enough traffic that the headline metrics have
// nonzero means and real across-replication dispersion.
func loadedScenario() core.Scenario {
	sc := core.DefaultScenario(core.ProtoCharisma)
	sc.NumVoice, sc.NumData = 60, 4
	sc.Seed = 7
	sc.WarmupSec, sc.DurationSec = 0.3, 0.8
	return sc
}

// ci95Rel returns the worst relative CI95 half-width over the applicable
// headline metrics of a point's per-rep results.
func ci95Rel(results []mac.Result) float64 {
	worst := 0.0
	for _, metric := range []func(mac.Result) float64{
		func(r mac.Result) float64 { return r.VoiceLossRate },
		func(r mac.Result) float64 { return r.DataThroughputPerFrame },
		func(r mac.Result) float64 { return r.MeanDataDelaySec },
	} {
		var mv stats.MeanVar
		for _, r := range results {
			mv.Add(metric(r))
		}
		if mean := math.Abs(mv.Mean()); mean > 0 {
			if rel := mv.TCI95() / mean; rel > worst {
				worst = rel
			}
		}
	}
	return worst
}

// repResults re-derives a point's per-rep results so the test can check
// the stopping condition independently of the session's bookkeeping.
func repResults(t *testing.T, spec JobSpec, n int) []mac.Result {
	t.Helper()
	out := make([]mac.Result, n)
	for i := range out {
		r, err := spec.RunRep(i)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = r
	}
	return out
}

// TestAdaptiveStopsAtPrecisionOrCap: every sweep point must settle with
// CI95 half-width ≤ ε·mean on all applicable metrics, or at the rep cap.
func TestAdaptiveStopsAtPrecisionOrCap(t *testing.T) {
	spec := ScenarioSpec(loadedScenario())
	prec := Precision{TargetRel: 0.6, MaxReps: 12}
	sess, err := NewSession([]Point{{Spec: spec, Replications: 2}}, nil, prec)
	if err != nil {
		t.Fatal(err)
	}
	if err := RunLocal(context.Background(), sess, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Results(); err != nil {
		t.Fatal(err)
	}
	n := sess.Progress().Points[0].Scheduled
	if n < 2 || n > prec.MaxReps {
		t.Fatalf("settled at %d reps, outside [2, %d]", n, prec.MaxReps)
	}
	rel := ci95Rel(repResults(t, spec, n))
	if n < prec.MaxReps && rel > prec.TargetRel {
		t.Fatalf("settled below cap at %d reps with rel CI %v > ε %v", n, rel, prec.TargetRel)
	}
	if n > 2 {
		// Growth must have been necessary: the pre-growth state was not
		// converged at some earlier count (check the initial one).
		if ci95Rel(repResults(t, spec, 2)) <= prec.TargetRel {
			t.Fatalf("grew to %d reps although 2 already met ε", n)
		}
	}
}

// TestAdaptiveHitsHardCap: an unreachable precision stops at MaxReps.
func TestAdaptiveHitsHardCap(t *testing.T) {
	spec := ScenarioSpec(loadedScenario())
	sess, err := NewSession([]Point{{Spec: spec, Replications: 2}}, nil,
		Precision{TargetRel: 1e-9, MaxReps: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := RunLocal(context.Background(), sess, 0); err != nil {
		t.Fatal(err)
	}
	if n := sess.Progress().Points[0].Scheduled; n != 5 {
		t.Fatalf("settled at %d reps, want the cap 5", n)
	}
}

// TestAdaptiveGrownSweepExtendsFixedN: an adaptively grown sweep is a
// byte-identical extension of a fixed-N sweep — rep seeds come from
// run.RepSeed regardless of when a rep was scheduled, so fixing N at the
// grown count reproduces the adaptive result exactly.
func TestAdaptiveGrownSweepExtendsFixedN(t *testing.T) {
	spec := ScenarioSpec(loadedScenario())
	adaptive, err := NewSession([]Point{{Spec: spec, Replications: 2}}, nil,
		Precision{TargetRel: 1e-9, MaxReps: 6})
	if err != nil {
		t.Fatal(err)
	}
	if err := RunLocal(context.Background(), adaptive, 3); err != nil {
		t.Fatal(err)
	}
	grown, err := adaptive.Results()
	if err != nil {
		t.Fatal(err)
	}
	n := adaptive.Progress().Points[0].Scheduled
	if n <= 2 {
		t.Fatalf("controller did not grow (n=%d)", n)
	}

	fixed, err := NewSession([]Point{{Spec: spec, Replications: n}}, nil, Precision{})
	if err != nil {
		t.Fatal(err)
	}
	if err := RunLocal(context.Background(), fixed, 3); err != nil {
		t.Fatal(err)
	}
	want, err := fixed.Results()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, grown) {
		t.Fatalf("grown sweep is not a byte-identical extension of fixed N=%d", n)
	}
}

// TestAdaptiveDeterministicAcrossRuns: growth decisions depend only on
// results, so two adaptive runs agree on the final count and bytes.
func TestAdaptiveDeterministicAcrossRuns(t *testing.T) {
	spec := ScenarioSpec(loadedScenario())
	runOnce := func(workers int) (int, []mac.Result) {
		sess, err := NewSession([]Point{{Spec: spec, Replications: 2}}, nil,
			Precision{TargetRel: 0.3, MaxReps: 8})
		if err != nil {
			t.Fatal(err)
		}
		if err := RunLocal(context.Background(), sess, workers); err != nil {
			t.Fatal(err)
		}
		rs, err := sess.Results()
		if err != nil {
			t.Fatal(err)
		}
		return sess.Progress().Points[0].Scheduled, rs
	}
	n1, r1 := runOnce(1)
	n2, r2 := runOnce(4)
	if n1 != n2 || !reflect.DeepEqual(r1, r2) {
		t.Fatalf("adaptive run not deterministic: n=%d vs %d", n1, n2)
	}
}

// TestAdaptiveDisabledKeepsFixedReps: zero Precision never grows.
func TestAdaptiveDisabledKeepsFixedReps(t *testing.T) {
	sess, err := NewSession(sweepPoints(2), nil, Precision{})
	if err != nil {
		t.Fatal(err)
	}
	if err := RunLocal(context.Background(), sess, 0); err != nil {
		t.Fatal(err)
	}
	for j := range sweepPoints(2) {
		if n := sess.Progress().Points[j].Scheduled; n != 2 {
			t.Fatalf("point %d grew to %d reps with adaptation disabled", j, n)
		}
	}
}

// TestSweepStatsCountUnconverged: a point that reaches its replication
// cap unconverged is counted in the progress snapshots and the sweep
// stats, whose summary line says so, with no logger set — a loopback
// sweep has none, so the summary is the only place it shows.
func TestSweepStatsCountUnconverged(t *testing.T) {
	// As below: two replications cannot pin data throughput to 1e-9.
	pt := Point{Spec: ScenarioSpec(tinyScenario(core.ProtoCharisma, 4, 4)), Replications: 2}
	var sw SweepStats
	var last Progress
	_, err := RunPoints(context.Background(), []Point{pt}, DriveConfig{
		Precision:  Precision{TargetRel: 1e-9, MaxReps: 2},
		Workers:    2,
		Stats:      &sw,
		OnProgress: func(p Progress) { last = p },
	})
	if err != nil {
		t.Fatal(err)
	}
	if sw.Unconverged != 1 || last.Unconverged != 1 || !last.Done {
		t.Fatalf("stats count %d, final progress (done %v) %d unconverged points, want 1", sw.Unconverged, last.Done, last.Unconverged)
	}
	if got, want := sw.String(), "grid: 2 simulated, 0 cache hits, 1 points unconverged at the replication cap"; got != want {
		t.Fatalf("summary %q, want %q", got, want)
	}
}

// TestAnomalyWarnsWithoutDump: a point that reaches its replication cap
// unconverged is reported to the session's logger.
func TestAnomalyWarnsWithoutDump(t *testing.T) {
	// Data traffic gives throughput a nonzero mean that two replications
	// cannot pin to a 1e-9 relative CI95.
	pt := Point{Spec: ScenarioSpec(tinyScenario(core.ProtoCharisma, 4, 4)), Replications: 2}
	sess, err := NewSession([]Point{pt}, nil, Precision{TargetRel: 1e-9, MaxReps: 2})
	if err != nil {
		t.Fatal(err)
	}
	var logged bytes.Buffer
	sess.SetLogger(slog.New(slog.NewTextHandler(&logged, nil)))
	if err := RunLocal(context.Background(), sess, 2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(logged.String(), "sweep point hit replication cap without converging") {
		t.Fatalf("no anomaly warning logged:\n%s", logged.String())
	}
}
