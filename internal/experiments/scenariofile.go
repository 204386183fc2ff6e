package experiments

// Scenario-file execution: a JSONL scenario file (grid.LoadScenarioPath)
// runs through exactly the sweep-grid pipeline the Go-coded panels use —
// same cache, same precision controller, same remote workers — so a
// figure expressed as a data file produces byte-identical results to its
// Go-coded equivalent.

import (
	"context"
	"fmt"
	"io"

	"charisma/internal/grid"
	"charisma/internal/mac"
)

// runPoints drives prepared sweep points through the grid under this
// config's cache/precision/worker/remote settings.
func (rc RunConfig) runPoints(ctx context.Context, points []grid.Point) ([]mac.Result, error) {
	return grid.RunPoints(ctx, points, grid.DriveConfig{
		Cache:      rc.Cache,
		Precision:  grid.Precision{TargetRel: rc.PrecisionRel, MaxReps: rc.MaxReplications},
		Workers:    rc.Workers,
		Server:     rc.Server,
		RemoteOnly: rc.RemoteOnly,
		Audit:      grid.Audit{Frac: rc.AuditFrac, Seed: rc.Seed},
		Stats:      rc.Stats,
		OnProgress: rc.OnProgress,
	})
}

// RunScenarioFile loads a JSONL scenario file, expands its sweep axes and
// drives every point through the grid. overrideReps > 0 replaces each
// point's replication count (the CLI's -reps flag); 0 keeps the file's
// per-point counts.
func RunScenarioFile(ctx context.Context, path string, overrideReps int, rc RunConfig) ([]grid.Point, []mac.Result, error) {
	pts, err := grid.LoadScenarioPath(path)
	if err != nil {
		return nil, nil, err
	}
	if overrideReps > 0 {
		for i := range pts {
			pts[i].Replications = overrideReps
		}
	}
	results, err := rc.runPoints(ctx, pts)
	if err != nil {
		return nil, nil, err
	}
	return pts, results, nil
}

// RenderScenarioResults writes one aligned row per expanded sweep point:
// the spec's identity (kind, protocol, populations, seed) and the three
// headline metrics with across-replication CI95 half-widths.
func RenderScenarioResults(w io.Writer, pts []grid.Point, results []mac.Result) {
	fmt.Fprintf(w, "%-4s %-10s %-11s %5s %5s %6s %5s %5s  %-22s %-22s %-16s\n",
		"#", "kind", "protocol", "Nv", "Nd", "queue", "cells", "reps", "Ploss", "γ(pkt/frame)", "Dd(ms)")
	for i, pt := range pts {
		var nv, nd, cells int
		var queue bool
		switch pt.Spec.Kind {
		case grid.KindScenario:
			sc := pt.Spec.Scenario
			nv, nd, queue = sc.NumVoice, sc.NumData, sc.UseQueue
		case grid.KindMulticell:
			mp := pt.Spec.Multicell
			nv, nd, queue, cells = mp.NumVoice, mp.NumData, mp.UseQueue, mp.Cells
		}
		if i >= len(results) {
			break
		}
		r := results[i]
		fmt.Fprintf(w, "%-4d %-10s %-11s %5d %5d %6v %5d %5d  %9.6f ±%-10.4g %9.4f ±%-10.4g %7.2f ±%-7.3g\n",
			i, pt.Spec.Kind, r.Protocol, nv, nd, queue, cells, r.Reps.Replications,
			r.VoiceLossRate, r.Reps.VoiceLossCI95,
			r.DataThroughputPerFrame, r.Reps.DataThroughputCI95,
			1e3*r.MeanDataDelaySec, 1e3*r.Reps.DataDelayCI95)
	}
}
