// Command charisma-experiments regenerates the paper's evaluation artifacts
// (Kwok & Lau, ICPP 2000 / TPDS 2002): every panel of Figs. 11–13, the
// Fig. 5 fading trace, the Fig. 7 ABICM curves, Table 1, and the §5.3.3
// speed study.
//
// Usage:
//
//	charisma-experiments -exp fig11a          # one panel
//	charisma-experiments -exp fig11           # all six panels of Fig. 11
//	charisma-experiments -exp all -quick      # everything, smoke effort
//	charisma-experiments -exp table1
//	charisma-experiments -exp fig5
//	charisma-experiments -exp fig7
//	charisma-experiments -exp speed
//	charisma-experiments -scenario panels.jsonl   # declarative sweep file
//	    # one JSON document per line, shaped like a grid.JobSpec; sweep
//	    # axes ({"sweep": [...]}, {"range": {...}}) expand into the cross
//	    # product of sweep points and run as one grid session
//
// Sweeps run on the distributed sweep grid (internal/grid):
//
//	charisma-experiments -exp fig11 -cache-dir ~/.charisma-cache
//	    # content-addressed replication cache: a re-run is a cache walk
//	charisma-experiments -exp fig11a -precision 0.05 -max-reps 32
//	    # adaptive replication: grow N per point until CI95 ≤ 5% of mean
//	charisma-experiments -exp all -listen :9123
//	    # serve tasks to remote `charisma-worker -coordinator` processes
//	charisma-experiments -exp fig11a -listen :9123 -remote-only
//	    # coordinator only: all simulation done by attached workers
//	charisma-experiments -exp fig11a -listen :9123 -lease-ttl 30s
//	    # fault tolerance: a worker that stops heartbeating for 30 s is
//	    # presumed dead and its tasks are re-queued — the sweep completes
//	    # with byte-identical results regardless of crash timing
//	charisma-experiments -exp fig11a -listen :9123 -audit-frac 0.1
//	    # byzantine defense: 10% of remote results are re-executed
//	    # locally and byte-compared; a worker whose result diverges is
//	    # quarantined and everything it produced is re-done honestly
//
// While a sweep runs, live per-point progress streams to stderr (one
// line per point as its replications settle, with partial aggregates and
// CI95 half-widths — incremental panel data ahead of the final merge);
// -progress=false silences it.
//
// SIGINT/SIGTERM cancel the sweep cleanly: in-flight replications finish
// or stop, nothing is written mid-render.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"charisma/internal/experiments"
	"charisma/internal/grid"
	"charisma/internal/mathx"
	"charisma/internal/trace"
)

func main() {
	var (
		exp        = flag.String("exp", "all", "experiment: all, table1, fig5, fig7, speed, fig11, fig12, fig13, or a panel id like fig11a")
		scenario   = flag.String("scenario", "", "run a JSONL scenario file (sweep axes expand on the grid) instead of -exp")
		quick      = flag.Bool("quick", false, "smoke-test effort (5 s per point instead of 30 s)")
		seed       = flag.Int64("seed", 1, "random seed")
		reps       = flag.Int("reps", 0, "override independent replications per sweep point (0 = config default)")
		duration   = flag.Float64("duration", 0, "override measured seconds per sweep point")
		workers    = flag.Int("workers", 0, "worker goroutines for the sweep plan (0 = one per core)")
		cacheDir   = flag.String("cache-dir", "", "content-addressed replication cache directory (empty = in-memory only)")
		precision  = flag.Float64("precision", 0, "adaptive replication: target relative CI95 half-width ε per sweep point (0 = fixed reps)")
		maxReps    = flag.Int("max-reps", 0, "cap on adaptive replication growth (0 = default)")
		listen     = flag.String("listen", "", "serve grid tasks to remote charisma-worker processes on this address")
		remoteOnly = flag.Bool("remote-only", false, "no local simulation: all work done by remote workers (requires -listen)")
		leaseTTL   = flag.Duration("lease-ttl", 30*time.Second, "re-queue a remote worker's tasks after this long without heartbeats (0 = never expire)")
		auditFrac  = flag.Float64("audit-frac", 0, "re-execute this fraction of remote results locally; quarantine workers whose results diverge (byzantine defense)")
		progress   = flag.Bool("progress", true, "render live per-point sweep progress to stderr as replications settle")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
		memProf    = flag.String("memprofile", "", "write a heap profile at exit to this file")
		flightN    = flag.Int("flight-recorder", 0, "keep the last N frames of each local replication; dump JSONL on panic/SIGQUIT")
		flightPath = flag.String("flight-path", "charisma-flight.jsonl", "flight-recorder dump file (JSONL, appended)")
	)
	flag.Parse()
	if err := experiments.CheckFlags(
		mathx.Field{Name: "-reps", Value: float64(*reps)},
		mathx.Field{Name: "-duration", Value: *duration},
		mathx.Field{Name: "-workers", Value: float64(*workers)},
		mathx.Field{Name: "-precision", Value: *precision},
		mathx.Field{Name: "-max-reps", Value: float64(*maxReps)},
		mathx.Field{Name: "-lease-ttl", Value: leaseTTL.Seconds()},
		mathx.Field{Name: "-audit-frac", Value: *auditFrac},
		mathx.Field{Name: "-flight-recorder", Value: float64(*flightN)},
	); err != nil {
		fmt.Fprintln(os.Stderr, "charisma-experiments:", err)
		os.Exit(1)
	}
	trace.ArmFlight(*flightN, *flightPath)

	stopProf, err := trace.StartProfile(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "charisma-experiments:", err)
		os.Exit(1)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	rc := experiments.DefaultRunConfig()
	if *quick {
		rc = experiments.QuickRunConfig()
	}
	rc.Seed = *seed
	if *duration > 0 {
		rc.DurationSec = *duration
	}
	if *reps > 0 {
		rc.Replications = *reps
	}
	rc.Workers = *workers
	// One cache for the whole process: the in-memory tier spans panels,
	// so figures that sweep identical scenarios (Fig. 12/13) share
	// replications even without -cache-dir.
	rc.Cache = grid.NewCacheLogged(*cacheDir, slog.New(slog.NewTextHandler(os.Stderr, nil)))
	rc.PrecisionRel = *precision
	rc.AuditFrac = *auditFrac
	rc.MaxReplications = *maxReps
	rc.Stats = &grid.SweepStats{}
	if *progress {
		rc.OnProgress = experiments.ProgressPrinter(os.Stderr)
	}

	if *remoteOnly && *listen == "" {
		fmt.Fprintln(os.Stderr, "charisma-experiments: -remote-only requires -listen")
		stopProf()
		os.Exit(1)
	}
	if *listen != "" {
		log := slog.New(slog.NewTextHandler(os.Stderr, nil))
		srv := grid.NewServer()
		srv.LeaseTTL = *leaseTTL
		srv.Log = log
		rc.Server = srv
		rc.RemoteOnly = *remoteOnly
		go func() {
			if err := srv.ListenAndServe(ctx, *listen); err != nil && ctx.Err() == nil {
				log.Error("grid server failed", "addr", *listen, "err", err)
				stop() // a dead coordinator would hang a -remote-only sweep
			}
		}()
	}

	if *scenario != "" {
		err = runScenarioFile(ctx, *scenario, *reps, rc)
	} else {
		err = run(ctx, strings.ToLower(*exp), rc)
	}
	if rc.Server != nil {
		// Answer 410 for a moment so polling workers drain and exit
		// instead of waiting out their -max-idle against a vanished
		// coordinator. Skipped when the user already hit ^C.
		rc.Server.Close()
		if ctx.Err() == nil {
			time.Sleep(2 * time.Second)
		}
	}
	fmt.Fprintln(os.Stderr, rc.Stats.String())
	stopProf()
	if err != nil {
		fmt.Fprintln(os.Stderr, "charisma-experiments:", err)
		os.Exit(1)
	}
}

func runScenarioFile(ctx context.Context, path string, reps int, rc experiments.RunConfig) error {
	pts, results, err := experiments.RunScenarioFile(ctx, path, reps, rc)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stdout, "scenario file %s: %d sweep points\n", path, len(pts))
	experiments.RenderScenarioResults(os.Stdout, pts, results)
	return nil
}

func run(ctx context.Context, exp string, rc experiments.RunConfig) error {
	out := os.Stdout
	static := func(which string) bool {
		switch which {
		case "table1":
			experiments.RenderTable1(out, experiments.Table1())
		case "fig5":
			experiments.RenderTrace(out, experiments.FadingTrace(rc.Seed, 2.0), 8)
		case "fig7", "fig7a", "fig7b":
			experiments.RenderABICM(out, experiments.ABICMCurves(181), 6)
		default:
			return false
		}
		return true
	}
	if static(exp) {
		return nil
	}

	if exp == "speed" {
		pts, err := experiments.SpeedSweep(ctx, 60, nil, rc)
		if err != nil {
			return err
		}
		experiments.RenderSpeed(out, pts)
		return nil
	}

	var ran bool
	for _, spec := range experiments.PanelSpecs() {
		match := exp == "all" ||
			exp == spec.ID ||
			exp == fmt.Sprintf("fig%d", spec.Figure)
		if !match {
			continue
		}
		ran = true
		fmt.Fprintf(out, "running %s ...\n", spec.ID)
		panel, err := experiments.RunPanel(ctx, spec, rc)
		if err != nil {
			return err
		}
		experiments.RenderPanel(out, panel)
		if spec.Figure == 11 {
			experiments.RenderCapacity(out, panel, 0.01)
		}
	}
	if exp == "all" {
		static("table1")
		static("fig5")
		static("fig7")
		pts, err := experiments.SpeedSweep(ctx, 60, nil, rc)
		if err != nil {
			return err
		}
		experiments.RenderSpeed(out, pts)
		return nil
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}
