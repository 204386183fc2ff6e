// Command charisma-sim runs one uplink access control scenario and prints
// the paper's metrics (voice packet loss, data throughput, data delay) for
// either a single protocol or all six side by side.
//
// Usage:
//
//	charisma-sim -protocol charisma -voice 80 -data 10 -queue -duration 30
//	charisma-sim -all -voice 100 -duration 20
//	charisma-sim -cells 4 -voice 200 -workers 4 -duration 10
//
// With -cells ≥ 2 the run is a multi-cell deployment (§6 handoff
// extension): cells advance on -workers goroutines between handoff
// decision epochs, and the result pools all cells plus the handoff count.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"charisma"
	"charisma/internal/experiments"
	"charisma/internal/grid"
	"charisma/internal/mathx"
	"charisma/internal/trace"
)

// stopProf ends any active profiling; fatal paths call it explicitly
// because os.Exit skips defers.
var stopProf = func() {}

func fatal(args ...any) {
	fmt.Fprintln(os.Stderr, args...)
	stopProf()
	os.Exit(1)
}

func main() {
	var (
		protocol   = flag.String("protocol", "charisma", "protocol: charisma, d-tdma/vr, d-tdma/fr, drma, rama, rmav")
		scenario   = flag.String("scenario", "", "run a JSONL scenario file (sweep axes expand on the grid) instead of the flag-built cell")
		all        = flag.Bool("all", false, "run all six protocols on the same cell")
		voice      = flag.Int("voice", 50, "number of voice users (Nv)")
		data       = flag.Int("data", 0, "number of data users (Nd)")
		queue      = flag.Bool("queue", false, "enable the base-station request queue")
		seed       = flag.Int64("seed", 1, "random seed")
		reps       = flag.Int("reps", 1, "independent replications pooled per result (CI95 across reps)")
		duration   = flag.Float64("duration", 30, "measured seconds of simulated time")
		warmup     = flag.Float64("warmup", 2, "warm-up seconds excluded from metrics")
		speed      = flag.Float64("speed", 0, "mobile speed in km/h (0 = paper default, 50)")
		snr        = flag.Float64("snr", 0, "mean link SNR in dB (0 = calibrated default)")
		cells      = flag.Int("cells", 0, "number of base stations (>= 2 runs the multi-cell handoff deployment)")
		workers    = flag.Int("workers", 0, "worker goroutines for cells/replications (0 = one per core)")
		cacheDir   = flag.String("cache-dir", "", "content-addressed replication cache directory (single-cell runs)")
		prec       = flag.Float64("precision", 0, "adaptive replication: target relative CI95 half-width (0 = fixed -reps)")
		maxReps    = flag.Int("max-reps", 0, "cap on adaptive replication growth (0 = default)")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf    = flag.String("memprofile", "", "write a heap profile at exit to this file")
		flightN    = flag.Int("flight-recorder", 0, "keep the last N frames of each replication; dump JSONL on panic/SIGQUIT")
		flightPath = flag.String("flight-path", "charisma-flight.jsonl", "flight-recorder dump file (JSONL, appended)")
	)
	flag.Parse()
	if err := experiments.CheckFlags(
		mathx.Field{Name: "-reps", Value: float64(*reps)},
		mathx.Field{Name: "-workers", Value: float64(*workers)},
		mathx.Field{Name: "-precision", Value: *prec},
		mathx.Field{Name: "-max-reps", Value: float64(*maxReps)},
		mathx.Field{Name: "-flight-recorder", Value: float64(*flightN)},
	); err != nil {
		fatal("charisma-sim:", err)
	}
	trace.ArmFlight(*flightN, *flightPath)

	var err error
	if stopProf, err = trace.StartProfile(*cpuProf, *memProf); err != nil {
		fmt.Fprintln(os.Stderr, "charisma-sim:", err)
		os.Exit(1)
	}
	defer stopProf()

	// Long runs die cleanly on ^C / SIGTERM instead of mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *cells < 0 {
		fatal("charisma-sim: -cells must not be negative, got", *cells)
	}
	if *scenario != "" {
		if *all || *cells >= 2 {
			fatal("charisma-sim: -scenario carries its own protocols and cell counts; drop -all/-cells")
		}
		rc := experiments.RunConfig{
			Seed:            *seed,
			Workers:         *workers,
			Cache:           grid.NewCache(*cacheDir),
			PrecisionRel:    *prec,
			MaxReplications: *maxReps,
		}
		// The flag default (1) means "use the file's counts"; an explicit
		// -reps N overrides every point.
		override := 0
		if *reps > 1 {
			override = *reps
		}
		pts, results, err := experiments.RunScenarioFile(ctx, *scenario, override, rc)
		if err != nil {
			fatal("charisma-sim:", err)
		}
		fmt.Printf("scenario file %s: %d sweep points\n", *scenario, len(pts))
		experiments.RenderScenarioResults(os.Stdout, pts, results)
		return
	}

	if *cells >= 2 {
		if *all {
			fatal("charisma-sim: -all is not supported with -cells; pick one -protocol per deployment")
		}
		if *cacheDir != "" || *prec > 0 {
			fmt.Fprintln(os.Stderr, "charisma-sim: note: -cache-dir/-precision apply to single-cell runs only")
		}
		runMultiCell(ctx, *cells, *workers, *protocol, *voice, *data, *queue, *seed, *reps, *duration, *warmup, *speed, *snr)
		return
	}

	opts := charisma.Options{
		Protocol:         charisma.Protocol(*protocol),
		VoiceUsers:       *voice,
		DataUsers:        *data,
		WithRequestQueue: *queue,
		Seed:             *seed,
		Replications:     *reps,
		Workers:          *workers,
		Duration:         time.Duration(*duration * float64(time.Second)),
		Warmup:           time.Duration(*warmup * float64(time.Second)),
		SpeedKmh:         *speed,
		MeanSNRdB:        *snr,
		CacheDir:         *cacheDir,
		TargetPrecision:  *prec,
		MaxReplications:  *maxReps,
	}

	var results []charisma.Result
	if *all {
		results, err = charisma.CompareContext(ctx, opts)
	} else {
		var r charisma.Result
		r, err = charisma.RunContext(ctx, opts)
		results = []charisma.Result{r}
	}
	if err != nil {
		fatal("charisma-sim:", err)
	}

	fmt.Printf("cell: Nv=%d Nd=%d queue=%v seed=%d reps=%d %gs measured (speed %g km/h, SNR %g dB)\n\n",
		*voice, *data, *queue, *seed, *reps, *duration, *speed, *snr)
	fmt.Printf("%-11s %9s %9s %9s %10s %10s %9s %8s\n",
		"protocol", "Ploss", "Pdrop", "Perr", "γ(pkt/frm)", "Dd(ms)", "coll", "util")
	for _, r := range results {
		fmt.Printf("%-11s %8.4f%% %8.4f%% %8.4f%% %10.3f %10.2f %8.2f%% %7.1f%%\n",
			r.Protocol,
			100*r.VoiceLossRate, 100*r.VoiceDropRate, 100*r.VoiceErrorRate,
			r.DataThroughputPerFrame,
			float64(r.MeanDataDelay)/float64(time.Millisecond),
			100*r.CollisionRate, 100*r.InfoUtilization)
	}
	if *reps > 1 {
		fmt.Printf("\nacross-replication Student-t CI95 (n=%d):\n", *reps)
		fmt.Printf("%-11s %10s %12s %12s\n", "protocol", "±Ploss", "±γ", "±Dd(ms)")
		for _, r := range results {
			fmt.Printf("%-11s %9.4f%% %12.3f %12.2f\n",
				r.Protocol, 100*r.VoiceLossCI95, r.DataThroughputCI95,
				float64(r.MeanDataDelayCI95)/float64(time.Millisecond))
		}
	}
}

func runMultiCell(ctx context.Context, cells, workers int, protocol string, voice, data int, queue bool, seed int64, reps int, duration, warmup, speed, snr float64) {
	r, err := charisma.RunMultiCellContext(ctx, charisma.MultiCellOptions{
		Cells:            cells,
		Protocol:         charisma.Protocol(protocol),
		VoiceUsers:       voice,
		DataUsers:        data,
		WithRequestQueue: queue,
		Workers:          workers,
		Seed:             seed,
		Replications:     reps,
		Duration:         time.Duration(duration * float64(time.Second)),
		Warmup:           time.Duration(warmup * float64(time.Second)),
		SpeedKmh:         speed,
		MeanSNRdB:        snr,
	})
	if err != nil {
		fatal("charisma-sim:", err)
	}
	fmt.Printf("deployment: cells=%d Nv=%d Nd=%d queue=%v seed=%d reps=%d workers=%d %gs measured\n\n",
		cells, voice, data, queue, seed, reps, workers, duration)
	fmt.Printf("%-11s %9s %10s %10s %9s %9s\n",
		"protocol", "Ploss", "γ(pkt/frm)", "Dd(ms)", "coll", "handoffs")
	fmt.Printf("%-11s %8.4f%% %10.3f %10.2f %8.2f%% %9d\n",
		r.Protocol, 100*r.VoiceLossRate, r.DataThroughputPerFrame,
		float64(r.MeanDataDelay)/float64(time.Millisecond), 100*r.CollisionRate, r.Handoffs)
	fmt.Println("\nper-cell voice loss:")
	for c, loss := range r.PerCellLossRates {
		fmt.Printf("  cell %d: %.4f%%\n", c, 100*loss)
	}
}
