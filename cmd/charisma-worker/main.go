// Command charisma-worker is a sweep-grid worker: it pulls (spec,
// replication) tasks from a coordinator — a charisma-experiments process
// started with -listen, or anything serving internal/grid's protocol —
// runs them through the simulation engine, and streams the results back.
//
// Usage:
//
//	charisma-worker -coordinator http://host:9123
//	charisma-worker -coordinator http://host:9123 -parallel 8 \
//	    -cache-dir ~/.charisma-cache -max-idle 2m -stats-addr :9200
//
// A worker-local -cache-dir short-circuits tasks the worker has already
// simulated (content-addressed on hash(spec, rep-seed), the same keys the
// coordinator uses). The worker exits when the coordinator reports it has
// closed, after -max-idle without work, or on SIGINT/SIGTERM.
//
// When the coordinator dispatches under lease (its -lease-ttl), the
// worker heartbeats every task it is executing at a third of the TTL; a
// worker that is SIGKILLed simply stops heartbeating, the coordinator
// re-queues its tasks for the surviving workers, and a worker that
// outlives a revoked lease abandons the task instead of posting a result
// the coordinator would discard. The -id flag names the worker for the
// coordinator's re-queue exclusion (a worker is not immediately handed
// back a task it timed out on); it defaults to "<hostname>-<pid>".
//
// Observability: the worker logs structured events (task claims at
// -log-level debug, lease abandons, exit reasons) as logfmt-style slog
// lines on stderr, every line tagged worker=<id>. -stats-addr serves a
// live JSON counter snapshot (tasks claimed/completed/abandoned, local
// cache hits/misses, mean heartbeat round-trip) at GET /stats.
// -flight-recorder N keeps the last N frames of every replication in a
// ring that is dumped as JSONL on panic or SIGQUIT.
//
// Chaos: -chaos-seed and -chaos-rates arm internal/chaos's deterministic
// fault injector on this worker — wire faults on every coordinator
// request (drop, delay, dup, trunc, err500, err503), lying results
// (lie), and startup corruption of the local -cache-dir (cacheflip,
// cachetrunc, cachedeny). For resilience testing only: a lying worker
// exists to be caught by the coordinator's -audit-frac defense.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"charisma/internal/chaos"
	"charisma/internal/experiments"
	"charisma/internal/grid"
	"charisma/internal/mathx"
	"charisma/internal/trace"
)

func main() {
	var (
		coordinator = flag.String("coordinator", "", "coordinator base URL (required), e.g. http://host:9123")
		id          = flag.String("id", "", "worker id reported to the coordinator (default <hostname>-<pid>)")
		parallel    = flag.Int("parallel", 0, "concurrent simulations (0 = one per core)")
		cacheDir    = flag.String("cache-dir", "", "worker-local content-addressed replication cache")
		poll        = flag.Duration("poll", 200*time.Millisecond, "idle re-poll interval")
		maxIdle     = flag.Duration("max-idle", 2*time.Minute, "exit after this long without work (0 = poll forever)")
		statsAddr   = flag.String("stats-addr", "", "serve a JSON worker-stats snapshot at GET /stats on this address")
		logLevel    = flag.String("log-level", "info", "stderr log level: debug, info, warn, error")
		flightN     = flag.Int("flight-recorder", 0, "keep the last N frames of each replication; dump JSONL on panic/SIGQUIT")
		flightPath  = flag.String("flight-path", "charisma-flight.jsonl", "flight-recorder dump file (JSONL, appended)")
		chaosSeed   = flag.Int64("chaos-seed", 0, "seed for the deterministic fault injector (with -chaos-rates)")
		chaosRates  = flag.String("chaos-rates", "", "fault rates, e.g. drop=0.05,dup=0.02,err500=0.1,lie=1 (testing only)")
	)
	flag.Parse()

	var level slog.Level
	levelErr := level.UnmarshalText([]byte(*logLevel))
	log := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	if levelErr != nil {
		log.Error("bad -log-level", "err", levelErr)
		os.Exit(2)
	}
	if *coordinator == "" {
		log.Error("-coordinator is required")
		os.Exit(2)
	}
	if err := experiments.CheckFlags(
		mathx.Field{Name: "-parallel", Value: float64(*parallel)},
		mathx.Field{Name: "-poll", Value: poll.Seconds()},
		mathx.Field{Name: "-max-idle", Value: maxIdle.Seconds()},
		mathx.Field{Name: "-flight-recorder", Value: float64(*flightN)},
	); err != nil {
		log.Error("bad flag", "err", err)
		os.Exit(2)
	}
	rates, err := chaos.ParseRates(*chaosRates)
	if err != nil {
		log.Error("bad -chaos-rates", "err", err)
		os.Exit(2)
	}
	trace.ArmFlight(*flightN, *flightPath)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	stats := new(grid.WorkerStats)
	if *statsAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(stats.Snapshot())
		})
		srv := &http.Server{Addr: *statsAddr, Handler: mux}
		go func() {
			if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Error("stats endpoint failed", "addr", *statsAddr, "err", err)
			}
		}()
		defer srv.Close()
		log.Info("serving worker stats", "addr", *statsAddr)
	}

	w := grid.Worker{
		Coordinator: *coordinator,
		ID:          *id,
		Parallel:    *parallel,
		Cache:       grid.NewCacheLogged(*cacheDir, log),
		Poll:        *poll,
		MaxIdle:     *maxIdle,
		Log:         log,
		Stats:       stats,
	}
	var plan *chaos.Plan
	if rates.Active() {
		plan = chaos.NewPlan(*chaosSeed, rates)
		w.Client = &http.Client{Timeout: 30 * time.Second, Transport: plan.Transport(nil)}
		w.CorruptResult = plan.CorruptResult
		if *cacheDir != "" {
			if cf, cerr := plan.InjectCacheFaults(*cacheDir); cerr != nil {
				log.Warn("cache fault injection failed", "err", cerr)
			} else if cf.Entries > 0 {
				log.Warn("chaos perturbed local cache",
					"entries", cf.Entries, "flipped", cf.Flipped, "truncated", cf.Trunced, "denied", cf.Denied)
			}
		}
		log.Warn("chaos armed", "seed", *chaosSeed, "rates", *chaosRates)
	}
	log.Info("worker starting", "coordinator", *coordinator, "parallel", *parallel)
	if err := w.Run(ctx); err != nil && ctx.Err() == nil {
		log.Error("worker failed", "err", err)
		os.Exit(1)
	}
	snap := stats.Snapshot()
	log.Info("worker done",
		"claimed", snap.Claimed, "completed", snap.Completed, "abandoned", snap.Abandoned,
		"cache_hits", snap.CacheHits, "cache_misses", snap.CacheMisses)
	if plan != nil {
		log.Info("chaos summary", "injected", plan.Counts().String())
	}
}
