package grid

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"charisma/internal/mac"
	"charisma/internal/rng"
	"charisma/internal/run"
)

// Worker pulls (spec, rep) tasks from a coordinator Server and streams
// results back — the client half of the grid protocol, shared by
// cmd/charisma-worker and the in-process tests so both exercise the same
// code.
//
// When the coordinator dispatches tasks under expirable leases, the
// worker heartbeats each task it is executing at a third of the lease
// TTL. A heartbeat answered 409 means the lease was superseded — the
// coordinator presumed this worker dead and re-queued the task — so the
// worker abandons the task quietly: its result would be discarded anyway.
type Worker struct {
	// Coordinator is the base URL of the coordinator server.
	Coordinator string
	// ID names this worker to the coordinator; it feeds the crash
	// re-queue exclusion (a worker is not immediately handed back a task
	// it previously timed out on). Empty means "<hostname>-<pid>".
	ID string
	// Parallel bounds concurrent simulations; below 1 means one per core.
	Parallel int
	// Cache, when non-nil, short-circuits tasks whose RepKey the worker
	// already holds (a worker-local -cache-dir).
	Cache Cache
	// Poll is the idle re-poll interval (default 200 ms).
	Poll time.Duration
	// MaxIdle exits the worker after this long without work — including
	// an unreachable coordinator. Zero means poll forever.
	MaxIdle time.Duration
	// Client overrides the HTTP client (tests).
	Client *http.Client
	// Log receives structured lifecycle events (claims, abandons, exit)
	// tagged with the worker ID; nil discards them.
	Log *slog.Logger
	// Stats, when non-nil, is updated live as the worker runs — the
	// backing store for cmd/charisma-worker's stats endpoint. Run installs
	// a private one when nil so internal counting never branches.
	Stats *WorkerStats
	// CorruptResult, when non-nil, is applied to every result just before
	// it is posted — the chaos harness's lying-worker hook (exercises the
	// coordinator's byzantine audit). It never touches the worker-local
	// cache: the lie lives on the wire only.
	CorruptResult func(point, rep int, r *mac.Result)

	// sleep is the claim-loop's wait primitive, replaced by a virtual
	// clock in tests so backoff schedules are assertable without walls.
	sleep func(ctx context.Context, d time.Duration) error
}

// WorkerStats counts one worker process's traffic. All fields are
// atomics: the worker runs Parallel loops concurrently. Read a coherent
// view via Snapshot.
type WorkerStats struct {
	Claimed     atomic.Uint64 // tasks accepted from /task
	Completed   atomic.Uint64 // results posted (or abandoned as stale after execution)
	Abandoned   atomic.Uint64 // tasks dropped: lease superseded, result undeliverable, or run cancelled
	CacheHits   atomic.Uint64 // tasks served from the worker-local cache
	CacheMisses atomic.Uint64 // tasks that missed the worker-local cache
	beats       atomic.Uint64 // successful heartbeat round-trips
	beatNanos   atomic.Uint64 // cumulative heartbeat round-trip time
}

func (s *WorkerStats) observeBeat(d time.Duration) {
	s.beats.Add(1)
	s.beatNanos.Add(uint64(d))
}

// WorkerStatsSnapshot is one JSON-friendly view of a WorkerStats —
// what cmd/charisma-worker serves from its stats endpoint.
type WorkerStatsSnapshot struct {
	Claimed        uint64  `json:"claimed"`
	Completed      uint64  `json:"completed"`
	Abandoned      uint64  `json:"abandoned"`
	CacheHits      uint64  `json:"cache_hits"`
	CacheMisses    uint64  `json:"cache_misses"`
	Heartbeats     uint64  `json:"heartbeats"`
	HeartbeatAvgMS float64 `json:"heartbeat_avg_ms"` // mean round-trip, milliseconds
}

// Snapshot returns the current counter values. Counters are read
// individually, so a snapshot taken mid-update may be skewed by one
// in-flight task — fine for monitoring.
func (s *WorkerStats) Snapshot() WorkerStatsSnapshot {
	snap := WorkerStatsSnapshot{
		Claimed:     s.Claimed.Load(),
		Completed:   s.Completed.Load(),
		Abandoned:   s.Abandoned.Load(),
		CacheHits:   s.CacheHits.Load(),
		CacheMisses: s.CacheMisses.Load(),
		Heartbeats:  s.beats.Load(),
	}
	if snap.Heartbeats > 0 {
		snap.HeartbeatAvgMS = float64(s.beatNanos.Load()) / float64(snap.Heartbeats) / 1e6
	}
	return snap
}

// Run polls for tasks until the coordinator reports it has closed (410),
// MaxIdle elapses without work, or the context is cancelled.
func (w Worker) Run(ctx context.Context) error {
	if w.Coordinator == "" {
		return errors.New("grid: worker needs a coordinator URL")
	}
	if w.ID == "" {
		host, _ := os.Hostname()
		w.ID = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	// Normalize the optional observability fields once on this copy so the
	// per-loop code counts and logs unconditionally.
	if w.Stats == nil {
		w.Stats = new(WorkerStats)
	}
	if w.Log == nil {
		w.Log = slog.New(slog.DiscardHandler)
	}
	w.Log = w.Log.With("worker", w.ID)
	if w.sleep == nil {
		w.sleep = sleepCtx
	}
	base := strings.TrimSuffix(w.Coordinator, "/")
	n := w.Parallel
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	poll := w.Poll
	if poll <= 0 {
		poll = 200 * time.Millisecond
	}
	client := w.Client
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = w.loop(ctx, client, base, poll)
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	return ctx.Err()
}

// claimBackoffCap bounds the claim loop's transient-failure backoff: an
// unreachable or erroring coordinator is re-probed at most this far apart
// (MaxIdle still bounds how long the worker keeps trying at all).
const claimBackoffCap = 15 * time.Second

func (w Worker) loop(ctx context.Context, client *http.Client, base string, poll time.Duration) error {
	idleSince := time.Now()
	// Transient failures (transport errors, 5xx) retry on a jittered
	// exponential schedule; a healthy-but-idle 204 keeps the plain poll
	// interval and resets the schedule.
	bo := NewBackoff(poll, claimBackoffCap, rng.SeedFor(0, "claim", w.ID))
	var lastErr error
	for {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		wt, status, err := w.fetchTask(ctx, client, base)
		transient := err != nil || status >= 500
		switch {
		case status == http.StatusGone:
			w.Log.Info("coordinator closed, exiting")
			return nil
		case transient || status == http.StatusNoContent:
			if transient {
				if err == nil {
					err = fmt.Errorf("grid: coordinator answered %d to /task", status)
				}
				lastErr = err
			}
			if w.MaxIdle > 0 && time.Since(idleSince) > w.MaxIdle {
				if lastErr != nil {
					return fmt.Errorf("grid: worker gave up after %v idle: %w", w.MaxIdle, lastErr)
				}
				w.Log.Info("idle limit reached, exiting", "max_idle", w.MaxIdle)
				return nil
			}
			delay := poll
			if transient {
				delay = bo.Next()
				w.Log.Debug("transient claim failure, backing off", "delay", delay, "err", err)
			} else {
				bo.Reset()
				lastErr = nil
			}
			if serr := w.sleep(ctx, delay); serr != nil {
				return serr
			}
		case status == http.StatusOK:
			idleSince = time.Now()
			bo.Reset()
			lastErr = nil
			w.Stats.Claimed.Add(1)
			w.Log.Debug("task claimed",
				"session", wt.Session, "lease", wt.Lease, "point", wt.Point, "rep", wt.Rep)
			res, lost := w.executeLeased(ctx, client, base, wt)
			if ctx.Err() != nil {
				// A run the cancel cut short is no result: post nothing
				// and let the lease lapse.
				w.Stats.Abandoned.Add(1)
				w.Log.Info("cancelled, task abandoned",
					"session", wt.Session, "lease", wt.Lease, "point", wt.Point, "rep", wt.Rep)
				return ctx.Err()
			}
			if lost {
				// The lease was superseded mid-execution; the result
				// would be discarded, so don't bother posting it.
				w.Stats.Abandoned.Add(1)
				w.Log.Warn("lease superseded mid-execution, task abandoned",
					"session", wt.Session, "lease", wt.Lease, "point", wt.Point, "rep", wt.Rep)
				continue
			}
			if perr := postResult(ctx, client, base, res); perr != nil {
				if ctx.Err() != nil {
					return ctx.Err()
				}
				// A stranded result is recoverable — the lease lapses and
				// the task is re-executed elsewhere — so a delivery failure
				// abandons the task instead of killing this worker lane.
				w.Stats.Abandoned.Add(1)
				w.Log.Warn("result delivery failed, task abandoned",
					"session", wt.Session, "lease", wt.Lease, "point", wt.Point, "rep", wt.Rep, "err", perr)
				continue
			}
			w.Stats.Completed.Add(1)
		default:
			// Non-transient protocol surprise (4xx): misconfiguration, not
			// an outage — retrying would loop forever against the wrong
			// endpoint.
			return fmt.Errorf("grid: coordinator answered %d to /task", status)
		}
	}
}

// executeLeased runs one task while heartbeating its lease. lost reports
// that the coordinator superseded the lease before the task finished.
func (w Worker) executeLeased(ctx context.Context, client *http.Client, base string, wt wireTask) (res wireResult, lost bool) {
	if wt.Lease == 0 || wt.LeaseMS <= 0 {
		return w.execute(ctx, wt), false
	}
	interval := time.Duration(wt.LeaseMS) * time.Millisecond / 3
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	hbCtx, stopHB := context.WithCancel(ctx)
	defer stopHB()
	superseded := make(chan struct{})
	go w.heartbeatLoop(hbCtx, client, base, wt, interval, superseded)
	res = w.execute(ctx, wt)
	stopHB()
	select {
	case <-superseded:
		return res, true
	default:
		return res, false
	}
}

// heartbeatLoop renews one lease every interval until ctx is cancelled
// or the coordinator answers 409, which closes superseded. Transport
// errors are tolerated: a momentary coordinator hiccup should not make
// the worker abandon real work — only an explicit 409 does. But a
// failed renewal leaves the lease burning down, so errors retry on a
// short jittered schedule (capped at the normal interval) instead of
// waiting out a full interval and risking the lease lapsing behind a
// flaky link.
func (w Worker) heartbeatLoop(ctx context.Context, client *http.Client, base string, wt wireTask, interval time.Duration, superseded chan<- struct{}) {
	retry := NewBackoff(interval/8, interval, rng.SeedFor(wt.Lease, "beat", w.ID))
	t := time.NewTimer(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			start := time.Now()
			ok, err := postBeat(ctx, client, base, wt.Session, wt.Lease)
			switch {
			case err != nil:
				t.Reset(retry.Next())
			case !ok:
				close(superseded)
				return
			default:
				w.Stats.observeBeat(time.Since(start))
				retry.Reset()
				t.Reset(interval)
			}
		}
	}
}

// execute runs one task (or serves it from the worker-local cache) and
// wraps the outcome for the wire. The named return matters: CorruptResult
// runs in a defer so it covers the cache-hit and simulate paths alike,
// and a defer can only reach the value actually returned through a named
// result. A replication cut short by a cancel of ctx fails, so it is
// never cached.
func (w Worker) execute(ctx context.Context, wt wireTask) (out wireResult) {
	out = wireResult{Session: wt.Session, Point: wt.Point, Rep: wt.Rep, Lease: wt.Lease}
	if err := wt.Spec.Validate(); err != nil {
		out.Err = err.Error()
		return out
	}
	defer func() {
		if out.Err == "" && w.CorruptResult != nil {
			w.CorruptResult(wt.Point, wt.Rep, &out.Result)
		}
	}()
	var key string
	if w.Cache != nil {
		if h, err := wt.Spec.Hash(); err == nil {
			key = RepKey(h, run.RepSeed(wt.Spec.BaseSeed(), wt.Rep))
			if r, ok := w.Cache.Get(key); ok {
				w.Stats.CacheHits.Add(1)
				out.Result = r
				return out
			}
			w.Stats.CacheMisses.Add(1)
		}
	}
	r, err := wt.Spec.RunRepContext(ctx, wt.Rep)
	if err != nil {
		out.Err = err.Error()
		return out
	}
	out.Result = r
	if w.Cache != nil && key != "" {
		w.Cache.Put(key, r)
	}
	return out
}

func (w Worker) fetchTask(ctx context.Context, client *http.Client, base string) (wireTask, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		base+"/task?worker="+url.QueryEscape(w.ID), nil)
	if err != nil {
		return wireTask{}, 0, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return wireTask{}, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return wireTask{}, resp.StatusCode, nil
	}
	var wt wireTask
	if err := readBody(io.LimitReader(resp.Body, maxResultBody), &wt); err != nil {
		return wireTask{}, resp.StatusCode, fmt.Errorf("grid: bad task payload: %w", err)
	}
	return wt, resp.StatusCode, nil
}

// postBeat renews one lease. renewed is false on an explicit 409 (the
// lease or session was superseded); transport and other failures return
// an error instead, which callers treat as transient.
func postBeat(ctx context.Context, client *http.Client, base, session string, lease int64) (renewed bool, err error) {
	body, err := appendJSON(nil, wireBeat{Session: session, Lease: lease})
	if err != nil {
		return false, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/heartbeat", bytes.NewReader(body))
	if err != nil {
		return false, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return false, err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusNoContent:
		return true, nil
	case http.StatusConflict:
		return false, nil
	default:
		return false, fmt.Errorf("grid: coordinator answered %d to /heartbeat", resp.StatusCode)
	}
}

// postResultAttempts bounds delivery retries; with the jittered
// exponential schedule the attempts span roughly two seconds of
// coordinator outage before the task is abandoned to lease re-queueing.
const postResultAttempts = 5

// postResult delivers one result, retrying transient failures on the
// shared jittered-exponential backoff so a momentary coordinator hiccup
// doesn't strand a finished simulation. On exhaustion the returned error
// carries the *last* observed failure — including the final HTTP status
// when the coordinator answered at all — so an operator can tell a dead
// link from a rejecting coordinator.
func postResult(ctx context.Context, client *http.Client, base string, res wireResult) error {
	body, err := appendJSON(make([]byte, 0, wireBufSize), res)
	if err != nil {
		return fmt.Errorf("grid: encode result: %w", err)
	}
	bo := NewBackoff(150*time.Millisecond, 2*time.Second, res.Lease)
	var last error
	for attempt := 0; attempt < postResultAttempts; attempt++ {
		if attempt > 0 {
			if err := sleepCtx(ctx, bo.Next()); err != nil {
				return err
			}
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/result", bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		if err != nil {
			last = err
			continue
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusNoContent:
			return nil
		case http.StatusConflict:
			// The coordinator moved on to another session; drop quietly.
			return nil
		default:
			last = fmt.Errorf("grid: coordinator answered %d to /result", resp.StatusCode)
		}
	}
	return fmt.Errorf("grid: result delivery failed after %d attempts: %w", postResultAttempts, last)
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
