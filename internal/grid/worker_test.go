package grid

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"charisma/internal/core"
	"charisma/internal/mac"
	"charisma/internal/run"
)

// TestClaimLoopBacksOffOnTransientFailures: a coordinator answering 5xx
// (or unreachable) is re-probed on the jittered exponential schedule — a
// virtual clock records every wait — and a healthy-but-idle 204 resets
// the schedule back to the plain poll interval.
func TestClaimLoopBacksOffOnTransientFailures(t *testing.T) {
	const poll = 100 * time.Millisecond
	// Script: 503, 503, 503 (escalating backoff), 204 (healthy idle,
	// resets), 503 (back to the first window), 410 (exit).
	script := []int{503, 503, 503, 204, 503, 410}
	var call atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		i := call.Add(1) - 1
		if int(i) >= len(script) {
			w.WriteHeader(http.StatusGone)
			return
		}
		w.WriteHeader(script[i])
	}))
	defer hs.Close()

	var waits []time.Duration
	w := Worker{Coordinator: hs.URL, ID: "flaky-test", Parallel: 1, Poll: poll}
	w.sleep = func(ctx context.Context, d time.Duration) error {
		waits = append(waits, d)
		return nil // virtual clock: never actually wait
	}
	if err := w.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(waits) != 5 {
		t.Fatalf("recorded %d waits (%v), want 5", len(waits), waits)
	}
	// Waits 0–2: transient, windows [poll/2, poll), [poll, 2·poll),
	// [2·poll, 4·poll).
	for k := 0; k < 3; k++ {
		lo, hi := poll<<k/2, poll<<k
		if waits[k] < lo || waits[k] >= hi {
			t.Fatalf("transient wait %d = %v, want [%v, %v)", k, waits[k], lo, hi)
		}
	}
	// Wait 3: the 204 — plain poll interval, no jitter.
	if waits[3] != poll {
		t.Fatalf("idle wait = %v, want the plain poll interval %v", waits[3], poll)
	}
	// Wait 4: the schedule was reset by the healthy 204 — first window
	// again, not the fourth.
	if waits[4] < poll/2 || waits[4] >= poll {
		t.Fatalf("post-reset wait = %v, want [%v, %v)", waits[4], poll/2, poll)
	}
}

// TestClaimLoopGivesUpAfterMaxIdle: transient failures don't retry
// forever — MaxIdle bounds them, and the exit error carries the last
// failure so the operator sees *why* the worker idled out.
func TestClaimLoopGivesUpAfterMaxIdle(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer hs.Close()

	w := Worker{Coordinator: hs.URL, ID: "doomed", Parallel: 1, Poll: time.Millisecond, MaxIdle: 20 * time.Millisecond}
	w.sleep = func(ctx context.Context, d time.Duration) error {
		time.Sleep(time.Millisecond) // let MaxIdle elapse quickly
		return nil
	}
	err := w.Run(context.Background())
	if err == nil {
		t.Fatal("worker retried a dead coordinator forever")
	}
	if !strings.Contains(err.Error(), "500") {
		t.Fatalf("give-up error %q does not carry the last failure", err)
	}
}

// TestHeartbeatToleratesTransientErrors: a 5xx or dropped heartbeat must
// NOT abandon the task — the loop retries on a short schedule and keeps
// renewing once the coordinator recovers. Only an explicit 409 closes
// the superseded channel.
func TestHeartbeatToleratesTransientErrors(t *testing.T) {
	var calls atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.WriteHeader(http.StatusServiceUnavailable) // transient outage
			return
		}
		w.WriteHeader(http.StatusNoContent) // recovered
	}))
	defer hs.Close()

	stats := new(WorkerStats)
	w := Worker{ID: "beat-test", Stats: stats}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	superseded := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.heartbeatLoop(ctx, hs.Client(), hs.URL,
			wireTask{Session: "s1", Lease: 7}, 5*time.Millisecond, superseded)
	}()
	waitUntil(t, 2*time.Second, func() bool { return stats.Snapshot().Heartbeats >= 2 })
	select {
	case <-superseded:
		t.Fatal("transient heartbeat failure abandoned the task")
	default:
	}
	cancel()
	<-done
	if calls.Load() < 4 {
		t.Fatalf("heartbeat gave up after %d calls instead of retrying through the outage", calls.Load())
	}
}

// TestHeartbeat409Abandons: an explicit 409 means the lease was
// superseded — the loop must close superseded and stop renewing.
func TestHeartbeat409Abandons(t *testing.T) {
	var calls atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusConflict)
	}))
	defer hs.Close()

	w := Worker{ID: "abandon-test", Stats: new(WorkerStats)}
	superseded := make(chan struct{})
	go w.heartbeatLoop(context.Background(), hs.Client(), hs.URL,
		wireTask{Session: "s1", Lease: 9}, 2*time.Millisecond, superseded)
	select {
	case <-superseded:
	case <-time.After(2 * time.Second):
		t.Fatal("409 did not abandon the lease")
	}
	n := calls.Load()
	time.Sleep(20 * time.Millisecond)
	if calls.Load() != n {
		t.Fatal("heartbeat loop kept beating after a 409")
	}
}

// TestExecuteAppliesCorruptResult: the lying-worker hook must perturb the
// result that actually goes on the wire — both when the task is simulated
// and when it is served from the worker-local cache. (Regression: the
// hook once ran in a defer against an unnamed return value, mutating a
// dead copy after `return` had already snapshotted it, so every "lie"
// left the wire honest and the byzantine audit had nothing to catch.)
func TestExecuteAppliesCorruptResult(t *testing.T) {
	spec := ScenarioSpec(tinyScenario(core.ProtoCharisma, 10, 3))
	honest, err := spec.RunRep(0)
	if err != nil {
		t.Fatal(err)
	}
	// Run installs Stats before any execute; so does this direct call.
	w := Worker{Stats: new(WorkerStats), CorruptResult: func(_, _ int, r *mac.Result) { r.Frames++ }}
	wt := wireTask{Session: "s1", Point: 0, Rep: 0, Spec: spec}
	out := w.execute(context.Background(), wt)
	if out.Err != "" {
		t.Fatalf("execute failed: %s", out.Err)
	}
	if reflect.DeepEqual(out.Result, honest) {
		t.Fatal("CorruptResult did not reach the returned result")
	}
	if out.Result.Frames != honest.Frames+1 {
		t.Fatalf("Frames = %v, want %v", out.Result.Frames, honest.Frames+1)
	}

	// Cache-hit path: the lie must still be applied on the wire, while the
	// cached entry itself stays honest.
	w.Cache = NewMemCache()
	h, err := spec.Hash()
	if err != nil {
		t.Fatal(err)
	}
	key := RepKey(h, run.RepSeed(spec.BaseSeed(), 0))
	w.Cache.Put(key, honest)
	out = w.execute(context.Background(), wt)
	if out.Result.Frames != honest.Frames+1 {
		t.Fatalf("cache-hit Frames = %v, want %v", out.Result.Frames, honest.Frames+1)
	}
	if cached, _ := w.Cache.Get(key); !reflect.DeepEqual(cached, honest) {
		t.Fatal("the lie leaked into the worker-local cache")
	}
}

// TestWorkerLiesCaughtOverHTTP drives the full wire path end to end: a
// real Worker with the lying hook, a real Server, -audit-frac 1. The
// audit must catch the divergence and quarantine the worker.
func TestWorkerLiesCaughtOverHTTP(t *testing.T) {
	sess, err := NewSession(sweepPoints(1), nil, Precision{})
	if err != nil {
		t.Fatal(err)
	}
	sess.EnableAudit(Audit{Frac: 1, Seed: 13})
	sv := NewServer()
	sv.Attach(sess)
	hs := httptest.NewServer(sv)
	defer hs.Close()

	liarDone := make(chan error, 1)
	go func() {
		w := Worker{
			Coordinator: hs.URL, ID: "liar", Parallel: 1, Poll: 5 * time.Millisecond,
			CorruptResult: func(_, _ int, r *mac.Result) { r.Frames++ },
		}
		liarDone <- w.Run(context.Background())
	}()
	waitUntil(t, 10*time.Second, func() bool { return sess.Progress().Quarantined == 1 })
	// Honest loopback workers finish the sweep the liar is barred from.
	if err := RunLocal(context.Background(), sess, 2); err != nil {
		t.Fatal(err)
	}
	sv.Close()
	if err := <-liarDone; err != nil {
		t.Fatalf("liar worker: %v", err)
	}
	if failed := sess.Progress().AuditsFailed; failed < 1 {
		t.Fatalf("failed audits = %d, want >= 1", failed)
	}
}

// TestPostResultRetriesThenReportsLastStatus: delivery retries transient
// failures and, on exhaustion, the error names the attempt count and the
// final HTTP status — a rejecting coordinator is distinguishable from a
// dead link.
func TestPostResultRetriesThenReportsLastStatus(t *testing.T) {
	var calls atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadGateway)
	}))
	defer hs.Close()

	err := postResult(context.Background(), hs.Client(), hs.URL,
		wireResult{Session: "s1", Lease: 3})
	if err == nil {
		t.Fatal("exhausted delivery returned nil")
	}
	if calls.Load() != postResultAttempts {
		t.Fatalf("made %d attempts, want %d", calls.Load(), postResultAttempts)
	}
	if !strings.Contains(err.Error(), "502") || !strings.Contains(err.Error(), "5 attempts") {
		t.Fatalf("exhaustion error %q lacks the final status or attempt count", err)
	}
}

// TestPostResultSucceedsAfterOutage: a delivery that fails twice and then
// lands reports success — the retry loop exists so momentary coordinator
// restarts don't strand finished simulations.
func TestPostResultSucceedsAfterOutage(t *testing.T) {
	var calls atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	}))
	defer hs.Close()

	if err := postResult(context.Background(), hs.Client(), hs.URL,
		wireResult{Session: "s1", Lease: 4}); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 3 {
		t.Fatalf("made %d attempts, want 3", calls.Load())
	}
}
