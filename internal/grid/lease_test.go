package grid

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"charisma/internal/core"
)

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

// TestLeaseExpiryRequeues: a claimed task whose lease lapses without
// heartbeats re-enters the queue on its own — the expiry janitor fires
// with no other traffic — and the session counts the re-queue.
func TestLeaseExpiryRequeues(t *testing.T) {
	sess, err := NewSession(sweepPoints(1), nil, Precision{})
	if err != nil {
		t.Fatal(err)
	}
	nTasks := len(sweepScenarios())
	tk, ok, _ := sess.TryClaim("w1", 30*time.Millisecond)
	if !ok {
		t.Fatal("no task to claim")
	}
	if tk.Lease == 0 {
		t.Fatal("claimed task carries no lease")
	}
	// Drain the rest so only the crashed task can come back.
	for {
		_, ok, _ := sess.TryClaim("other", 0)
		if !ok {
			break
		}
		nTasks--
	}
	if nTasks != 1 {
		t.Fatalf("expected exactly the claimed task to remain, have %d", nTasks)
	}
	waitUntil(t, 2*time.Second, func() bool { return sess.Requeues() == 1 })
	// The re-queued task is claimable again (by another worker).
	tk2, ok, _ := sess.TryClaim("w2", 0)
	if !ok {
		t.Fatal("expired task not re-queued")
	}
	if tk2.Point != tk.Point || tk2.Rep != tk.Rep {
		t.Fatalf("re-queued task is (%d,%d), want (%d,%d)", tk2.Point, tk2.Rep, tk.Point, tk.Rep)
	}
	if tk2.Lease == tk.Lease {
		t.Fatal("re-dispatch reused the superseded lease id")
	}
}

// TestHeartbeatRenewalKeepsLease: renewing within the TTL keeps the task
// out of the re-queue; once renewals stop, it expires.
func TestHeartbeatRenewalKeepsLease(t *testing.T) {
	sess, err := NewSession(sweepPoints(1), nil, Precision{})
	if err != nil {
		t.Fatal(err)
	}
	const ttl = 40 * time.Millisecond
	tk, ok, _ := sess.TryClaim("w1", ttl)
	if !ok {
		t.Fatal("no task to claim")
	}
	// Renew for several multiples of the TTL.
	for i := 0; i < 8; i++ {
		time.Sleep(ttl / 3)
		if !sess.Renew(tk.Lease, ttl) {
			t.Fatalf("renewal %d failed while lease should be live", i)
		}
	}
	if n := sess.Requeues(); n != 0 {
		t.Fatalf("heartbeated lease was re-queued %d times", n)
	}
	// Stop heartbeating: the lease must lapse and renewal must then fail.
	waitUntil(t, 2*time.Second, func() bool { return sess.Requeues() == 1 })
	if sess.Renew(tk.Lease, ttl) {
		t.Fatal("renewal succeeded on an expired lease")
	}
}

// TestStaleResultDiscarded: a result delivered under a superseded lease
// must not complete the slot, reach the cache, or disturb the re-executed
// task's delivery.
func TestStaleResultDiscarded(t *testing.T) {
	cache := NewMemCache()
	pts := sweepPoints(1)[:1]
	sess, err := NewSession(pts, cache, Precision{})
	if err != nil {
		t.Fatal(err)
	}
	tk, ok, _ := sess.TryClaim("w1", 20*time.Millisecond)
	if !ok {
		t.Fatal("no task to claim")
	}
	waitUntil(t, 2*time.Second, func() bool { return sess.Requeues() == 1 })

	// The dead worker's late delivery: correct payload, superseded lease.
	res, err := tk.Spec.RunRep(tk.Rep)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Complete(TaskResult{Point: tk.Point, Rep: tk.Rep, Lease: tk.Lease, Result: res}); err != nil {
		t.Fatalf("stale delivery should be dropped quietly, got %v", err)
	}
	if sess.Done() {
		t.Fatal("stale delivery completed the session")
	}
	if n := cache.Len(); n != 0 {
		t.Fatalf("stale delivery reached the cache (%d entries)", n)
	}

	// The re-dispatched execution delivers normally and finishes the sweep.
	tk2, ok, _ := sess.TryClaim("w2", time.Minute)
	if !ok {
		t.Fatal("re-queued task not claimable")
	}
	if err := sess.Complete(TaskResult{Point: tk2.Point, Rep: tk2.Rep, Lease: tk2.Lease, Result: res}); err != nil {
		t.Fatal(err)
	}
	if !sess.Done() {
		t.Fatal("current-lease delivery did not complete the session")
	}
	if sess.Requeues() != 1 || sess.Executed() != 1 {
		t.Fatalf("requeues=%d executed=%d, want 1 and 1", sess.Requeues(), sess.Executed())
	}
}

// TestRequeueAvoidsDeadWorker: after two workers each time out on a task,
// each is steered to the *other* worker's task first (the zombie guard),
// yet a lone worker still gets its own timed-out task back when nothing
// else is queued (the fallback), so one survivor can finish any sweep.
func TestRequeueAvoidsDeadWorker(t *testing.T) {
	scs := sweepScenarios()[:2]
	pts := make([]Point, len(scs))
	for i, sc := range scs {
		pts[i] = Point{Spec: ScenarioSpec(sc), Replications: 1}
	}
	sess, err := NewSession(pts, nil, Precision{})
	if err != nil {
		t.Fatal(err)
	}
	a, ok, _ := sess.TryClaim("w1", 20*time.Millisecond)
	if !ok {
		t.Fatal("w1 got no task")
	}
	b, ok, _ := sess.TryClaim("w2", 20*time.Millisecond)
	if !ok {
		t.Fatal("w2 got no task")
	}
	waitUntil(t, 2*time.Second, func() bool { return sess.Requeues() == 2 })

	// Regardless of re-queue order, w1 is steered to the task it did NOT
	// time out on (w2's), even when its own sits ahead in the queue.
	got1, ok, _ := sess.TryClaim("w1", 0)
	if !ok {
		t.Fatal("w1 got nothing after re-queue")
	}
	if got1.Point != b.Point {
		t.Fatalf("w1 claimed point %d, want w2's point %d", got1.Point, b.Point)
	}
	// Only w1's own timed-out task remains — the fallback must still hand
	// it over rather than starve the sweep.
	got2, ok, _ := sess.TryClaim("w1", 0)
	if !ok {
		t.Fatal("fallback withheld the last task from w1")
	}
	if got2.Point != a.Point {
		t.Fatalf("w1's fallback task is %d, want its own %d", got2.Point, a.Point)
	}
}

// TestZeroLeaseCompleteRetiresLease: a direct completion that echoes no
// lease (legacy callers) must still retire the key's outstanding lease,
// or the janitor would re-queue — and a worker re-execute — a task that
// already finished.
func TestZeroLeaseCompleteRetiresLease(t *testing.T) {
	// Two points keep the session — and its expiry janitor — alive after
	// the first completion.
	scs := sweepScenarios()[:2]
	pts := make([]Point, len(scs))
	for i, sc := range scs {
		pts[i] = Point{Spec: ScenarioSpec(sc), Replications: 1}
	}
	sess, err := NewSession(pts, nil, Precision{})
	if err != nil {
		t.Fatal(err)
	}
	tk, ok, _ := sess.TryClaim("w1", 60*time.Millisecond)
	if !ok {
		t.Fatal("no task to claim")
	}
	res, err := tk.Spec.RunRep(tk.Rep)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Complete(TaskResult{Point: tk.Point, Rep: tk.Rep, Result: res}); err != nil {
		t.Fatal(err)
	}
	if p := sess.Progress(); p.Leases != 0 {
		t.Fatalf("%d dead leases survive the completion", p.Leases)
	}
	time.Sleep(200 * time.Millisecond) // well past the lease deadline
	if n := sess.Requeues(); n != 0 {
		t.Fatalf("completed task re-queued %d times by a stale lease", n)
	}
	if err := RunLocal(context.Background(), sess, 1); err != nil {
		t.Fatal(err)
	}
	if sess.Executed() != 2 {
		t.Fatalf("executed %d simulations, want 2 (no re-execution)", sess.Executed())
	}
}

// TestCrashedWorkerSweepByteIdentical is the fault-tolerance acceptance
// gate in-process: a sweep served over real HTTP where one worker claims
// tasks and dies mid-execution (never completes, never heartbeats) must
// still finish — via lease expiry and re-queueing — with results
// byte-identical to the serial reference.
func TestCrashedWorkerSweepByteIdentical(t *testing.T) {
	const reps = 2
	ctx := context.Background()
	want, err := serialReference(sweepScenarios(), reps)
	if err != nil {
		t.Fatal(err)
	}

	sess, err := NewSession(sweepPoints(reps), nil, Precision{})
	if err != nil {
		t.Fatal(err)
	}
	sv := NewServer()
	sv.LeaseTTL = 50 * time.Millisecond
	sv.Attach(sess)
	hs := httptest.NewServer(sv)
	defer hs.Close()

	// The crashing worker: claims two tasks over the real wire and then
	// vanishes without heartbeating — exactly what a SIGKILL looks like
	// to the coordinator.
	crash := Worker{Coordinator: hs.URL, ID: "crashy"}
	client := hs.Client()
	for i := 0; i < 2; i++ {
		wt, status, err := crash.fetchTask(ctx, client, hs.URL)
		if err != nil || status != 200 {
			t.Fatalf("crashy worker claim %d: status %d err %v", i, status, err)
		}
		if wt.Lease == 0 || wt.LeaseMS != 50 {
			t.Fatalf("dispatched task lease=%d leaseMS=%d, want a 50ms lease", wt.Lease, wt.LeaseMS)
		}
	}

	// One healthy worker finishes everything the crash left behind.
	var wg sync.WaitGroup
	wg.Add(1)
	var werr error
	go func() {
		defer wg.Done()
		w := Worker{Coordinator: hs.URL, ID: "healthy", Parallel: 2, Poll: 5 * time.Millisecond}
		werr = w.Run(ctx)
	}()
	if err := sess.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	sv.Close()
	wg.Wait()
	if werr != nil {
		t.Fatal(werr)
	}

	if sess.Requeues() < 2 {
		t.Fatalf("requeues = %d, want ≥ 2 (both abandoned tasks)", sess.Requeues())
	}
	got, err := sess.Results()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("crash-recovered sweep differs from the serial reference")
	}
}

// TestWorkerAbandonsSupersededLease: a live-but-slow worker whose lease
// the coordinator revoked learns it from the heartbeat 409 and does not
// post its result (which would be discarded anyway).
func TestWorkerAbandonsSupersededLease(t *testing.T) {
	sc := tinyScenario(core.ProtoCharisma, 8, 0)
	sess, err := NewSession([]Point{{Spec: ScenarioSpec(sc), Replications: 1}}, nil, Precision{})
	if err != nil {
		t.Fatal(err)
	}
	sv := NewServer()
	sv.LeaseTTL = 25 * time.Millisecond
	sv.Attach(sess)
	hs := httptest.NewServer(sv)
	defer hs.Close()

	slow := Worker{Coordinator: hs.URL, ID: "slow"}
	wt, status, err := slow.fetchTask(context.Background(), hs.Client(), hs.URL)
	if err != nil || status != 200 {
		t.Fatalf("claim failed: status %d err %v", status, err)
	}
	// Let the lease lapse, as if the simulation were enormous.
	waitUntil(t, 2*time.Second, func() bool { return sess.Requeues() == 1 })
	renewed, err := postBeat(context.Background(), hs.Client(), hs.URL, wt.Session, wt.Lease)
	if err != nil {
		t.Fatal(err)
	}
	if renewed {
		t.Fatal("heartbeat renewed a superseded lease")
	}
}

// TestProgressStreaming: subscribers see monotonically growing versions,
// per-point settlement with live aggregates, and a final Done snapshot
// whose per-point aggregates equal the session's Results.
func TestProgressStreaming(t *testing.T) {
	ctx := context.Background()
	sess, err := NewSession(sweepPoints(2), nil, Precision{})
	if err != nil {
		t.Fatal(err)
	}
	sub := sess.Subscribe(ctx)
	done := make(chan []Progress)
	go func() {
		var seen []Progress
		for p := range sub {
			seen = append(seen, p)
		}
		done <- seen
	}()
	if err := RunLocal(ctx, sess, 2); err != nil {
		t.Fatal(err)
	}
	seen := <-done
	if len(seen) == 0 {
		t.Fatal("no progress snapshots delivered")
	}
	last := seen[len(seen)-1]
	if !last.Done {
		t.Fatal("final snapshot not marked Done")
	}
	for i := 1; i < len(seen); i++ {
		if seen[i].Version <= seen[i-1].Version {
			t.Fatalf("versions not increasing: %d then %d", seen[i-1].Version, seen[i].Version)
		}
	}
	want, err := sess.Results()
	if err != nil {
		t.Fatal(err)
	}
	if len(last.Points) != len(want) {
		t.Fatalf("final snapshot has %d points, want %d", len(last.Points), len(want))
	}
	for j, pp := range last.Points {
		if !pp.Settled || pp.Done != 2 || pp.Scheduled != 2 {
			t.Fatalf("point %d final state %+v not settled at 2 reps", j, pp)
		}
		if !reflect.DeepEqual(pp.Aggregate, want[j]) {
			t.Fatalf("point %d final aggregate differs from Results", j)
		}
	}
}

// TestProgressOverHTTP: GET /progress serves the live snapshot.
func TestProgressOverHTTP(t *testing.T) {
	ctx := context.Background()
	sess, err := NewSession(sweepPoints(1), nil, Precision{})
	if err != nil {
		t.Fatal(err)
	}
	sv := NewServer()
	sv.Attach(sess)
	hs := httptest.NewServer(sv)
	defer hs.Close()
	if err := RunLocal(ctx, sess, 0); err != nil {
		t.Fatal(err)
	}
	resp, err := hs.Client().Get(hs.URL + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/progress answered %d", resp.StatusCode)
	}
	var p Progress
	if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
		t.Fatal(err)
	}
	if !p.Done || len(p.Points) != len(sweepScenarios()) {
		t.Fatalf("progress snapshot %+v not the settled sweep", p)
	}
}
