package grid

import (
	"context"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"charisma/internal/core"
	"charisma/internal/mac"
	"charisma/internal/rng"
)

// skipThenAuditSeed finds a seed whose audit coin at Frac 0.5 skips the
// first remote result and audits the second: the sequence that leaves an
// unaudited result on the books when the quarantine fires.
func skipThenAuditSeed() int64 {
	for seed := int64(0); ; seed++ {
		st := rng.Derive(seed, "grid", "audit")
		if !st.Bernoulli(0.5) && st.Bernoulli(0.5) {
			return seed
		}
	}
}

// claim hands worker the next task under a one-minute lease.
func claim(t *testing.T, s *Session, worker string) Task {
	t.Helper()
	tk, ok, _ := s.TryClaim(worker, time.Minute)
	if !ok {
		t.Fatalf("%s got no task", worker)
	}
	return tk
}

// post completes tk under its lease with the honest result, or with one
// whose Frames is off by one (a lie that always changes the bytes).
func post(t *testing.T, s *Session, tk Task, lie bool) {
	t.Helper()
	res, err := tk.Spec.RunRep(tk.Rep)
	if err != nil {
		t.Fatal(err)
	}
	if lie {
		res.Frames++
	}
	if err := s.Complete(TaskResult{Point: tk.Point, Rep: tk.Rep, Lease: tk.Lease, Result: res}); err != nil {
		t.Fatal(err)
	}
}

// waitQuarantined blocks, on progress events, until a worker is
// quarantined.
func waitQuarantined(t *testing.T, s *Session) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	for p := s.Progress(); p.Quarantined == 0; {
		var more bool
		if p, more = s.WaitProgress(ctx, p.Version); !more && p.Quarantined == 0 {
			t.Fatal("session ended without a quarantine")
		}
	}
}

// finishHonestly runs the session's remaining work on two loopback
// workers and returns its results; the bound is far above what the
// tiny sweeps take, and far below a one-minute lease.
func finishHonestly(t *testing.T, s *Session) []mac.Result {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := RunLocal(ctx, s, 2); err != nil {
		t.Fatalf("honest workers did not finish the sweep: %v", err)
	}
	got, err := s.Results()
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestAuditCatchesLyingWorker: with -audit-frac 1, a worker that posts a
// plausible-but-wrong result is caught by local re-execution, the worker
// is quarantined, the oracle's own result lands instead, and the sweep
// finishes byte-identical to the serial reference.
func TestAuditCatchesLyingWorker(t *testing.T) {
	ctx := context.Background()
	want, err := serialReference(sweepScenarios(), 1)
	if err != nil {
		t.Fatal(err)
	}

	sess, err := NewSession(sweepPoints(1), nil, Precision{})
	if err != nil {
		t.Fatal(err)
	}
	sess.EnableAudit(Audit{Frac: 1, Seed: 11})

	// The liar claims one task, computes the honest result, inflates its
	// throughput, and posts the lie under a perfectly valid lease.
	tk, ok, _ := sess.TryClaim("liar", time.Minute)
	if !ok {
		t.Fatal("liar got no task")
	}
	res, err := tk.Spec.RunRep(tk.Rep)
	if err != nil {
		t.Fatal(err)
	}
	res.DataThroughputPerFrame *= 2
	res.DataDelivered += 100
	if err := sess.Complete(TaskResult{Point: tk.Point, Rep: tk.Rep, Lease: tk.Lease, Result: res}); err != nil {
		t.Fatal(err)
	}

	// Honest loopback workers finish the rest; RunLocal only returns once
	// every audit verdict is in (checkDone gates on parked audits).
	if err := RunLocal(ctx, sess, 2); err != nil {
		t.Fatal(err)
	}
	p := sess.Progress()
	if p.Quarantined != 1 {
		t.Fatalf("quarantines = %d, want 1", p.Quarantined)
	}
	if p.AuditsFailed != 1 {
		t.Fatalf("failed audits = %d, want 1", p.AuditsFailed)
	}
	got, err := sess.Results()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("audited sweep differs from the serial reference despite the lie")
	}
}

// TestQuarantinedWorkerGetsNoTasks: once caught, a worker is never
// handed work again, while honest workers still claim normally.
func TestQuarantinedWorkerGetsNoTasks(t *testing.T) {
	sess, err := NewSession(sweepPoints(1), nil, Precision{})
	if err != nil {
		t.Fatal(err)
	}
	sess.EnableAudit(Audit{Frac: 1, Seed: 3})
	tk, ok, _ := sess.TryClaim("liar", time.Minute)
	if !ok {
		t.Fatal("liar got no task before quarantine")
	}
	res, err := tk.Spec.RunRep(tk.Rep)
	if err != nil {
		t.Fatal(err)
	}
	res.VoiceLossRate += 0.5
	if err := sess.Complete(TaskResult{Point: tk.Point, Rep: tk.Rep, Lease: tk.Lease, Result: res}); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 5*time.Second, func() bool { return sess.Progress().Quarantined == 1 })
	if _, ok, _ := sess.TryClaim("liar", 0); ok {
		t.Fatal("quarantined worker was handed a task")
	}
	if _, ok, _ := sess.TryClaim("honest", 0); !ok {
		t.Fatal("honest worker starved by another worker's quarantine")
	}
}

// TestQuarantineUnwindsDeliveredResults: a lie caught on the liar's
// *second* result must also unwind its first — delivered unaudited,
// already in the cache — evicting the cache entry, reopening the slot,
// and re-queueing it for honest re-execution, so nothing the liar
// touched survives.
func TestQuarantineUnwindsDeliveredResults(t *testing.T) {
	ctx := context.Background()
	want, err := serialReference(sweepScenarios(), 1)
	if err != nil {
		t.Fatal(err)
	}

	cache := NewMemCache()
	sess, err := NewSession(sweepPoints(1), cache, Precision{})
	if err != nil {
		t.Fatal(err)
	}
	sess.EnableAudit(Audit{Frac: 0.5, Seed: skipThenAuditSeed()})

	// First result: computed honestly, but the coin skips the audit, so
	// it lands untrusted (tracked provenance, cached).
	tkA, ok, _ := sess.TryClaim("liar", time.Minute)
	if !ok {
		t.Fatal("no first task")
	}
	resA, err := tkA.Spec.RunRep(tkA.Rep)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Complete(TaskResult{Point: tkA.Point, Rep: tkA.Rep, Lease: tkA.Lease, Result: resA}); err != nil {
		t.Fatal(err)
	}
	keyA := sess.repKey(tkA.Point, tkA.Rep)
	if _, hit := cache.Get(keyA); !hit {
		t.Fatal("unaudited result did not reach the cache")
	}

	// Second result: a lie, audited, caught.
	tkB, ok, _ := sess.TryClaim("liar", time.Minute)
	if !ok {
		t.Fatal("no second task")
	}
	resB, err := tkB.Spec.RunRep(tkB.Rep)
	if err != nil {
		t.Fatal(err)
	}
	// Frames is always nonzero, so this lie is guaranteed to change the
	// result's bytes regardless of the scenario's traffic mix.
	resB.Frames++
	if err := sess.Complete(TaskResult{Point: tkB.Point, Rep: tkB.Rep, Lease: tkB.Lease, Result: resB}); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 5*time.Second, func() bool { return sess.Progress().Quarantined == 1 })

	// The quarantine must have evicted the liar's first (honest but
	// untrusted) result and re-queued its task.
	if _, hit := cache.Get(keyA); hit {
		t.Fatal("quarantine left the liar's unaudited result in the cache")
	}
	if sess.Progress().Requeues < 1 {
		t.Fatal("quarantine did not re-queue the liar's delivered result")
	}

	// Honest re-execution finishes the sweep byte-identically.
	if err := RunLocal(ctx, sess, 2); err != nil {
		t.Fatal(err)
	}
	got, err := sess.Results()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("unwound sweep differs from the serial reference")
	}
}

// TestAuditedRemoteSweepByteIdentical: honest workers over real HTTP
// with every result audited — all audits pass, nobody is quarantined,
// and the bytes match the serial reference. The cost of -audit-frac 1
// is re-execution time, never correctness.
func TestAuditedRemoteSweepByteIdentical(t *testing.T) {
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
	sess.EnableAudit(Audit{Frac: 1, Seed: 5})
	sv := NewServer()
	sv.Attach(sess)
	hs := httptest.NewServer(sv)
	defer hs.Close()

	var wg sync.WaitGroup
	workerErrs := make([]error, 2)
	for i := range workerErrs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := Worker{Coordinator: hs.URL, Parallel: 2, Poll: 5 * time.Millisecond}
			workerErrs[i] = w.Run(ctx)
		}(i)
	}
	if err := sess.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	sv.Close()
	wg.Wait()
	for i, werr := range workerErrs {
		if werr != nil {
			t.Fatalf("worker %d: %v", i, werr)
		}
	}
	p := sess.Progress()
	if p.AuditsFailed != 0 || p.Quarantined != 0 {
		t.Fatalf("honest sweep: %d failed audits, %d quarantines", p.AuditsFailed, p.Quarantined)
	}
	if p.AuditsPassed == 0 {
		t.Fatal("audit-frac 1 audited nothing")
	}
	got, err := sess.Results()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("audited remote sweep differs from the serial reference")
	}
}

// TestQuarantineSupersedesLiveLeases: a liar caught while it holds a
// second task under a one-minute lease loses that lease at once, and the
// task goes back to the queue, so honest workers finish the sweep within
// seconds instead of waiting the lease out.
func TestQuarantineSupersedesLiveLeases(t *testing.T) {
	want, err := serialReference(sweepScenarios(), 1)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(sweepPoints(1), nil, Precision{})
	if err != nil {
		t.Fatal(err)
	}
	sess.EnableAudit(Audit{Frac: 1, Seed: 3})
	lie := claim(t, sess, "liar")
	claim(t, sess, "liar") // held under its lease, never posted
	post(t, sess, lie, true)
	if got := finishHonestly(t, sess); !reflect.DeepEqual(want, got) {
		t.Fatal("sweep differs from the serial reference")
	}
	if p := sess.Progress(); p.Quarantined != 1 || p.Requeues != 1 {
		t.Fatalf("%d quarantines, %d re-queues; want 1 and 1 (the held task)", p.Quarantined, p.Requeues)
	}
}

// TestQuarantineDiscardsParkedAudits: results the liar has parked for
// audit when it is caught are not worth re-executing against; they are
// dropped and their tasks re-queued, so only the first lie counts as a
// failed audit.
func TestQuarantineDiscardsParkedAudits(t *testing.T) {
	want, err := serialReference(sweepScenarios(), 1)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(sweepPoints(1), nil, Precision{})
	if err != nil {
		t.Fatal(err)
	}
	// Arm the audit as EnableAudit does, but start the executor only once
	// both lies are parked, so the second is still parked at the verdict.
	sess.mu.Lock()
	sess.audit = Audit{Frac: 1}
	sess.mu.Unlock()
	first, second := claim(t, sess, "liar"), claim(t, sess, "liar")
	post(t, sess, first, true)
	post(t, sess, second, true)
	go sess.auditLoop()
	if got := finishHonestly(t, sess); !reflect.DeepEqual(want, got) {
		t.Fatal("sweep differs from the serial reference")
	}
	if p := sess.Progress(); p.AuditsFailed != 1 || p.Requeues != 1 {
		t.Fatalf("%d failed audits, %d re-queues; want 1 and 1 (the parked lie)", p.AuditsFailed, p.Requeues)
	}
}

// TestAuditFailsClaimedSuccess: a worker that claims success for a
// replication whose re-execution fails is caught by that failure alone,
// and the slot fails with the re-execution's error.
func TestAuditFailsClaimedSuccess(t *testing.T) {
	bad := tinyScenario(core.ProtoCharisma, 8, 0)
	bad.NumVoice = -1 // the spec checks its shape only; the run rejects it
	sess, err := NewSession([]Point{{Spec: ScenarioSpec(bad), Replications: 1}}, nil, Precision{})
	if err != nil {
		t.Fatal(err)
	}
	sess.EnableAudit(Audit{Frac: 1, Seed: 3})
	tk := claim(t, sess, "liar")
	if err := sess.Complete(TaskResult{Point: tk.Point, Rep: tk.Rep, Lease: tk.Lease, Result: mac.Result{Frames: 400}}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := sess.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	p := sess.Progress()
	if p.AuditsFailed != 1 || p.Quarantined != 1 || p.Points[0].Failed != 1 {
		t.Fatalf("%d failed audits, %d quarantines, %d failed reps; want 1 each", p.AuditsFailed, p.Quarantined, p.Points[0].Failed)
	}
	if _, err := sess.Results(); err == nil || !strings.Contains(err.Error(), "negative station count") {
		t.Fatalf("results error %v, want the re-execution's rejection", err)
	}
}

// The two tests below share one sweep: points 0 and 1 run the same spec,
// with 1 and 2 initial replications, so point 0's growth to its cap of 2
// asks for the key the liar already delivered for point 1's rep 1.
func sharedKeySweep() ([]Point, Precision) {
	scs := sweepScenarios()
	return []Point{
		{Spec: ScenarioSpec(scs[0]), Replications: 1},
		{Spec: ScenarioSpec(scs[0]), Replications: 2},
		{Spec: ScenarioSpec(scs[1]), Replications: 1},
	}, Precision{TargetRel: 1e-9, MaxReps: 2}
}

// unwindSharedKey drives sharedKeySweep on cache: an honest worker takes
// the shared rep 0, the liar delivers point 1's rep 1 unaudited (as a
// lie when lieFirst), then the honest rep 0 lands and grows point 0, and
// the liar's lie on point 2 is audited and caught. It returns once the
// quarantine has fired.
func unwindSharedKey(t *testing.T, cache Cache, lieFirst bool) *Session {
	t.Helper()
	pts, prec := sharedKeySweep()
	sess, err := NewSession(pts, cache, prec)
	if err != nil {
		t.Fatal(err)
	}
	sess.EnableAudit(Audit{Frac: 0.5, Seed: skipThenAuditSeed()})
	shared := claim(t, sess, "")
	unaudited, caught := claim(t, sess, "liar"), claim(t, sess, "liar")
	post(t, sess, unaudited, lieFirst)
	post(t, sess, shared, false)
	post(t, sess, caught, true)
	waitQuarantined(t, sess)
	return sess
}

func sharedKeyReference(t *testing.T) []mac.Result {
	t.Helper()
	pts, prec := sharedKeySweep()
	want, err := RunPoints(context.Background(), pts, DriveConfig{Precision: prec, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// TestQuarantineReopensCacheHitSlots: a slot served from the cache by
// the liar's unaudited result is recorded against it, so the quarantine
// reopens that slot too and honest re-execution replaces the lie in
// every point that consumed it.
func TestQuarantineReopensCacheHitSlots(t *testing.T) {
	want := sharedKeyReference(t)
	sess := unwindSharedKey(t, NewMemCache(), true)
	if got := finishHonestly(t, sess); !reflect.DeepEqual(want, got) {
		t.Fatal("a slot that read the liar's result from the cache kept the lie")
	}
	if p := sess.Progress(); p.Requeues != 1 {
		t.Fatalf("%d re-queues, want 1 (the shared key, once)", p.Requeues)
	}
}

// TestQuarantineJoinsTaskInFlight: when the evicted key is already out
// again (here a cache that keeps nothing made point 0's growth schedule
// it afresh), the reopened slots join that task instead of replacing its
// waiters with their own, so one honest run serves both points.
func TestQuarantineJoinsTaskInFlight(t *testing.T) {
	want := sharedKeyReference(t)
	sess := unwindSharedKey(t, noCache{}, false)
	if got := finishHonestly(t, sess); !reflect.DeepEqual(want, got) {
		t.Fatal("sweep differs from the honest reference")
	}
	if p := sess.Progress(); p.Requeues != 0 {
		t.Fatalf("%d re-queues, want 0: the reopened slots join the task already out", p.Requeues)
	}
}

// noCache keeps nothing: every slot that asks for a key simulates it.
type noCache struct{}

func (noCache) Get(string) (mac.Result, bool) { return mac.Result{}, false }
func (noCache) Put(string, mac.Result)        {}
func (noCache) Delete(string)                 {}
