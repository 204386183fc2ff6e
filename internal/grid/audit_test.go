package grid

import (
	"context"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"charisma/internal/rng"
)

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

	// Find a seed whose audit coin skips the first remote result and
	// audits the second — the exact sequence that leaves an unaudited
	// result on the books when the quarantine fires.
	var seed int64
	for {
		st := rng.Derive(seed, "grid", "audit")
		if !st.Bernoulli(0.5) && st.Bernoulli(0.5) {
			break
		}
		seed++
	}

	cache := NewMemCache()
	sess, err := NewSession(sweepPoints(1), cache, Precision{})
	if err != nil {
		t.Fatal(err)
	}
	sess.EnableAudit(Audit{Frac: 0.5, Seed: seed})

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
