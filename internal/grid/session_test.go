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
	"charisma/internal/multicell"
	"charisma/internal/run"
)

func sweepScenarios() []core.Scenario {
	return []core.Scenario{
		tinyScenario(core.ProtoCharisma, 8, 0),
		tinyScenario(core.ProtoRAMA, 8, 0),
		tinyScenario(core.ProtoCharisma, 8, 4),
	}
}

// serialReference is the oracle every sweep path is held to: each
// replication of each scenario run in turn under run.RepSeed, folded per
// scenario by mac.AggregateReplications.
func serialReference(scs []core.Scenario, reps int) ([]mac.Result, error) {
	out := make([]mac.Result, len(scs))
	for j, base := range scs {
		runs := make([]mac.Result, reps)
		for i := range runs {
			sc := base
			sc.Seed = run.RepSeed(base.Seed, i)
			var err error
			if runs[i], err = sc.Run(); err != nil {
				return nil, err
			}
		}
		out[j] = mac.AggregateReplications(runs)
	}
	return out, nil
}

func sweepPoints(reps int) []Point {
	scs := sweepScenarios()
	pts := make([]Point, len(scs))
	for i, sc := range scs {
		pts[i] = Point{Spec: ScenarioSpec(sc), Replications: reps}
	}
	return pts
}

// TestGridPathsByteIdentical is the acceptance gate for the subsystem: a
// replicated sweep must produce byte-identical mac.Results on every
// execution path — loopback grid, multi-worker grid, and warm cache —
// and match the serial reference.
func TestGridPathsByteIdentical(t *testing.T) {
	const reps = 3
	ctx := context.Background()

	// The reference: every replication run in turn.
	want, err := serialReference(sweepScenarios(), reps)
	if err != nil {
		t.Fatal(err)
	}

	// Path 1: grid session on the loopback transport.
	loop, err := NewSession(sweepPoints(reps), nil, Precision{})
	if err != nil {
		t.Fatal(err)
	}
	if err := RunLocal(ctx, loop, 4); err != nil {
		t.Fatal(err)
	}
	got, err := loop.Results()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("loopback grid differs from the serial reference")
	}

	// Path 2: coordinator + two workers over real HTTP.
	sess, err := NewSession(sweepPoints(reps), nil, Precision{})
	if err != nil {
		t.Fatal(err)
	}
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
	sv.Close() // workers see 410 and drain
	wg.Wait()
	for i, werr := range workerErrs {
		if werr != nil {
			t.Fatalf("worker %d: %v", i, werr)
		}
	}
	got, err = sess.Results()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("multi-worker grid differs from the serial reference")
	}
	if sess.Progress().Executed == 0 {
		t.Fatal("remote workers executed nothing")
	}

	// Path 3: warm cache — populate a disk cache, then re-run the sweep
	// against it: zero simulations, identical bytes.
	cache := NewCache(t.TempDir())
	first, err := NewSession(sweepPoints(reps), cache, Precision{})
	if err != nil {
		t.Fatal(err)
	}
	if err := RunLocal(ctx, first, 0); err != nil {
		t.Fatal(err)
	}
	warm, err := NewSession(sweepPoints(reps), cache, Precision{})
	if err != nil {
		t.Fatal(err)
	}
	p := warm.Progress()
	if !p.Done {
		t.Fatal("fully cached session not immediately done")
	}
	if p.Executed != 0 {
		t.Fatalf("warm cache ran %d simulations", p.Executed)
	}
	if p.CacheHits != reps*len(sweepScenarios()) {
		t.Fatalf("cache hits = %d, want %d", p.CacheHits, reps*len(sweepScenarios()))
	}
	got, err = warm.Results()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("warm cache differs from the serial reference")
	}
}

// TestGridWarmCacheZeroSims re-runs a sweep against a cold-then-warm disk
// cache through the loopback path: the second run must not simulate.
func TestGridWarmCacheZeroSims(t *testing.T) {
	ctx := context.Background()
	cache := NewCache(t.TempDir())
	for pass, wantExec := range []bool{true, false} {
		sess, err := NewSession(sweepPoints(2), cache, Precision{})
		if err != nil {
			t.Fatal(err)
		}
		if err := RunLocal(ctx, sess, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Results(); err != nil {
			t.Fatal(err)
		}
		executed := sess.Progress().Executed
		if wantExec && executed == 0 {
			t.Fatalf("pass %d: cold cache executed nothing", pass)
		}
		if !wantExec && executed != 0 {
			t.Fatalf("pass %d: warm cache executed %d simulations", pass, executed)
		}
	}
}

// TestSessionDedupsIdenticalPoints: two points with the same spec share
// simulations — the (spec, seed) pair runs once and feeds both.
func TestSessionDedupsIdenticalPoints(t *testing.T) {
	sc := tinyScenario(core.ProtoCharisma, 8, 0)
	pts := []Point{
		{Spec: ScenarioSpec(sc), Replications: 2},
		{Spec: ScenarioSpec(sc), Replications: 2},
	}
	sess, err := NewSession(pts, nil, Precision{})
	if err != nil {
		t.Fatal(err)
	}
	if err := RunLocal(context.Background(), sess, 2); err != nil {
		t.Fatal(err)
	}
	rs, err := sess.Results()
	if err != nil {
		t.Fatal(err)
	}
	if n := sess.Progress().Executed; n != 2 {
		t.Fatalf("executed %d simulations, want 2 (deduplicated)", n)
	}
	if !reflect.DeepEqual(rs[0], rs[1]) {
		t.Fatal("deduplicated points disagree")
	}
}

// TestSessionPartialFailure: a failing spec costs its own point, not the
// sweep — healthy points aggregate normally alongside the joined error.
func TestSessionPartialFailure(t *testing.T) {
	bad := tinyScenario(core.ProtoCharisma, 8, 0)
	bad.Channel.ShadowSigmaDB = -1 // fails validation inside Scenario.Run
	pts := []Point{
		{Spec: ScenarioSpec(tinyScenario(core.ProtoCharisma, 8, 0)), Replications: 2},
		{Spec: ScenarioSpec(bad), Replications: 2},
	}
	sess, err := NewSession(pts, nil, Precision{})
	if err != nil {
		t.Fatal(err)
	}
	if err := RunLocal(context.Background(), sess, 2); err != nil {
		t.Fatal(err)
	}
	rs, err := sess.Results()
	if err == nil || !strings.Contains(err.Error(), "shadow sigma") {
		t.Fatalf("error %v does not surface the failure", err)
	}
	if rs[0].Frames == 0 || rs[0].Reps.Replications != 2 {
		t.Fatalf("healthy point lost: %+v", rs[0])
	}
	if !reflect.DeepEqual(rs[1], mac.Result{}) {
		t.Fatalf("failed point not zero: %+v", rs[1])
	}
}

// TestSessionStrayResultsIgnored: duplicate and unknown deliveries must
// not corrupt session state or plant entries in the shared cache.
func TestSessionStrayResultsIgnored(t *testing.T) {
	cache := NewMemCache()
	sess, err := NewSession(sweepPoints(1), cache, Precision{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Complete(TaskResult{Point: 99, Rep: 0}); err == nil {
		t.Fatal("unknown point accepted")
	}
	if err := sess.Complete(TaskResult{Point: 0, Rep: -1}); err == nil {
		t.Fatal("negative rep accepted")
	}
	// A result for a rep that was never scheduled must never reach the
	// cache, where a later, wider sweep of the same spec would hit it.
	// Without a lease it is rejected; under a live lease for another task
	// it is dropped quietly and the lease stays good for its own task.
	stray := mac.Result{Protocol: "forged"}
	if err := sess.Complete(TaskResult{Point: 0, Rep: 57, Result: stray}); err == nil {
		t.Fatal("lease-less stray result accepted")
	}
	tk, ok, _ := sess.TryClaim("w1", 0)
	if !ok {
		t.Fatal("no task to claim")
	}
	if err := sess.Complete(TaskResult{Point: tk.Point, Rep: 57, Lease: tk.Lease, Result: stray}); err != nil {
		t.Fatalf("stray rep under a live lease should be dropped quietly, got %v", err)
	}
	if n := cache.Len(); n != 0 {
		t.Fatalf("stray result reached the cache (%d entries)", n)
	}
	res, err := tk.Spec.RunRep(tk.Rep)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Complete(TaskResult{Point: tk.Point, Rep: tk.Rep, Lease: tk.Lease, Result: res}); err != nil {
		t.Fatal(err)
	}
	if err := RunLocal(context.Background(), sess, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Results(); err != nil {
		t.Fatal(err)
	}
	if n := cache.Len(); n != len(sweepScenarios()) {
		t.Fatalf("cache holds %d entries, want one per scheduled task (%d)", n, len(sweepScenarios()))
	}
}

// TestMulticellSpecMatchesRunReplicated: a multicell point through a
// session agrees with multicell.RunReplicated, which pools the same
// replications by its own path. Frames counts the window once per cell
// frame rather than once per deployment frame; the per-cell-frame
// throughput and every other field are the same.
func TestMulticellSpecMatchesRunReplicated(t *testing.T) {
	p := tinyMulticell()
	p.NumData = 4 // data traffic: the throughput normalization must survive the fold
	const reps = 2
	want, err := multicell.RunReplicated(context.Background(), p, reps)
	if err != nil {
		t.Fatal(err)
	}
	if want.DataDelivered == 0 {
		t.Fatal("deployment delivered no data; normalization not exercised")
	}
	sess, err := NewSession([]Point{{Spec: MulticellSpec(p), Replications: reps}}, nil, Precision{})
	if err != nil {
		t.Fatal(err)
	}
	if err := RunLocal(context.Background(), sess, 2); err != nil {
		t.Fatal(err)
	}
	rs, err := sess.Results()
	if err != nil {
		t.Fatal(err)
	}
	got := rs[0]
	if expect := want.Frames / float64(p.Cells); got.Frames != expect {
		t.Fatalf("Frames %v, want %v (per-cell-frame normalization)", got.Frames, expect)
	}
	if got.DataThroughputPerFrame != want.DataThroughputPerFrame {
		t.Fatalf("throughput %v, RunReplicated %v", got.DataThroughputPerFrame, want.DataThroughputPerFrame)
	}
	got.Frames = want.Frames
	got.InfoUtilization = want.InfoUtilization // frame-weighted; weights differ only by the constant cell factor
	if got != want.Result {
		t.Fatalf("multicell spec differs from RunReplicated beyond normalization:\n%+v\n%+v", got, want.Result)
	}
}

// TestNewSessionPrefetchMatchesSerial: NewSession resolves its initial
// replications with parallel cache Gets, one per distinct key. Over a
// tiered mem+disk stack with keys repeated across points, the slots, the
// queued misses, the hit count and the cache's own counters must be the
// same on every run and equal to a serial walk of the distinct keys in
// (point, rep) order.
func TestNewSessionPrefetchMatchesSerial(t *testing.T) {
	a, b, c := tinyScenario(core.ProtoCharisma, 8, 0), tinyScenario(core.ProtoRAMA, 8, 0), tinyScenario(core.ProtoDRMA, 0, 4)
	pts := []Point{
		{ScenarioSpec(a), 3}, {ScenarioSpec(b), 2}, {ScenarioSpec(a), 2}, {ScenarioSpec(c), 1},
		{ScenarioSpec(b), 3}, {ScenarioSpec(a), 1}, {ScenarioSpec(c), 2},
	}
	type slot struct{ point, rep int }
	var slots []slot
	var keys []string
	for j, pt := range pts {
		h, err := pt.Spec.Hash()
		if err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < pt.Replications; rep++ {
			slots = append(slots, slot{j, rep})
			keys = append(keys, RepKey(h, run.RepSeed(pt.Spec.BaseSeed(), rep)))
		}
	}

	// Warm part of the disk: every key except b's rep 2 and all of c's.
	dir := t.TempDir()
	disk := NewDiskCache(dir, nil)
	stored := map[string]mac.Result{}
	for i, k := range keys {
		p := pts[slots[i].point].Spec.Scenario.Protocol
		if _, ok := stored[k]; ok || p == core.ProtoDRMA || p == core.ProtoRAMA && slots[i].rep == 2 {
			continue
		}
		stored[k] = mac.Result{Protocol: p, Frames: float64(len(stored)) + 0.25, VoiceLossRate: 1 / float64(i+3)}
		disk.Put(k, stored[k])
	}

	// The serial reference: one Get per distinct key, in slot order.
	ref := Tiered(NewMemCache(), NewDiskCache(dir, nil))
	answer := map[string]bool{}
	var wantQueue []slot
	wantHits := 0
	for i, k := range keys {
		hit, seen := answer[k]
		if !seen {
			_, hit = ref.Get(k)
			answer[k] = hit
			if !hit {
				wantQueue = append(wantQueue, slots[i])
			}
		}
		if hit {
			wantHits++
		}
	}
	wantStats := ref.(StatsReporter).Stats()

	for trial := 0; trial < 8; trial++ {
		cache := Tiered(NewMemCache(), NewDiskCache(dir, nil))
		sess, err := NewSession(pts, cache, Precision{})
		if err != nil {
			t.Fatal(err)
		}
		for i, k := range keys {
			st := sess.states[slots[i].point]
			want, hit := stored[k]
			if st.ok[slots[i].rep] != hit || !reflect.DeepEqual(st.results[slots[i].rep], want) {
				t.Fatalf("trial %d slot %v: ok %v result %+v, want %v %+v", trial, slots[i], st.ok[slots[i].rep], st.results[slots[i].rep], hit, want)
			}
		}
		var queue []slot
		for _, tk := range sess.queue {
			queue = append(queue, slot{tk.Point, tk.Rep})
		}
		if !reflect.DeepEqual(queue, wantQueue) {
			t.Fatalf("trial %d: queued %v, want %v", trial, queue, wantQueue)
		}
		if hits := sess.Progress().CacheHits; hits != wantHits {
			t.Fatalf("trial %d: %d hits, want %d", trial, hits, wantHits)
		}
		if got := cache.(StatsReporter).Stats(); got != wantStats {
			t.Fatalf("trial %d: cache stats %+v, want %+v", trial, got, wantStats)
		}
	}

	// Fully warm: every run is done at once with identical Results.
	warm := []Point{pts[0], pts[1], pts[2], pts[5]}
	var first []mac.Result
	for trial := 0; trial < 4; trial++ {
		sess, err := NewSession(warm, Tiered(NewMemCache(), NewDiskCache(dir, nil)), Precision{})
		if err != nil {
			t.Fatal(err)
		}
		if !sess.Progress().Done {
			t.Fatal("fully cached session not done")
		}
		rs, err := sess.Results()
		if err != nil {
			t.Fatal(err)
		}
		if trial == 0 {
			first = rs
		} else if !reflect.DeepEqual(rs, first) {
			t.Fatalf("trial %d: Results differ from trial 0", trial)
		}
	}
}

// TestSessionContextCancellation: cancelling the context unblocks workers
// and Results reports the incomplete session.
func TestSessionContextCancellation(t *testing.T) {
	sess, err := NewSession(sweepPoints(2), nil, Precision{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := RunLocal(ctx, sess, 2); err == nil {
		t.Fatal("cancelled RunLocal returned nil")
	}
	if _, err := sess.Results(); err == nil || !strings.Contains(err.Error(), "incomplete") {
		t.Fatalf("results on cancelled session: %v", err)
	}
}
