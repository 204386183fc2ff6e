package chaos

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"charisma/internal/core"
	"charisma/internal/grid"
)

func e2eScenarios() []core.Scenario {
	var scs []core.Scenario
	for _, nd := range []int{0, 4} {
		sc := core.DefaultScenario(core.ProtoCharisma)
		sc.NumVoice, sc.NumData = 8, nd
		sc.Seed = 7
		sc.WarmupSec, sc.DurationSec = 0.3, 1.0
		scs = append(scs, sc)
	}
	return scs
}

// TestInjectCacheFaultsDetectedByGrid: every entry the injector perturbs
// must be caught by the disk cache's integrity check — detected,
// quarantined, recomputed; never served.
func TestInjectCacheFaultsDetectedByGrid(t *testing.T) {
	dir := t.TempDir()
	c := grid.NewDiskCache(dir, nil)
	var keys []string
	for i := int64(0); i < 4; i++ {
		key := grid.RepKey("deadbeef", i)
		keys = append(keys, key)
		r, err := grid.ScenarioSpec(e2eScenarios()[0]).RunRep(int(i))
		if err != nil {
			t.Fatal(err)
		}
		c.Put(key, r)
	}
	p := NewPlan(3, Rates{CacheFlip: 1})
	cf, err := p.InjectCacheFaults(dir)
	if err != nil {
		t.Fatal(err)
	}
	if cf.Entries != 4 || cf.Flipped != 4 {
		t.Fatalf("injector touched %+v, want all 4 flipped", cf)
	}
	for _, key := range keys {
		if _, ok := c.Get(key); ok {
			t.Fatalf("perturbed entry %s served as a hit", key)
		}
	}
	if n := c.Stats().DiskCorrupt; n != 4 {
		t.Fatalf("DiskCorrupt = %d, want 4", n)
	}
}

// TestChaoticSweepByteIdentical is the chaos acceptance gate in-process:
// a sweep over real HTTP with one worker injecting wire faults on every
// class and one worker lying on every result must still finish — via
// backoff, retries, lease re-queueing, and the byzantine audit — with
// results byte-identical to a fault-free loopback sweep (which the grid
// tests pin to the serial reference), and with the liar quarantined.
func TestChaoticSweepByteIdentical(t *testing.T) {
	const reps = 2
	ctx := context.Background()
	scs := e2eScenarios()
	pts := make([]grid.Point, len(scs))
	for i, sc := range scs {
		pts[i] = grid.Point{Spec: grid.ScenarioSpec(sc), Replications: reps}
	}
	want, err := grid.RunPoints(ctx, pts, grid.DriveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := grid.NewSession(pts, nil, grid.Precision{})
	if err != nil {
		t.Fatal(err)
	}
	sess.EnableAudit(grid.Audit{Frac: 1, Seed: 9, Workers: 2})
	sv := grid.NewServer()
	sv.LeaseTTL = 250 * time.Millisecond
	sv.Attach(sess)
	hs := httptest.NewServer(sv)
	defer hs.Close()

	flaky := NewPlan(42, Rates{Drop: 0.1, Dup: 0.1, Trunc: 0.1, Err500: 0.05, Err503: 0.05, Delay: 0.2, DelayMax: 5 * time.Millisecond})
	liar := NewPlan(43, Rates{Lie: 1})

	// The liar claims and completes one task up front — before the honest
	// fleet can drain the queue — so the byzantine path fires on every
	// run instead of racing for a claim.
	tk, ok, _ := sess.TryClaim("liar", time.Minute)
	if !ok {
		t.Fatal("liar got no task")
	}
	res, err := tk.Spec.RunRep(tk.Rep)
	if err != nil {
		t.Fatal(err)
	}
	liar.CorruptResult(tk.Point, tk.Rep, &res)
	if err := sess.Complete(grid.TaskResult{Point: tk.Point, Rep: tk.Rep, Lease: tk.Lease, Result: res}); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	start := func(w grid.Worker) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Worker errors are tolerated here: a chaotic worker may idle
			// out or trip a fault mid-claim; the sweep must finish anyway.
			_ = w.Run(ctx)
		}()
	}
	start(grid.Worker{
		Coordinator: hs.URL, ID: "flaky", Parallel: 2, Poll: 5 * time.Millisecond,
		Client: &http.Client{Timeout: 5 * time.Second, Transport: flaky.Transport(nil)},
	})
	// A lying worker over the wire as well — it may or may not win a
	// claim against the honest fleet, but if it does, the audit catches
	// it; the up-front lie above guarantees at least one quarantine.
	start(grid.Worker{
		Coordinator: hs.URL, ID: "wire-liar", Parallel: 1, Poll: 5 * time.Millisecond,
		CorruptResult: liar.CorruptResult,
	})
	// One honest worker guarantees progress even while chaos rages.
	start(grid.Worker{Coordinator: hs.URL, ID: "honest", Parallel: 2, Poll: 5 * time.Millisecond})

	if err := sess.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	sv.Close()
	wg.Wait()

	if sess.Quarantines() < 1 {
		t.Fatal("the lying worker was never quarantined")
	}
	got, err := sess.Results()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("chaotic sweep differs from the loopback reference")
	}
}
