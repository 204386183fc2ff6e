package grid

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"charisma/internal/core"
	"charisma/internal/mac"
)

// longPoint is one replication that runs for minutes unless cancelled.
func longPoint() []Point {
	sc := tinyScenario(core.ProtoCharisma, 60, 0)
	sc.DurationSec = 600
	return []Point{{Spec: ScenarioSpec(sc), Replications: 1}}
}

// awaitErr returns what errc delivers, failing the test after d.
func awaitErr(t *testing.T, errc <-chan error, d time.Duration) error {
	t.Helper()
	select {
	case err := <-errc:
		return err
	case <-time.After(d):
		t.Fatalf("still running %v after the cancel", d)
		return nil
	}
}

// TestRunLocalDropsCancelledReplication: a loopback lane cut short
// mid-replication by a cancel returns promptly and records nothing: the
// slot is neither completed nor failed, and nothing reaches the cache.
func TestRunLocalDropsCancelledReplication(t *testing.T) {
	cache := NewMemCache()
	sess, err := NewSession(longPoint(), cache, Precision{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() { errc <- RunLocal(ctx, sess, 1) }()
	waitUntil(t, 5*time.Second, func() bool { return sess.Progress().Leases == 1 })
	time.Sleep(50 * time.Millisecond) // well into the replication
	cancel()
	if err := awaitErr(t, errc, 5*time.Second); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunLocal returned %v, want context.Canceled", err)
	}
	p := sess.Progress().Points[0]
	if p.Done != 0 || p.Failed != 0 {
		t.Fatalf("cancelled replication recorded: %d done, %d failed", p.Done, p.Failed)
	}
	if n := cache.Len(); n != 0 {
		t.Fatalf("cancelled replication reached the cache (%d entries)", n)
	}
}

// countingCache counts the Puts that reach a worker-local cache.
type countingCache struct {
	Cache
	puts atomic.Int64
}

func (c *countingCache) Put(key string, r mac.Result) {
	c.puts.Add(1)
	c.Cache.Put(key, r)
}

// TestWorkerDropsCancelledTask: an HTTP worker cancelled mid-task posts
// no result and caches nothing; it counts the task abandoned and leaves
// the lease to lapse.
func TestWorkerDropsCancelledTask(t *testing.T) {
	sess, err := NewSession(longPoint(), nil, Precision{})
	if err != nil {
		t.Fatal(err)
	}
	sv := NewServer()
	sv.Attach(sess)
	defer sv.Close()
	var posts atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/result" {
			posts.Add(1)
		}
		sv.ServeHTTP(w, r)
	}))
	defer hs.Close()

	cache := &countingCache{Cache: NewMemCache()}
	stats := new(WorkerStats)
	w := Worker{Coordinator: hs.URL, ID: "cancelled", Parallel: 1, Poll: 5 * time.Millisecond, Cache: cache, Stats: stats}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() { errc <- w.Run(ctx) }()
	waitUntil(t, 5*time.Second, func() bool { return stats.Claimed.Load() == 1 })
	time.Sleep(50 * time.Millisecond) // well into the replication
	cancel()
	if err := awaitErr(t, errc, 5*time.Second); !errors.Is(err, context.Canceled) {
		t.Fatalf("worker returned %v, want context.Canceled", err)
	}
	if n := posts.Load(); n != 0 {
		t.Fatalf("cancelled worker posted %d results", n)
	}
	if n := cache.puts.Load(); n != 0 {
		t.Fatalf("cancelled replication reached the worker-local cache (%d puts)", n)
	}
	if s := stats.Snapshot(); s.Abandoned != 1 || s.Completed != 0 {
		t.Fatalf("worker stats %+v, want the task abandoned and none completed", s)
	}
}
