package grid

import (
	"context"
	"runtime"
	"sync"

	"charisma/internal/mac"
)

// DriveConfig bundles everything needed to run a batch of points end to
// end; the zero value means in-memory cache, fixed replications, loopback
// workers one-per-core.
type DriveConfig struct {
	// Cache resolves replications before simulating (nil = in-memory).
	Cache Cache
	// Precision enables adaptive replication when TargetRel > 0.
	Precision Precision
	// Workers bounds the loopback pool (below 1 = one per core).
	Workers int
	// Server, when non-nil, also exposes the session to remote workers.
	Server *Server
	// RemoteOnly skips the loopback pool: only remote workers simulate.
	RemoteOnly bool
	// Audit, when enabled (Frac > 0), re-executes a seeded fraction of
	// remotely produced results locally and quarantines any worker whose
	// result diverges — byzantine-result defense (see Audit).
	Audit Audit
	// Stats, when non-nil, accumulates simulated/cache-hit counts.
	Stats *SweepStats
	// OnProgress, when non-nil, receives coalesced (latest-wins) progress
	// snapshots while the sweep runs, ending with the final state — live
	// per-point aggregates before the sweep settles.
	OnProgress func(Progress)
}

// RunPoints is the one-call sweep driver shared by the facade and the
// experiment sweeps: build a session, attach it to an optional server,
// drive it (loopback unless RemoteOnly), record stats, and aggregate.
func RunPoints(ctx context.Context, points []Point, cfg DriveConfig) ([]mac.Result, error) {
	sess, err := NewSession(points, cfg.Cache, cfg.Precision)
	if err != nil {
		return nil, err
	}
	sess.EnableAudit(cfg.Audit)
	if cfg.Server != nil {
		cfg.Server.Attach(sess)
	}
	if cfg.OnProgress != nil {
		// The subscription drains on its own: the channel closes after
		// the final snapshot when the session settles or ctx is
		// cancelled — the same two ways the drive below returns.
		done := make(chan struct{})
		go func() {
			defer close(done)
			for p := range sess.Subscribe(ctx) {
				cfg.OnProgress(p)
			}
		}()
		defer func() { <-done }()
	}
	if cfg.RemoteOnly {
		err = sess.Wait(ctx)
	} else {
		err = RunLocal(ctx, sess, cfg.Workers)
	}
	if cfg.Stats != nil {
		cfg.Stats.Observe(sess)
	}
	if err != nil {
		return nil, err
	}
	return sess.Results()
}

// RunLocal drives a session to completion with in-process loopback
// workers: workers goroutines (one per core when below 1) pull tasks from
// the session, run them through JobSpec.RunRepContext, and complete them —
// the exact loop cmd/charisma-worker runs over HTTP, minus the wire.
// Loopback tasks are held under non-expiring leases: an in-process worker
// cannot crash without the whole coordinator, where context cancellation
// already unwinds the session. It returns when the session finishes or
// the context is cancelled; a replication the cancel cuts short is
// dropped, never completed as a failure. Remote workers attached to the
// same session via a Server share the queue transparently.
func RunLocal(ctx context.Context, s *Session, workers int) error {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				t, ok := s.NextWait(ctx)
				if !ok {
					return
				}
				res, err := t.Spec.RunRepContext(ctx, t.Rep)
				if err != nil && ctx.Err() != nil {
					return // cut short by the cancel: no result
				}
				tr := TaskResult{Point: t.Point, Rep: t.Rep, Lease: t.Lease, Result: res}
				if err != nil {
					tr.Err = err.Error()
				}
				// Completing our own task cannot fail validation.
				_ = s.Complete(tr)
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}
