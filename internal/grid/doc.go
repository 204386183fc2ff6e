// Package grid is the distributed sweep subsystem: it farms replicated
// simulation jobs out to workers, never simulates the same (spec, seed)
// pair twice, spends replications where the confidence intervals are
// widest, survives worker crashes, and streams partial results while a
// sweep runs.
//
// The paper's figures are built from replicated stochastic sweeps — every
// sweep point is N independent runs of one parameterized simulation, pooled
// by mac.AggregateReplications. This package makes those sweeps
// content-addressed, transportable, and fault-tolerant:
//
//   - A JobSpec is a declarative, serializable description of one
//     simulation — a single-cell core.Scenario or a multicell deployment —
//     parameters, not closures. It has a canonical JSON encoding (plus a
//     framed binary envelope) and a stable SHA-256 content hash, so it can
//     cross any process boundary.
//   - A Cache stores one mac.Result per replication under
//     RepKey(hash(JobSpec), RepSeed): repeated sweep points and re-anchored
//     figures reuse prior replications, and a re-run sweep is a cache walk.
//     Caches compose: in-memory, on-disk (a -cache-dir), or tiered.
//   - A Session is the coordinator core: it expands points into
//     (spec, rep) tasks, resolves them against the cache, dedups identical
//     in-flight (spec, seed) pairs across points, and merges completed
//     replications in rep-index order, so results are byte-identical no
//     matter which transport executed them.
//   - Transports: RunLocal drives a session with in-process loopback
//     workers; Server exposes the same session over HTTP so
//     cmd/charisma-worker processes can pull tasks and stream results
//     back. Every sweep path — loopback, multi-worker, warm cache —
//     exercises the same scheduling code.
//   - Precision is the adaptive replication controller: a point's
//     replication count grows until the across-replication Student-t CI95
//     half-width of every applicable headline metric falls to within
//     TargetRel of its mean (or a hard cap). New replications are seeded
//     via run.RepSeed, so a grown sweep is a byte-identical extension of a
//     fixed-N one.
//
// # Leases and crash recovery
//
// Every dispatched task is held under a lease. Remote dispatches
// (Server with a positive LeaseTTL) are expirable: the worker renews its
// lease by heartbeat while executing, a worker that dies simply stops
// heartbeating, and the session re-queues the task — with the presumed-
// dead worker excluded from immediately re-claiming it — so a sweep
// completes despite any number of worker crashes, as long as one worker
// survives. Loopback leases never expire; an in-process worker can only
// die with the coordinator itself, where context cancellation already
// unwinds the session.
//
// A result arriving under a superseded lease (the task timed out and was
// re-queued, possibly re-executed) is discarded before it can touch the
// cache or the point states. Exactly one delivery per (spec, rep-seed)
// key ever lands, and JobSpec.RunRep is a deterministic function of the
// spec and the rep seed, so crash timing, duplicate deliveries, and
// zombie workers can never change the bytes a sweep produces — a
// crash-recovered sweep is byte-identical to a serial run of every
// replication under run.RepSeed.
//
// # Progress streaming
//
// A Session also publishes its own live state: Progress snapshots carry,
// per sweep point, the replications resolved so far and the partial
// aggregate over the successful ones (with across-replication CI95
// half-widths), version-stamped and coalesced latest-wins through
// Subscribe. The Server serves the same snapshot over GET /progress, and
// cmd/charisma-experiments renders it as per-point panel data while the
// sweep is still running.
package grid
