// Package run owns the replication seed discipline and the bounded
// worker pool the rest of the system shares.
//
// The paper's evaluation rests on replicated stochastic simulations with
// common random numbers: each scenario runs N independent times under
// seeds derived from one base seed, and the reported uncertainty comes
// from across-replication dispersion, not from within-run sample counts.
// Executing and pooling those replications is the sweep grid's job
// (internal/grid); this package supplies the two pieces it builds on.
//
//   - RepSeed(base, i) derives replication i's seed via
//     rng.SeedForIndexed(base, "rep", i). Replication 0 keeps the base
//     seed, so a 1-replication run is byte-identical to Scenario.Run and
//     adding replications only ever extends a sweep.
//   - Map runs n independent tasks on a bounded worker pool with context
//     cancellation. Every task writes into a fixed slot, so the outputs
//     are byte-identical for any worker count — parallelism is purely a
//     throughput knob.
//
// Common random numbers survive replication: traffic and channel streams
// derive from the scenario seed only, so replication i of every protocol
// still observes identical sample paths.
//
// # Byte-identity contract
//
// RepSeed(base, i) is the single source of replication seeds for the
// whole system: the grid's JobSpec.RunRep, multicell.RunReplicated, and
// the content-addressed cache key RepKey all derive from it. Any executor
// given (job, rep) therefore runs the identical simulation, which is what
// lets the distributed grid re-queue crashed tasks, dedupe in-flight
// work, and replay sweeps from cache without ever changing a result byte,
// and what lets a plain serial loop of Scenario.Run over RepSeed serve as
// the reference every sweep path is tested against.
package run
