package run

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"charisma/internal/rng"
)

// RepSeed derives the seed of replication i from a job's base seed.
// Replication 0 keeps the base seed — a single-replication run is exactly
// the legacy Scenario.Run — and each further replication draws an
// independent substream. The derivation depends only on (base, i), never
// on the protocol, preserving the common-random-numbers pairing across
// protocols within every replication.
func RepSeed(base int64, i int) int64 {
	if i == 0 {
		return base
	}
	return rng.SeedForIndexed(base, "rep", i)
}

// Map runs fn(0..n-1) on a bounded worker pool and returns the results in
// index order. Tasks are independent: a failure does not stop the others,
// and the returned error joins every failure via errors.Join. Context
// cancellation stops workers from picking up new tasks, and Map then
// returns the context's error itself: a task the same cancel cut short
// would only repeat it. Worker count never affects the output values —
// each index writes its own slot.
func Map[T any](ctx context.Context, workers, n int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, ctx.Err()
	}
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	out := make([]T, n)
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i], errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return out, err
	}
	if err := errors.Join(errs...); err != nil {
		return out, err
	}
	return out, nil
}
