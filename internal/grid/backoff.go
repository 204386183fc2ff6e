package grid

import (
	"time"

	"charisma/internal/rng"
)

// Backoff computes capped, jittered exponential retry delays — the one
// retry schedule every transient-failure path in the grid shares (worker
// claim loop, heartbeat renewal, result posting), so hardening decisions
// live in one place.
//
// Attempt k (0-based) nominally waits Base·2^k, capped at Cap; the
// returned delay is "equal-jittered" into [d/2, d) from a seeded stream,
// so a fleet of workers hammered by the same coordinator outage spreads
// its retries instead of thundering back in lockstep. The jitter stream
// is deterministic per seed, which keeps retry-schedule tests exact.
//
// Backoff is not safe for concurrent use; each retry loop owns one.
type Backoff struct {
	base, cap time.Duration
	jitter    *rng.Stream
	attempt   int
}

// NewBackoff returns a backoff starting at base, capped at cap, with its
// jitter stream derived from seed. base must be positive; cap below base
// means no cap beyond base's exponential growth limit (cap = base forces
// a constant jittered delay).
func NewBackoff(base, cap time.Duration, seed int64) *Backoff {
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	if cap < base {
		cap = base
	}
	return &Backoff{base: base, cap: cap, jitter: rng.Derive(seed, "grid", "backoff")}
}

// Next returns the delay before the upcoming retry and advances the
// attempt counter.
func (b *Backoff) Next() time.Duration {
	d := b.base
	for i := 0; i < b.attempt && d < b.cap; i++ {
		d *= 2
	}
	if d > b.cap {
		d = b.cap
	}
	b.attempt++
	half := d / 2
	if half <= 0 {
		return d
	}
	return half + time.Duration(b.jitter.Float64()*float64(half))
}

// Reset rewinds the schedule after a success, so the next failure starts
// from Base again.
func (b *Backoff) Reset() { b.attempt = 0 }
