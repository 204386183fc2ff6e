package grid

import (
	"testing"
	"time"
)

// TestBackoffScheduleBounds: attempt k waits within the equal-jitter
// window [base·2^k/2, base·2^k), never above the cap.
func TestBackoffScheduleBounds(t *testing.T) {
	const base = 100 * time.Millisecond
	const cap = 2 * time.Second
	b := NewBackoff(base, cap, 1)
	for k := 0; k < 12; k++ {
		d := b.Next()
		full := base << k
		if full > cap || full <= 0 { // shifted past the cap (or overflowed)
			full = cap
		}
		if d < full/2 || d >= full {
			t.Fatalf("attempt %d waited %v, want [%v, %v)", k, d, full/2, full)
		}
	}
	if b.attempt != 12 {
		t.Fatalf("attempt counter = %d, want 12", b.attempt)
	}
}

// TestBackoffReset: Reset returns the schedule to the first window.
func TestBackoffReset(t *testing.T) {
	const base = 80 * time.Millisecond
	b := NewBackoff(base, time.Second, 2)
	for i := 0; i < 4; i++ {
		b.Next()
	}
	b.Reset()
	if b.attempt != 0 {
		t.Fatalf("attempt counter = %d after reset", b.attempt)
	}
	if d := b.Next(); d < base/2 || d >= base {
		t.Fatalf("post-reset wait %v outside first window [%v, %v)", d, base/2, base)
	}
}

// TestBackoffDeterministicPerSeed: the same seed yields the same jitter
// schedule; different seeds diverge.
func TestBackoffDeterministicPerSeed(t *testing.T) {
	draw := func(seed int64) []time.Duration {
		b := NewBackoff(50*time.Millisecond, time.Second, seed)
		out := make([]time.Duration, 8)
		for i := range out {
			out[i] = b.Next()
		}
		return out
	}
	a, b2 := draw(7), draw(7)
	diff := draw(8)
	same, differs := true, false
	for i := range a {
		if a[i] != b2[i] {
			same = false
		}
		if a[i] != diff[i] {
			differs = true
		}
	}
	if !same {
		t.Fatal("same seed produced different schedules")
	}
	if !differs {
		t.Fatal("different seeds produced identical schedules")
	}
}

// TestBackoffDefaults: non-positive base and an inverted cap are
// normalized instead of producing zero waits.
func TestBackoffDefaults(t *testing.T) {
	b := NewBackoff(0, 0, 3)
	if d := b.Next(); d <= 0 {
		t.Fatalf("zero-value backoff waited %v", d)
	}
}
