package run

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
)

func TestRepSeed(t *testing.T) {
	if RepSeed(42, 0) != 42 {
		t.Fatal("replication 0 must keep the base seed")
	}
	seen := map[int64]bool{42: true}
	for i := 1; i < 16; i++ {
		s := RepSeed(42, i)
		if seen[s] {
			t.Fatalf("replication %d collides with an earlier seed", i)
		}
		seen[s] = true
		if s != RepSeed(42, i) {
			t.Fatalf("replication %d seed not deterministic", i)
		}
	}
	if RepSeed(42, 1) == RepSeed(43, 1) {
		t.Fatal("different base seeds derived the same replication seed")
	}
}

func TestMapOrderAndErrors(t *testing.T) {
	vals, err := Map(context.Background(), 3, 10, func(i int) (int, error) {
		if i == 4 || i == 7 {
			return 0, fmt.Errorf("boom %d", i)
		}
		return i * i, nil
	})
	if err == nil || !strings.Contains(err.Error(), "boom 4") || !strings.Contains(err.Error(), "boom 7") {
		t.Fatalf("joined error wrong: %v", err)
	}
	for i, v := range vals {
		if i != 4 && i != 7 && v != i*i {
			t.Fatalf("vals[%d] = %d, want %d", i, v, i*i)
		}
	}
	if _, err := Map(context.Background(), 0, 0, func(int) (int, error) { return 0, nil }); err != nil {
		t.Fatalf("empty map errored: %v", err)
	}
}

func TestRunContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Map(ctx, 0, 4, func(i int) (int, error) { return i, nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Tasks the cancel cuts short fail with the context's error; Map
	// returns that error once, not joined with theirs.
	ctx, cancel = context.WithCancel(context.Background())
	_, err = Map(ctx, 2, 4, func(i int) (int, error) {
		cancel()
		return 0, ctx.Err()
	})
	if err != context.Canceled {
		t.Fatalf("err = %q, want context.Canceled itself", err)
	}
}
