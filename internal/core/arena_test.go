package core

import (
	"context"
	"testing"

	"charisma/internal/mac"
)

// arenaScenarios is a cross-section of the platform's configuration
// space: all six protocols, both PHY classes, the BS request queue, mixed
// voice/data populations, per-station speeds, and RMAV's variable-length
// frame cadence.
func arenaScenarios() []Scenario {
	mk := func(proto string, nv, nd int, queue bool) Scenario {
		sc := DefaultScenario(proto)
		sc.NumVoice, sc.NumData = nv, nd
		sc.UseQueue = queue
		sc.WarmupSec, sc.DurationSec = 0.5, 2
		return sc
	}
	speeds := mk(ProtoCharisma, 6, 2, true)
	speeds.SpeedsKmh = []float64{5, 20, 35, 50, 65, 80, 95, 110}
	return []Scenario{
		mk(ProtoCharisma, 10, 3, true),
		mk(ProtoDTDMAVR, 10, 3, false),
		mk(ProtoDTDMAFR, 10, 3, false),
		mk(ProtoDRMA, 10, 3, false),
		mk(ProtoRAMA, 10, 3, false),
		mk(ProtoRMAV, 8, 2, false),
		speeds,
	}
}

// runFresh executes sc on a brand-new arena (no reuse at all).
func runFresh(t *testing.T, sc Scenario) mac.Result {
	t.Helper()
	res, err := sc.runIn(context.Background(), newRunArena())
	if err != nil {
		t.Fatalf("fresh run: %v", err)
	}
	return res
}

// TestArenaReuseByteIdentity pins the replication arena's core contract:
// a run into a dirty arena — previously used by a different protocol,
// population size, queue configuration, and seed — is byte-identical to
// the same scenario on a fresh arena.
func TestArenaReuseByteIdentity(t *testing.T) {
	scs := arenaScenarios()
	a := newRunArena()
	// Dirty the arena with every scenario once, in order.
	for _, sc := range scs {
		if _, err := sc.runIn(context.Background(), a); err != nil {
			t.Fatalf("prime %s: %v", sc.Protocol, err)
		}
	}
	// Replay each scenario on the dirty arena; every metric must match a
	// fresh build exactly (results are pure float/int aggregates, so ==
	// is bit comparison).
	for _, sc := range scs {
		want := runFresh(t, sc)
		got, err := sc.runIn(context.Background(), a)
		if err != nil {
			t.Fatalf("reused run %s: %v", sc.Protocol, err)
		}
		if got != want {
			t.Errorf("%s (nv=%d nd=%d): arena reuse diverged\nfresh:  %+v\nreused: %+v",
				sc.Protocol, sc.NumVoice, sc.NumData, want, got)
		}
	}
}

// TestArenaReuseAcrossSeeds replays one scenario across many seeds in a
// single arena — the replication sweep shape — against fresh builds.
func TestArenaReuseAcrossSeeds(t *testing.T) {
	sc := DefaultScenario(ProtoCharisma)
	sc.NumVoice, sc.NumData = 12, 4
	sc.UseQueue = true
	sc.WarmupSec, sc.DurationSec = 0.5, 2
	a := newRunArena()
	for seed := int64(1); seed <= 6; seed++ {
		sc.Seed = seed
		want := runFresh(t, sc)
		got, err := sc.runIn(context.Background(), a)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got != want {
			t.Errorf("seed %d: arena reuse diverged\nfresh:  %+v\nreused: %+v", seed, want, got)
		}
	}
}

// TestArenaPopulationResize grows and shrinks the population in one
// arena, checking identity at every step (stale cached sources/streams
// beyond the live prefix must never leak into results).
func TestArenaPopulationResize(t *testing.T) {
	a := newRunArena()
	for _, pop := range [][2]int{{4, 0}, {30, 10}, {8, 2}, {0, 6}, {30, 10}} {
		sc := DefaultScenario(ProtoDRMA)
		sc.NumVoice, sc.NumData = pop[0], pop[1]
		sc.WarmupSec, sc.DurationSec = 0.5, 2
		want := runFresh(t, sc)
		got, err := sc.runIn(context.Background(), a)
		if err != nil {
			t.Fatalf("nv=%d nd=%d: %v", pop[0], pop[1], err)
		}
		if got != want {
			t.Errorf("nv=%d nd=%d: arena reuse diverged", pop[0], pop[1])
		}
	}
}

// BenchmarkReplicationSetup measures the steady-state per-replication
// setup on a warm arena — build, protocol init, and full materialization
// of a 50-station cell. The CI bench smoke gates this at
// zero allocations per op.
func BenchmarkReplicationSetup(b *testing.B) {
	sc := DefaultScenario(ProtoCharisma)
	sc.NumVoice, sc.NumData = 40, 10
	sc.UseQueue = true
	a := newRunArena()
	if _, err := sc.runIn(context.Background(), a); err != nil {
		b.Fatal(err)
	}
	setup := func(seed int64) {
		sc.Seed = seed
		sys, proto, err := sc.buildIn(a)
		if err != nil {
			b.Fatal(err)
		}
		proto.Init(sys)
		sys.MaterializeAll()
	}
	// One full warm setup so every slot's cached source object exists
	// before measurement (the run above only materializes woken stations).
	setup(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		setup(int64(i + 1))
	}
}

// TestArenaSetupSteadyStateAllocs gates the per-replication setup cost:
// after the first build warms an arena, rebuilding the same-shaped cell
// (build + protocol init + full materialization) must not
// allocate at all. Every malloc of a batch of 50 back-to-back setups is
// counted, against the ~132k allocations a fresh per-replication build
// used to cost (Fig11a panel in BENCH_6.json, as of commit 7aaa6a2).
func TestArenaSetupSteadyStateAllocs(t *testing.T) {
	sc := DefaultScenario(ProtoCharisma)
	sc.NumVoice, sc.NumData = 40, 10
	sc.UseQueue = true
	a := newRunArena()
	seed := int64(1)
	setup := func() {
		sc.Seed = seed
		seed++
		sys, proto, err := sc.buildIn(a)
		if err != nil {
			t.Fatalf("buildIn: %v", err)
		}
		proto.Init(sys)
		// Force every station's sources, streams and fading rows — the
		// full setup cost a replication could possibly pay.
		sys.MaterializeAll()
	}
	// Warm the arena (first build allocates everything) with a full run.
	if _, err := sc.runIn(context.Background(), a); err != nil {
		t.Fatalf("warm run: %v", err)
	}
	setup()
	batch := func() {
		for i := 0; i < 50; i++ {
			setup()
		}
	}
	// The fewest of three exact counts: runtime-internal mallocs (a new
	// thread, timer-heap growth) land in the process-wide count at random,
	// while one on the measured path recurs in every batch.
	if allocs := min(testing.AllocsPerRun(1, batch), testing.AllocsPerRun(1, batch), testing.AllocsPerRun(1, batch)); allocs != 0 {
		t.Errorf("steady-state replication setup: %.0f mallocs in 50 setups, want 0", allocs)
	}
}
