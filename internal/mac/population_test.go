package mac_test

// Population-scale tests for deferred stations: 10⁵- and
// 10⁶-station cells must fit a hard per-station memory budget, and the
// idle-wake frame path at 10⁵ stations must allocate only on rare
// high-water growth.

import (
	"runtime"
	"testing"

	"charisma/internal/channel"
	"charisma/internal/mac"
	"charisma/internal/phy"
	"charisma/internal/rng"
	"charisma/internal/sim"
	"charisma/internal/traffic"
)

// idleBudgetBytes is the hard ceiling on resident heap per idle station for
// a deferred (never materialized) population: the 32-byte Station struct,
// its slot in the Stations slab, the stamp/chSync/loc/pos registry slabs,
// the bucket bitsets, and the station's timer-wheel bucket entry. See
// DESIGN.md ("Station memory layout & timer wheel") for the accounting.
const idleBudgetBytes = 64

// parkedSystem builds an n-station cell where every station stays deferred
// with a common far-future first wake — the cheapest possible population,
// pinning the platform's fixed per-station cost.
func parkedSystem(tb testing.TB, n int) (*mac.System, float64) {
	tb.Helper()
	fw := make([]sim.Time, n)
	for i := range fw {
		fw[i] = 1 << 40 // ~decades of simulated time away
	}
	pop := &mac.Population{
		FirstWake: fw,
		Materialize: func(i int) (*traffic.VoiceSource, *traffic.DataSource, *channel.Fading) {
			tb.Fatalf("parked station %d materialized", i)
			return nil, nil, nil
		},
	}
	// Two cycles: objects that outlive one, such as sync.Pool victim
	// caches, would otherwise be freed inside the window and hide about
	// 0.4 B/station at 10⁵ stations.
	runtime.GC()
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	sys := &mac.System{}
	if err := sys.Reset(mac.DefaultConfig(), phy.NewAdaptive(phy.DefaultParams()), n, rng.New(1), pop); err != nil {
		tb.Fatal(err)
	}
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return sys, float64(after.HeapAlloc-before.HeapAlloc) / float64(n)
}

// TestMillionStationMemoryBudget instantiates a 10⁵- and a 10⁶-station
// cell and holds the measured resident heap of each to idleBudgetBytes
// per station.
func TestMillionStationMemoryBudget(t *testing.T) {
	for _, n := range []int{100_000, 1_000_000} {
		sys, perStation := parkedSystem(t, n)
		t.Logf("%d stations: %.1f B/station resident", n, perStation)
		if perStation > idleBudgetBytes {
			t.Fatalf("%d stations: resident heap %.1f B/station, budget %d", n, perStation, idleBudgetBytes)
		}
		// The cell must also be runnable: a frame over a fully parked
		// population touches no station state.
		for f := 0; f < 10; f++ {
			sys.BeginFrame()
			sys.EndFrame(sys.FrameDuration())
		}
		if err := sys.VerifyRegistry(); err != nil {
			t.Fatal(err)
		}
		runtime.KeepAlive(sys)
	}
}

// cyclingSystem builds an n-station cell where the first nActive
// stations carry real voice sources (cycling through talkspurts and
// silences, waking via the timer wheel) and the rest stay parked far in
// the future. Active sources are pre-built so FirstWake can be read off
// NextEventAt; Materialize hands out the pre-built source on first wake.
func cyclingSystem(tb testing.TB, n, nActive int) *mac.System {
	tb.Helper()
	vp := traffic.DefaultVoiceParams()
	voices := make([]*traffic.VoiceSource, nActive)
	fw := make([]sim.Time, n)
	for i := range fw {
		if i < nActive {
			voices[i] = traffic.NewVoice(vp, rng.DeriveIndexed(41, "popv", i), 0)
			fw[i] = voices[i].NextEventAt()
		} else {
			fw[i] = 1 << 40
		}
	}
	pop := &mac.Population{
		FirstWake: fw,
		Materialize: func(i int) (*traffic.VoiceSource, *traffic.DataSource, *channel.Fading) {
			if i >= nActive {
				tb.Fatalf("parked station %d materialized", i)
			}
			return voices[i], nil, nil
		},
	}
	sys := &mac.System{}
	if err := sys.Reset(mac.DefaultConfig(), phy.NewAdaptive(phy.DefaultParams()), n, rng.New(2), pop); err != nil {
		tb.Fatal(err)
	}
	return sys
}

// TestIdleWakeHotPathAllocs extends the frame-allocs guard to the
// idle-wake path at 10⁵ stations: once wheel buckets and scratch slices
// have reached their high-water marks, frames that wake stations off the
// timer wheel, advance their talkspurts, and re-park them allocate only
// when a wheel bucket outgrows its capacity. Silences of ~1.35 s park
// wakes several wheel levels up, so the steady state exercises arm,
// cascade, and collect.
func TestIdleWakeHotPathAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("long warmup")
	}
	sys := cyclingSystem(t, 100_000, 2000)
	// Warm past one full level-1 wheel revolution (64·64 granules ≈ 5243
	// frames) so the wheel buckets and scratch slices are near their
	// peaks, and past every source's first long unserved talkspurt (~1.3 s of
	// talking) so voice buffers reach their terminal capacity.
	for f := 0; f < 32000; f++ {
		sys.BeginFrame()
		sys.EndFrame(sys.FrameDuration())
	}
	// Every malloc of one 8,000-frame batch is counted. What is left after
	// the warm-up is the rare growth of a wheel bucket past its high-water
	// mark (4 in this batch); one malloc every 125 frames exceeds the
	// ceiling, the one the facade's active-cell guard applies.
	const frames, ceiling = 8000, 64
	n := testing.AllocsPerRun(1, func() {
		for f := 0; f < frames; f++ {
			sys.BeginFrame()
			sys.EndFrame(sys.FrameDuration())
		}
	})
	t.Logf("idle-wake hot path: %.0f mallocs in %d frames", n, frames)
	if n > ceiling {
		t.Fatalf("idle-wake hot path: %.0f mallocs in %d frames, want <= %d", n, frames, ceiling)
	}
	if err := sys.VerifyRegistry(); err != nil {
		t.Fatal(err)
	}
}
