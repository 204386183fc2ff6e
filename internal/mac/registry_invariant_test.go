package mac_test

// Black-box invariant tests for the state-indexed station registry: the
// bucket partition must hold after every frame of every protocol, and the
// frame hot path of an idle cell must be allocation-free (the property the
// CI allocs guard pins).

import (
	"fmt"
	"testing"

	"charisma/internal/channel"
	"charisma/internal/core"
	"charisma/internal/mac"
	"charisma/internal/phy"
	"charisma/internal/rng"
	"charisma/internal/traffic"
)

// TestRegistryInvariantEveryProtocol drives each protocol for a few hundred
// frames and checks, after every frame, that every station sits in exactly
// one registry bucket and that the bucket matches its live MAC state.
func TestRegistryInvariantEveryProtocol(t *testing.T) {
	for _, proto := range core.Protocols() {
		proto := proto
		t.Run(proto, func(t *testing.T) {
			sc := core.DefaultScenario(proto)
			sc.NumVoice, sc.NumData = 25, 5
			sc.UseQueue = proto == core.ProtoCharisma // exercise the pending bucket too
			sys, p, err := sc.Build()
			if err != nil {
				t.Fatal(err)
			}
			p.Init(sys)
			if err := sys.VerifyRegistry(); err != nil {
				t.Fatalf("before first frame: %v", err)
			}
			for f := 0; f < 400; f++ {
				sys.BeginFrame()
				sys.EndFrame(p.RunFrame(sys))
				if err := sys.VerifyRegistry(); err != nil {
					t.Fatalf("after frame %d: %v", f, err)
				}
			}
		})
	}
}

// mostlyIdleSystem builds a cell of n voice stations with the given mean
// silence duration; a large value parks nearly the whole population in the
// registry's idle bucket.
func mostlyIdleSystem(tb testing.TB, n int, meanSilenceSec float64, protocol string) (*mac.System, mac.Protocol) {
	tb.Helper()
	vp := traffic.DefaultVoiceParams()
	vp.MeanSilenceSec = meanSilenceSec
	srcs := make([]mac.Sources, n)
	links := make([]*channel.Fading, n)
	cp := channel.DefaultParams()
	slab := channel.NewSlab()
	for i := range srcs {
		srcs[i].Voice = traffic.NewVoice(vp, rng.Derive(7, "bench-voice", fmt.Sprint(i)), 0)
		links[i] = slab.New(cp, rng.Derive(7, "bench-chan", fmt.Sprint(i)))
	}
	var modem phy.PHY
	if core.AdaptivePHYFor(protocol) {
		modem = phy.NewAdaptive(phy.DefaultParams())
	} else {
		modem = phy.NewFixed(phy.DefaultParams())
	}
	sys := &mac.System{}
	mac.Populate(tb, sys, mac.DefaultConfig(), modem, rng.Derive(7, "bench-mac", protocol), srcs, links)
	p, err := core.NewProtocol(protocol)
	if err != nil {
		tb.Fatal(err)
	}
	p.Init(sys)
	return sys, p
}

// BenchmarkFrame measures per-frame cost against the station-registry
// promise: with the active population held at ~40 talkers, growing the
// total population 100× (100 → 10⁴ stations) must leave ns/frame nearly
// flat, because idle stations are neither scanned nor advanced.
func BenchmarkFrame(b *testing.B) {
	for _, bc := range []struct {
		name     string
		total    int
		active   int
		protocol string
	}{
		{"charisma/total=100/active=40", 100, 40, core.ProtoCharisma},
		{"charisma/total=10000/active=40", 10_000, 40, core.ProtoCharisma},
		{"charisma/total=10000/active=400", 10_000, 400, core.ProtoCharisma},
		{"drma/total=10000/active=40", 10_000, 40, core.ProtoDRMA},
	} {
		bc := bc
		b.Run(bc.name, func(b *testing.B) {
			// ActivityFactor = talk/(talk+silence); silence tuned so about
			// bc.active stations talk at any time.
			talk := traffic.DefaultVoiceParams().MeanTalkSec
			silence := talk * (float64(bc.total)/float64(bc.active) - 1)
			sys, proto := mostlyIdleSystem(b, bc.total, silence, bc.protocol)
			// Warm past the talkspurt transient so scratch buffers and
			// reservations reach steady state before timing.
			for f := 0; f < 400; f++ {
				sys.BeginFrame()
				sys.EndFrame(proto.RunFrame(sys))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sys.BeginFrame()
				sys.EndFrame(proto.RunFrame(sys))
			}
		})
	}
}

// TestFrameHotPathAllocs is the allocation guard on the frame hot path:
// with the station registry in place, a batch of 1,000 frames over a
// 10⁴-station cell whose population is parked idle must not allocate at
// all — idle stations are neither scanned nor advanced, and every
// active-path scratch is reused across frames.
func TestFrameHotPathAllocs(t *testing.T) {
	sys, p := mostlyIdleSystem(t, 10_000, 1e6, core.ProtoDRMA)
	// Warm up past transients so every scratch slice has reached its
	// high-water mark.
	for f := 0; f < 200; f++ {
		sys.BeginFrame()
		sys.EndFrame(p.RunFrame(sys))
	}
	batch := func() {
		for f := 0; f < 1000; f++ {
			sys.BeginFrame()
			sys.EndFrame(p.RunFrame(sys))
		}
	}
	// The fewest of three exact counts: runtime-internal mallocs (a new
	// thread, timer-heap growth) land in the process-wide count at random,
	// while one on the measured path recurs in every batch.
	if n := min(testing.AllocsPerRun(1, batch), testing.AllocsPerRun(1, batch), testing.AllocsPerRun(1, batch)); n != 0 {
		t.Fatalf("frame hot path: %.0f mallocs in 1000 frames over an idle cell, want 0", n)
	}
}
