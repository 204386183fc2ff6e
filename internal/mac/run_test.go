package mac_test

// The frame loop's contract (System.Run), checked black-box under every
// protocol: one RunFrame per frame, the stop at the horizon, the
// measurement window's opening, the one-frame minimum, cancellation
// within the check interval, and allocation-free reuse.

import (
	"context"
	"testing"

	"charisma/internal/core"
	"charisma/internal/mac"
	"charisma/internal/sim"
	"charisma/internal/traffic"
)

// probe wraps a protocol and records every frame it runs: the frame's
// start, the duration the protocol returned, and the packets generated
// before the frame's BeginFrame. hook, when set, runs inside frame at.
type probe struct {
	mac.Protocol
	starts, durs []sim.Time
	genBefore    []uint64
	gen          uint64
	at           int
	hook         func()
}

func generated(s *mac.System) uint64 {
	return s.M.VoiceGenerated.Total() + s.M.DataGenerated.Total()
}

func (p *probe) RunFrame(s *mac.System) sim.Time {
	if p.hook != nil && len(p.starts) == p.at {
		p.hook()
	}
	p.starts = append(p.starts, s.Now())
	// Only BeginFrame generates packets, so the count the previous frame
	// ended with is the count before this frame's BeginFrame.
	p.genBefore = append(p.genBefore, p.gen)
	d := p.Protocol.RunFrame(s)
	p.durs = append(p.durs, d)
	p.gen = generated(s)
	return d
}

// end returns the time frame i ended at.
func (p *probe) end(i int) sim.Time { return p.starts[i] + p.durs[i] }

// probedCell builds a fresh voice-and-data cell under proto, wrapped in a
// probe.
func probedCell(t *testing.T, proto string) (*mac.System, *probe) {
	t.Helper()
	sc := core.DefaultScenario(proto)
	sc.NumVoice, sc.NumData = 20, 5
	sys, p, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	p.Init(sys)
	return sys, &probe{Protocol: p, at: -1}
}

// TestRunOneRunFramePerFrame: under every protocol, RMAV's variable
// frames included, Run calls RunFrame exactly once per frame, and each
// frame starts where the previous one ended.
func TestRunOneRunFramePerFrame(t *testing.T) {
	frames := map[string]int64{}
	for _, proto := range core.Protocols() {
		sys, p := probedCell(t, proto)
		if err := sys.Run(context.Background(), p, sim.FromSeconds(0.25), sim.FromSeconds(0.75)); err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		n := sys.FrameIndex()
		if int64(len(p.starts)) != n || n == 0 {
			t.Fatalf("%s: %d RunFrame calls over %d frames", proto, len(p.starts), n)
		}
		for i := range p.starts {
			want := sim.Time(0)
			if i > 0 {
				want = p.end(i - 1)
			}
			if p.starts[i] != want {
				t.Fatalf("%s: frame %d starts at %v, want %v", proto, i, p.starts[i], want)
			}
		}
		if last := p.end(len(p.starts) - 1); sys.Now() != last {
			t.Fatalf("%s: clock %v after a last frame ending at %v", proto, sys.Now(), last)
		}
		frames[proto] = n
	}
	// Every protocol simulates the same span, so only variable-length
	// frames can change the count.
	if frames[core.ProtoRMAV] == frames[core.ProtoCharisma] {
		t.Fatalf("rmav ran %d frames like charisma: variable frames not exercised", frames[core.ProtoRMAV])
	}
}

// TestRunStopsAtHorizon: Run returns after the first frame that ends at
// or past until, for a horizon on a standard frame boundary and one just
// past it. RMAV's frames rarely end on either.
func TestRunStopsAtHorizon(t *testing.T) {
	for _, proto := range core.Protocols() {
		for _, until := range []sim.Time{100 * 800, 100*800 + 1} {
			sys, p := probedCell(t, proto)
			if err := sys.Run(context.Background(), p, 0, until); err != nil {
				t.Fatalf("%s: %v", proto, err)
			}
			last := len(p.starts) - 1
			if p.end(last) < until {
				t.Fatalf("%s, until %v: stopped at %v, before the horizon", proto, until, p.end(last))
			}
			if last > 0 && p.end(last-1) >= until {
				t.Fatalf("%s, until %v: frame %d already ended at %v, yet Run stepped another", proto, until, last-1, p.end(last-1))
			}
		}
	}
}

// TestRunOpensWindowAtWarmup: the measurement window opens just before
// the first frame that starts at or after warmup, so the window holds
// that frame's BeginFrame and every tick from its start. The warm-ups
// fall on a standard frame boundary and between two, and the first
// frame of each window generates packets in its BeginFrame. The run is
// cut into 40-frame calls, as a multicell cell runs between handoff
// decisions: the window still opens once.
func TestRunOpensWindowAtWarmup(t *testing.T) {
	for _, warmup := range []sim.Time{sim.FromSeconds(0.3), sim.FromSeconds(0.3) - 77} {
		for _, proto := range core.Protocols() {
			sys, p := probedCell(t, proto)
			for sys.Now() < sim.FromSeconds(1) {
				if err := sys.Run(context.Background(), p, warmup, sys.Now()+40*800); err != nil {
					t.Fatalf("%s: %v", proto, err)
				}
			}
			j := 0
			for p.starts[j] < warmup {
				j++
			}
			if p.genBefore[j+1] == p.genBefore[j] {
				t.Fatalf("%s, warm-up %v: frame %d generated no packet, so the check below cannot tell where the window opened", proto, warmup, j)
			}
			if got, want := sys.M.MeasuredTicks.Since(), uint64(sys.Now()-p.starts[j]); got != want {
				t.Errorf("%s, warm-up %v: MeasuredTicks.Since() = %d, want %d (window from frame %d at %v)", proto, warmup, got, want, j, p.starts[j])
			}
			got := sys.M.VoiceGenerated.Since() + sys.M.DataGenerated.Since()
			if want := generated(sys) - p.genBefore[j]; got != want {
				t.Errorf("%s, warm-up %v: %d packets generated in the window, want %d (all from frame %d's BeginFrame on)", proto, warmup, got, want, j)
			}
		}
	}
}

// TestRunRebuildClosesWindow: a rebuilt system starts with the window
// closed, so a reused cell opens it at its own warm-up again.
func TestRunRebuildClosesWindow(t *testing.T) {
	silence := traffic.DefaultVoiceParams().MeanSilenceSec
	sys, p := mostlyIdleSystem(t, 30, silence, core.ProtoCharisma)
	if err := sys.Run(context.Background(), p, 0, 100*800); err != nil {
		t.Fatal(err)
	}
	// Rebuild over the stations of a second, never-run cell.
	fresh, _ := mostlyIdleSystem(t, 30, silence, core.ProtoCharisma)
	if err := sys.Reset(fresh.Cfg, fresh.PHY, fresh.Stations, fresh.Rand); err != nil {
		t.Fatal(err)
	}
	p.Init(sys)
	if err := sys.Run(context.Background(), p, 50*800, 100*800); err != nil {
		t.Fatal(err)
	}
	if got := sys.M.MeasuredTicks.Since(); got != 50*800 {
		t.Fatalf("rebuilt system measured %d ticks, want 40000: its window opens at its own warm-up", got)
	}
}

// TestRunStepsAtLeastOneFrame: a horizon at or before the clock still
// gets one frame, as a run shorter than one tick does.
func TestRunStepsAtLeastOneFrame(t *testing.T) {
	for _, proto := range core.Protocols() {
		sys, p := probedCell(t, proto)
		if err := sys.Run(context.Background(), p, 0, 0); err != nil {
			t.Fatal(err)
		}
		if err := sys.Run(context.Background(), p, 0, sys.Now()-1); err != nil {
			t.Fatal(err)
		}
		if n := sys.FrameIndex(); n != 2 || len(p.starts) != 2 {
			t.Fatalf("%s: %d frames, %d RunFrame calls over two horizons at or before the clock, want 2", proto, n, len(p.starts))
		}
	}
}

// TestRunHonoursCancel: a cancel issued inside frame k stops Run within
// the check interval, and Run returns the context's error itself; a
// context cancelled before the call steps no frame.
func TestRunHonoursCancel(t *testing.T) {
	const k = 10
	for _, proto := range core.Protocols() {
		sys, p := probedCell(t, proto)
		ctx, cancel := context.WithCancel(context.Background())
		p.at, p.hook = k, cancel
		err := sys.Run(ctx, p, 0, sim.FromSeconds(10))
		if err != context.Canceled {
			t.Fatalf("%s: Run returned %v, want context.Canceled itself", proto, err)
		}
		if n := sys.FrameIndex(); n <= k || n > k+64 {
			t.Fatalf("%s: cancelled in frame %d, stopped after %d frames, want at most %d", proto, k, n, k+64)
		}
		n := sys.FrameIndex()
		if err := sys.Run(ctx, p, 0, sim.FromSeconds(10)); err != context.Canceled {
			t.Fatalf("%s: Run under a cancelled context returned %v", proto, err)
		}
		if sys.FrameIndex() != n {
			t.Fatalf("%s: Run under a cancelled context stepped %d frames", proto, sys.FrameIndex()-n)
		}
	}
}

// TestRunSteadyStateAllocationFree is the frame loop's reuse guard: on a
// warm idle cell, under every protocol, a batch of Run calls under a
// cancellable context allocates nothing. The fewest of three exact
// counts is taken: runtime-internal mallocs (a new thread, timer-heap
// growth) land in the process-wide count at random, while one on the
// measured path recurs in every batch.
func TestRunSteadyStateAllocationFree(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, proto := range core.Protocols() {
		sys, p := mostlyIdleSystem(t, 100, 1e6, proto)
		if err := sys.Run(ctx, p, 0, 200*800); err != nil {
			t.Fatal(err)
		}
		batch := func() {
			for i := 0; i < 10; i++ {
				if err := sys.Run(ctx, p, 0, sys.Now()+100*800); err != nil {
					t.Fatal(err)
				}
			}
		}
		if n := min(testing.AllocsPerRun(1, batch), testing.AllocsPerRun(1, batch), testing.AllocsPerRun(1, batch)); n != 0 {
			t.Errorf("%s: %.0f mallocs in 10 warm Run calls of 100 frames, want 0", proto, n)
		}
	}
}
