// Benchmark harness: one target per table/figure of the paper's evaluation
// plus ablations of CHARISMA's mechanisms (each names the paper section of
// the one it varies) and substrate micro-benchmarks.
//
// The figure benches regenerate each panel at reduced effort (short
// measurement windows, thinned sweeps) so `go test -bench=.` stays in CI
// time while preserving the shape of every result; the cmd/charisma-
// experiments binary runs the same panels at publication effort. Loss
// rates, capacities and delays are exported through b.ReportMetric so the
// shapes are visible directly in the benchmark output.
package charisma

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"charisma/internal/channel"
	"charisma/internal/core"
	"charisma/internal/experiments"
	"charisma/internal/grid"
	"charisma/internal/mac"
	"charisma/internal/multicell"
	"charisma/internal/phy"
	"charisma/internal/rng"
	"charisma/internal/sim"
	"charisma/internal/traffic"
)

// benchRunConfig trims each sweep point to 2 measured seconds.
func benchRunConfig() experiments.RunConfig {
	return experiments.RunConfig{Seed: 1, WarmupSec: 0.5, DurationSec: 2}
}

// benchPanel regenerates one Fig. 11/12/13 panel at bench effort and
// reports a representative shape metric.
func benchPanel(b *testing.B, spec experiments.PanelSpec) {
	b.Helper()
	rc := benchRunConfig()
	for i := 0; i < b.N; i++ {
		panel, err := experiments.RunPanel(context.Background(), spec, rc)
		if err != nil {
			b.Fatal(err)
		}
		if spec.Figure == 11 {
			caps := experiments.Capacity(panel, 0.01)
			if c := caps[core.ProtoCharisma]; c == c { // skip NaN
				b.ReportMetric(c, "charisma-capacity-users")
			}
		} else {
			for _, s := range panel.Series {
				if s.Label == core.ProtoCharisma && len(s.Y) > 0 {
					b.ReportMetric(s.Y[len(s.Y)-1], "charisma-final-y")
				}
			}
		}
	}
}

// --- Table 1 -------------------------------------------------------------

func BenchmarkTable1Defaults(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table1()
		if len(rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// --- Fig. 5 and Fig. 7 (model figures) ------------------------------------

func BenchmarkFig5FadingTrace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tr := experiments.FadingTrace(1, 2.0)
		if len(tr) == 0 {
			b.Fatal("empty trace")
		}
	}
}

func BenchmarkFig7ABICMCurves(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := experiments.ABICMCurves(181)
		if len(pts) != 181 {
			b.Fatal("bad curve")
		}
	}
}

// --- Fig. 11: voice packet loss panels (a)–(f) -----------------------------

func BenchmarkFig11a_VoiceLoss_NoQueue_Nd0(b *testing.B) {
	benchPanel(b, experiments.PanelSpec{ID: "fig11a", Figure: 11, Fixed: 0, Queue: false})
}

func BenchmarkFig11b_VoiceLoss_Queue_Nd0(b *testing.B) {
	benchPanel(b, experiments.PanelSpec{ID: "fig11b", Figure: 11, Fixed: 0, Queue: true})
}

func BenchmarkFig11c_VoiceLoss_NoQueue_Nd10(b *testing.B) {
	benchPanel(b, experiments.PanelSpec{ID: "fig11c", Figure: 11, Fixed: 10, Queue: false})
}

func BenchmarkFig11d_VoiceLoss_Queue_Nd10(b *testing.B) {
	benchPanel(b, experiments.PanelSpec{ID: "fig11d", Figure: 11, Fixed: 10, Queue: true})
}

func BenchmarkFig11e_VoiceLoss_NoQueue_Nd20(b *testing.B) {
	benchPanel(b, experiments.PanelSpec{ID: "fig11e", Figure: 11, Fixed: 20, Queue: false})
}

func BenchmarkFig11f_VoiceLoss_Queue_Nd20(b *testing.B) {
	benchPanel(b, experiments.PanelSpec{ID: "fig11f", Figure: 11, Fixed: 20, Queue: true})
}

// --- Fig. 12: data throughput panels (a)–(f) -------------------------------

func BenchmarkFig12a_DataThroughput_NoQueue_Nv0(b *testing.B) {
	benchPanel(b, experiments.PanelSpec{ID: "fig12a", Figure: 12, Fixed: 0, Queue: false})
}

func BenchmarkFig12b_DataThroughput_Queue_Nv0(b *testing.B) {
	benchPanel(b, experiments.PanelSpec{ID: "fig12b", Figure: 12, Fixed: 0, Queue: true})
}

func BenchmarkFig12c_DataThroughput_NoQueue_Nv10(b *testing.B) {
	benchPanel(b, experiments.PanelSpec{ID: "fig12c", Figure: 12, Fixed: 10, Queue: false})
}

func BenchmarkFig12d_DataThroughput_Queue_Nv10(b *testing.B) {
	benchPanel(b, experiments.PanelSpec{ID: "fig12d", Figure: 12, Fixed: 10, Queue: true})
}

func BenchmarkFig12e_DataThroughput_NoQueue_Nv20(b *testing.B) {
	benchPanel(b, experiments.PanelSpec{ID: "fig12e", Figure: 12, Fixed: 20, Queue: false})
}

func BenchmarkFig12f_DataThroughput_Queue_Nv20(b *testing.B) {
	benchPanel(b, experiments.PanelSpec{ID: "fig12f", Figure: 12, Fixed: 20, Queue: true})
}

// --- Fig. 13: data delay panels (a)–(f) ------------------------------------

func BenchmarkFig13a_DataDelay_NoQueue_Nv0(b *testing.B) {
	benchPanel(b, experiments.PanelSpec{ID: "fig13a", Figure: 13, Fixed: 0, Queue: false})
}

func BenchmarkFig13b_DataDelay_Queue_Nv0(b *testing.B) {
	benchPanel(b, experiments.PanelSpec{ID: "fig13b", Figure: 13, Fixed: 0, Queue: true})
}

func BenchmarkFig13c_DataDelay_NoQueue_Nv10(b *testing.B) {
	benchPanel(b, experiments.PanelSpec{ID: "fig13c", Figure: 13, Fixed: 10, Queue: false})
}

func BenchmarkFig13d_DataDelay_Queue_Nv10(b *testing.B) {
	benchPanel(b, experiments.PanelSpec{ID: "fig13d", Figure: 13, Fixed: 10, Queue: true})
}

func BenchmarkFig13e_DataDelay_NoQueue_Nv20(b *testing.B) {
	benchPanel(b, experiments.PanelSpec{ID: "fig13e", Figure: 13, Fixed: 20, Queue: false})
}

func BenchmarkFig13f_DataDelay_Queue_Nv20(b *testing.B) {
	benchPanel(b, experiments.PanelSpec{ID: "fig13f", Figure: 13, Fixed: 20, Queue: true})
}

// --- §5.3.3: mobile speed sensitivity --------------------------------------

func BenchmarkSpeedSweep(b *testing.B) {
	rc := benchRunConfig()
	for i := 0; i < b.N; i++ {
		pts, err := experiments.SpeedSweep(context.Background(), 60, []float64{10, 50, 80}, rc)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*pts[len(pts)-1].VoiceLoss, "loss-at-80kmh-%")
	}
}

// --- Ablations: one CHARISMA mechanism varied per benchmark ----------------

func ablationCell(mutate func(*core.Scenario)) (float64, error) {
	sc := core.DefaultScenario(core.ProtoCharisma)
	sc.NumVoice = 90
	sc.WarmupSec = 0.5
	sc.DurationSec = 2
	if mutate != nil {
		mutate(&sc)
	}
	r, err := sc.Run(context.Background())
	return r.VoiceLossRate, err
}

// BenchmarkAblationPriorityWeights isolates the CSI term of eq. (2):
// alpha=0 degrades CHARISMA to channel-blind urgency scheduling.
func BenchmarkAblationPriorityWeights(b *testing.B) {
	for i := 0; i < b.N; i++ {
		with, err := ablationCell(nil)
		if err != nil {
			b.Fatal(err)
		}
		blind, err := ablationCell(func(sc *core.Scenario) { sc.MAC.Charisma.Alpha = 0 })
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*with, "loss-csi-%")
		b.ReportMetric(100*blind, "loss-blind-%")
	}
}

// BenchmarkAblationCSIRefresh disables the §4.4 polling subframe.
func BenchmarkAblationCSIRefresh(b *testing.B) {
	for i := 0; i < b.N; i++ {
		with, err := ablationCell(nil)
		if err != nil {
			b.Fatal(err)
		}
		without, err := ablationCell(func(sc *core.Scenario) { sc.MAC.Charisma.DisableCSIRefresh = true })
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*with, "loss-polling-%")
		b.ReportMetric(100*without, "loss-nopolling-%")
	}
}

// BenchmarkAblationRequestSlots sweeps the contention opportunity count —
// the design axis that explains RMAV's instability.
func BenchmarkAblationRequestSlots(b *testing.B) {
	for _, nr := range []int{2, 5, 8} {
		nr := nr
		b.Run(fmt.Sprintf("Nr=%d", nr), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				loss, err := ablationCell(func(sc *core.Scenario) {
					// Keep the frame budget: request + pilot minislots
					// together stay at 10.
					sc.MAC.Geometry.CharismaRequestSlots = nr
					sc.MAC.Geometry.CharismaPilotSlots = 10 - nr
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(100*loss, "loss-%")
			}
		})
	}
}

// BenchmarkAblationVoiceOffset removes the static voice priority offset V.
func BenchmarkAblationVoiceOffset(b *testing.B) {
	for i := 0; i < b.N; i++ {
		with, err := ablationCell(func(sc *core.Scenario) { sc.NumData = 20 })
		if err != nil {
			b.Fatal(err)
		}
		without, err := ablationCell(func(sc *core.Scenario) {
			sc.NumData = 20
			sc.MAC.Charisma.VoiceOffset = 0
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*with, "loss-offsetV-%")
		b.ReportMetric(100*without, "loss-noOffset-%")
	}
}

// BenchmarkAblationFairness compares eq. (2)'s absolute CSI ranking with
// the §6 channel-capacity-fair variant (FairnessExponent=1).
func BenchmarkAblationFairness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		absolute, err := ablationCell(nil)
		if err != nil {
			b.Fatal(err)
		}
		fair, err := ablationCell(func(sc *core.Scenario) {
			sc.MAC.Charisma.FairnessExponent = 1
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*absolute, "loss-eq2-%")
		b.ReportMetric(100*fair, "loss-fair-%")
	}
}

// BenchmarkMultiCellHandoff quantifies the §6 handoff extension: long-term
// CSI attachment vs static attachment at two near-capacity cells.
func BenchmarkMultiCellHandoff(b *testing.B) {
	run := func(disable bool) float64 {
		r, err := RunMultiCell(MultiCellOptions{
			VoiceUsers:     160,
			ShadowSigmaDB:  8,
			DisableHandoff: disable,
			Seed:           1,
			Warmup:         500 * time.Millisecond,
			Duration:       3 * time.Second,
		})
		if err != nil {
			b.Fatal(err)
		}
		return r.VoiceLossRate
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(100*run(false), "loss-handoff-%")
		b.ReportMetric(100*run(true), "loss-static-%")
	}
}

// BenchmarkAblationQueueCap varies the selection-diversity pool depth
// (§5.3.2).
func BenchmarkAblationQueueCap(b *testing.B) {
	for _, cap := range []int{4, 32, 128} {
		cap := cap
		b.Run(fmt.Sprintf("cap=%d", cap), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				loss, err := ablationCell(func(sc *core.Scenario) {
					sc.UseQueue = true
					sc.MAC.QueueCap = cap
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(100*loss, "loss-%")
			}
		})
	}
}

// --- substrate micro-benchmarks --------------------------------------------

// BenchmarkScenarioRun tracks the end-to-end allocation footprint of a
// complete (short) scenario run — the unit a sweep fans out by the
// thousand.
func BenchmarkScenarioRun(b *testing.B) {
	sc := core.DefaultScenario(core.ProtoCharisma)
	sc.NumVoice, sc.NumData = 30, 5
	sc.WarmupSec, sc.DurationSec = 0.25, 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sc.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplicatedSweep drives a sweep the way the figure sweeps run
// one: protocols × loads × replications as one grid session on the
// loopback pool.
func BenchmarkReplicatedSweep(b *testing.B) {
	var pts []grid.Point
	for _, p := range []string{core.ProtoCharisma, core.ProtoDTDMAFR} {
		for _, nv := range []int{20, 40} {
			sc := core.DefaultScenario(p)
			sc.NumVoice = nv
			sc.WarmupSec, sc.DurationSec = 0.25, 1
			pts = append(pts, grid.Point{Spec: grid.ScenarioSpec(sc), Replications: 4})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := grid.RunPoints(context.Background(), pts, grid.DriveConfig{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*rs[0].VoiceLossRate, "charisma-loss-%")
	}
}

// Package-level benchmark sinks: results are stored where the compiler can
// see them escape, so dead-store elimination cannot elide the measured
// work. Every micro-benchmark whose result would otherwise be discarded
// writes through one of these.
var (
	benchSinkMode phy.Mode
	benchSinkF    float64
)

func BenchmarkFadingAdvance(b *testing.B) {
	f := channel.NewFading(channel.DefaultParams(), rng.New(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Advance(800)
	}
	// Read the advanced state through the sink so the loop is not dead.
	benchSinkF = f.Amplitude()
}

// BenchmarkChannelSlabQuery measures the per-query amplitude cost the MAC
// schedulers pay between advances — memoized per step on the plane, where
// the scalar implementation re-paid a dB→linear exp plus a Hypot per call.
func BenchmarkChannelSlabQuery(b *testing.B) {
	slab := channel.NewSlab()
	users := make([]*channel.Fading, 100)
	for u := range users {
		users[u] = slab.New(channel.DefaultParams(), rng.DeriveIndexed(1, "chan", u))
		users[u].Advance(800)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := 0.0
		for _, f := range users {
			s += f.Amplitude()
		}
		benchSinkF = s
	}
}

// BenchmarkChannelReplayCatchUp measures the lazy-replay catch-up of a
// long-idle station: 400 deferred frames (one second) settled in one
// batched AdvanceSteps call.
func BenchmarkChannelReplayCatchUp(b *testing.B) {
	f := channel.NewFading(channel.DefaultParams(), rng.New(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.AdvanceSteps(800, 400)
	}
	benchSinkF = f.Amplitude()
}

func BenchmarkModeSelection(b *testing.B) {
	a := phy.NewAdaptive(phy.DefaultParams())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		amp := 0.01 + float64(i%100)*0.05
		benchSinkMode = a.ModeForAmplitude(amp)
	}
}

// BenchmarkFrame — per-frame cost vs active-vs-total population at 10⁴
// stations — lives beside the station registry it exercises:
// internal/mac/registry_invariant_test.go.

// --- population scaling: million-station cells -----------------------------

// parkedCell builds an n-station deferred population with a common
// far-future first wake — the cheapest possible cell — and returns it with
// the measured resident heap per station (GC-settled delta across the
// build).
func parkedCell(b *testing.B, n int) (*mac.System, float64) {
	b.Helper()
	fw := make([]sim.Time, n)
	for i := range fw {
		fw[i] = 1 << 40
	}
	pop := &mac.Population{
		FirstWake: fw,
		Materialize: func(i int) (*traffic.VoiceSource, *traffic.DataSource, *channel.Fading) {
			b.Fatalf("parked station %d materialized", i)
			return nil, nil, nil
		},
	}
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	sys := &mac.System{}
	if err := sys.Reset(mac.DefaultConfig(), phy.NewAdaptive(phy.DefaultParams()), n, rng.New(1), pop); err != nil {
		b.Fatal(err)
	}
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return sys, float64(after.HeapAlloc-before.HeapAlloc) / float64(n)
}

// BenchmarkIdleCellPopulation pins the population-scaling promise of the
// timer wheel + SoA slab layout: instantiating an idle cell costs O(tens
// of bytes) per station (B/station metric), and the per-frame cost of
// running it idle is population-independent — the 10⁶ row must stay within
// a small constant of the 10⁴ row (ns/frame metric), because a frame
// touches only the wheel's current granule and the (empty) active buckets,
// never the parked population.
func BenchmarkIdleCellPopulation(b *testing.B) {
	for _, n := range []int{10_000, 100_000, 1_000_000} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			sys, perStation := parkedCell(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sys.BeginFrame()
				sys.EndFrame(sys.FrameDuration())
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/frame")
			b.ReportMetric(perStation, "B/station")
			runtime.KeepAlive(sys)
		})
	}
}

// BenchmarkIdleWakeCell measures the steady-state idle-wake cycle at 10⁵
// stations: 2000 voice stations cycle talkspurt→idle→wheel-wake while the
// rest stay parked. After warmup the wake path (collect, materialize-free
// advance, re-arm, cascade) allocates only when a wheel bucket grows past
// its high-water mark; TestIdleWakeHotPathAllocs in internal/mac guards it.
func BenchmarkIdleWakeCell(b *testing.B) {
	const n, active = 100_000, 2000
	vp := traffic.DefaultVoiceParams()
	voices := make([]*traffic.VoiceSource, active)
	fw := make([]sim.Time, n)
	for i := range fw {
		if i < active {
			voices[i] = traffic.NewVoice(vp, rng.DeriveIndexed(41, "benchv", i), 0)
			fw[i] = voices[i].NextEventAt()
		} else {
			fw[i] = 1 << 40
		}
	}
	pop := &mac.Population{
		FirstWake: fw,
		Materialize: func(i int) (*traffic.VoiceSource, *traffic.DataSource, *channel.Fading) {
			return voices[i], nil, nil
		},
	}
	sys := &mac.System{}
	if err := sys.Reset(mac.DefaultConfig(), phy.NewAdaptive(phy.DefaultParams()), n, rng.New(2), pop); err != nil {
		b.Fatal(err)
	}
	// Warm past one level-1 wheel revolution (buckets, scratch slices) AND
	// past every source's first long unserved talkspurt: a voice buffer
	// only reaches its terminal capacity after ~65 packets accumulate in
	// one talkspurt, which takes ~1.3 simulated seconds of talking. 32000
	// frames ≈ 32 talk/silence cycles leaves no straggler among 2000
	// sources, after which the frame path allocates only when a wheel
	// bucket grows past its high-water mark.
	for f := 0; f < 32000; f++ {
		sys.BeginFrame()
		sys.EndFrame(sys.FrameDuration())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.BeginFrame()
		sys.EndFrame(sys.FrameDuration())
	}
}

// BenchmarkMulticellSharded measures an 8-cell deployment advancing on 1
// worker vs one per core: cells synchronize only at handoff decision
// epochs, so wall-clock should scale down with cores while the numbers
// stay byte-identical (TestShardedDeterminismAcrossWorkerCounts).
func BenchmarkMulticellSharded(b *testing.B) {
	for _, w := range []int{1, runtime.NumCPU()} {
		w := w
		b.Run(fmt.Sprintf("cells=8/workers=%d", w), func(b *testing.B) {
			p := multicell.DefaultParams()
			p.Cells = 8
			p.NumVoice = 320
			p.Workers = w
			p.WarmupSec, p.DurationSec = 0.25, 1.5
			for i := 0; i < b.N; i++ {
				// Run consumes the deployment, so it is rebuilt per
				// iteration — but construction (2.5k station clones,
				// fading init) must not dilute the sharded frame loop
				// this benchmark compares across worker counts.
				b.StopTimer()
				d, err := multicell.New(p)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := d.Run(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// steadyFrames is the batch the frame-path allocation guards count: 8,000
// frames, 20 simulated seconds. testing.AllocsPerRun(1, batch) returns the
// batch's exact malloc count, so a rate below one per frame cannot round
// down to zero.
const steadyFrames = 8000

// maxSteadyMallocs caps the mallocs of one steadyFrames batch. What is left
// after the warm-up is rare high-water growth of traffic buffers and
// timer-wheel buckets (at most 34 in any guarded cell); a malloc every
// 125 frames already exceeds it.
const maxSteadyMallocs = 64

// runFrames steps proto over sys for n frames.
func runFrames(sys *mac.System, proto mac.Protocol, n int) {
	for f := 0; f < n; f++ {
		sys.BeginFrame()
		sys.EndFrame(proto.RunFrame(sys))
	}
}

// steadyMallocs warms proto over sys for 22,000 frames, then returns the
// exact malloc count of one steadyFrames batch. AllocsPerRun runs the batch
// once unmeasured first, so the count covers frames 30,000 to 38,000.
func steadyMallocs(sys *mac.System, proto mac.Protocol) float64 {
	runFrames(sys, proto, 22000)
	return testing.AllocsPerRun(1, func() { runFrames(sys, proto, steadyFrames) })
}

// TestActiveFrameSteadyStateAllocs is the allocation guard on the
// *active*-cell frame path, complementing the idle-cell
// TestFrameHotPathAllocs in internal/mac: once the request free list, the
// BS queue buffers and the schedulers' scratch reach their high-water
// marks, a 60-voice cell of every protocol, with and without the BS
// request queue, at 10 and at 40 data stations, stays within
// maxSteadyMallocs per steadyFrames frames.
func TestActiveFrameSteadyStateAllocs(t *testing.T) {
	for _, p := range core.Protocols() {
		for _, q := range []bool{false, true} {
			for _, nd := range []int{10, 40} {
				sc := core.DefaultScenario(p)
				sc.NumVoice, sc.NumData = 60, nd
				sc.UseQueue = q
				sys, proto, err := sc.Build()
				if err != nil {
					t.Fatal(err)
				}
				proto.Init(sys)
				n := steadyMallocs(sys, proto)
				t.Logf("%s queue=%v Nd=%d: %.0f mallocs", p, q, nd, n)
				if n > maxSteadyMallocs {
					t.Errorf("%s queue=%v Nd=%d: %.0f mallocs in %d steady-state frames, want <= %d",
						p, q, nd, n, steadyFrames, maxSteadyMallocs)
				}
			}
		}
	}
}

// TestObsOffHotPathAllocs is the observability cost gate: with no
// observer attached (no flight recorder) the always-compiled-in
// mac.Counters must be invisible. The steady-state frame path stays
// within the active-frame malloc ceiling while the counters demonstrably
// advance. If instrumentation ever grows an allocation per frame, this
// fails before any golden or bench gate does.
func TestObsOffHotPathAllocs(t *testing.T) {
	sc := core.DefaultScenario(core.ProtoCharisma)
	sc.NumVoice, sc.NumData = 60, 10
	sys, proto, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	proto.Init(sys)
	runFrames(sys, proto, 22000)
	// AllocsPerRun calls the batch twice and counts only the second call,
	// so the snapshot the last call takes opens the measured frames.
	before := *sys.Obs()
	n := testing.AllocsPerRun(1, func() {
		before = *sys.Obs()
		runFrames(sys, proto, steadyFrames)
	})
	after := *sys.Obs()
	if n > maxSteadyMallocs {
		t.Errorf("%.0f mallocs in %d frames with live counters, want <= %d", n, steadyFrames, maxSteadyMallocs)
	}
	if after.WheelArms <= before.WheelArms {
		t.Error("WheelArms did not advance during the measured frames")
	}
	if after.CandHits+after.CandMisses <= before.CandHits+before.CandMisses {
		t.Error("candidate-cache counters did not advance")
	}
}

// obsBenchSink keeps the per-frame counter read in BenchmarkObsOffFrame
// from being optimized away.
var obsBenchSink uint64

// BenchmarkObsOffFrame is BenchmarkCharismaFrame plus a counter read per
// frame: the cost of observability, whose allocations
// TestObsOffHotPathAllocs guards.
func BenchmarkObsOffFrame(b *testing.B) {
	sc := core.DefaultScenario(core.ProtoCharisma)
	sc.NumVoice, sc.NumData = 60, 10
	sys, proto, err := sc.Build()
	if err != nil {
		b.Fatal(err)
	}
	proto.Init(sys)
	for f := 0; f < 2000; f++ {
		sys.BeginFrame()
		sys.EndFrame(proto.RunFrame(sys))
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sys.BeginFrame()
		sys.EndFrame(proto.RunFrame(sys))
		sink += sys.Obs().WheelArms
	}
	obsBenchSink = sink
}

func BenchmarkCharismaFrame(b *testing.B) {
	sc := core.DefaultScenario(core.ProtoCharisma)
	sc.NumVoice, sc.NumData = 60, 10
	sys, proto, err := sc.Build()
	if err != nil {
		b.Fatal(err)
	}
	proto.Init(sys)
	// Warm up past the transient: the request free list and the
	// scheduler's candidate scratch reach their high-water marks within
	// a few talkspurt cycles, after which the frame path allocates only
	// on rare high-water growth (TestActiveFrameSteadyStateAllocs guards
	// this cell among others).
	for f := 0; f < 2000; f++ {
		sys.BeginFrame()
		sys.EndFrame(proto.RunFrame(sys))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.BeginFrame()
		sys.EndFrame(proto.RunFrame(sys))
	}
}

func BenchmarkSimulatedSecondAllProtocols(b *testing.B) {
	for _, p := range core.Protocols() {
		p := p
		b.Run(p, func(b *testing.B) {
			sc := core.DefaultScenario(p)
			sc.NumVoice, sc.NumData = 50, 10
			sys, proto, err := sc.Build()
			if err != nil {
				b.Fatal(err)
			}
			proto.Init(sys)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				limit := sys.Now() + sim.Second
				for sys.Now() < limit {
					sys.BeginFrame()
					sys.EndFrame(proto.RunFrame(sys))
				}
			}
		})
	}
}

// Guard: the bench file shares the package with the public API; keep the
// compile-time references honest.
var (
	_ = Options{}
	_ = mac.KindVoice
	_ = time.Second
)
