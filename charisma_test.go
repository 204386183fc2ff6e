package charisma

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"charisma/internal/core"
)

func quickOpts(p Protocol) Options {
	return Options{
		Protocol:   p,
		VoiceUsers: 10,
		DataUsers:  2,
		Seed:       1,
		Warmup:     500 * time.Millisecond,
		Duration:   3 * time.Second,
	}
}

func TestAllProtocolsEnumerated(t *testing.T) {
	ps := AllProtocols()
	if len(ps) != 6 {
		t.Fatalf("%d protocols, want 6", len(ps))
	}
	if ps[0] != ProtocolCHARISMA {
		t.Fatalf("first protocol = %s, want charisma", ps[0])
	}
}

func TestRunDefaultsToCharisma(t *testing.T) {
	o := quickOpts("")
	res, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Protocol != "charisma" {
		t.Fatalf("default protocol = %s", res.Protocol)
	}
}

func TestRunProducesMetrics(t *testing.T) {
	res, err := Run(quickOpts(ProtocolCHARISMA))
	if err != nil {
		t.Fatal(err)
	}
	if res.Frames <= 0 || res.VoiceGenerated == 0 || res.DataGenerated == 0 {
		t.Fatalf("incomplete result: %+v", res)
	}
	if res.MeanDataDelay < 0 {
		t.Fatal("negative delay")
	}
}

func TestRunRejectsEmptyCell(t *testing.T) {
	if _, err := Run(Options{}); err == nil {
		t.Fatal("empty cell accepted")
	}
}

// TestNegativeOptionsRejected: zero selects an option's default, so a
// negative value must be rejected with a *core.ValidationError naming the
// field rather than run as if it were zero.
func TestNegativeOptionsRejected(t *testing.T) {
	wantField := func(t *testing.T, err error, field string) {
		t.Helper()
		var ve *core.ValidationError
		if !errors.As(err, &ve) || ve.Field != field {
			t.Fatalf("err = %v, want a *core.ValidationError for %s", err, field)
		}
	}
	for field, set := range map[string]func(*Options){
		"Warmup":          func(o *Options) { o.Warmup = -3 * time.Second },
		"Duration":        func(o *Options) { o.Duration = -time.Second },
		"SpeedKmh":        func(o *Options) { o.SpeedKmh = -20 },
		"Replications":    func(o *Options) { o.Replications = -1 },
		"Workers":         func(o *Options) { o.Workers = -1 },
		"TargetPrecision": func(o *Options) { o.TargetPrecision = -0.5 },
		"MaxReplications": func(o *Options) { o.MaxReplications = -1 },
	} {
		t.Run("Options."+field, func(t *testing.T) {
			o := quickOpts(ProtocolCHARISMA)
			set(&o)
			_, err := Run(o)
			wantField(t, err, field)
			_, err = Compare(o, ProtocolDRMA)
			wantField(t, err, field)
		})
	}
	for field, set := range map[string]func(*MultiCellOptions){
		"Cells":               func(o *MultiCellOptions) { o.Cells = -2 },
		"HandoffHysteresisDB": func(o *MultiCellOptions) { o.HandoffHysteresisDB = -4 },
		"HandoffPeriod":       func(o *MultiCellOptions) { o.HandoffPeriod = -time.Millisecond },
		"Workers":             func(o *MultiCellOptions) { o.Workers = -1 },
		"ShadowSigmaDB":       func(o *MultiCellOptions) { o.ShadowSigmaDB = -1 },
		"SpeedKmh":            func(o *MultiCellOptions) { o.SpeedKmh = -20 },
		"Warmup":              func(o *MultiCellOptions) { o.Warmup = -time.Second },
		"Duration":            func(o *MultiCellOptions) { o.Duration = -time.Second },
		"Replications":        func(o *MultiCellOptions) { o.Replications = -1 },
		"NumVoice":            func(o *MultiCellOptions) { o.VoiceUsers = -5 },
	} {
		t.Run("MultiCellOptions."+field, func(t *testing.T) {
			o := MultiCellOptions{VoiceUsers: 10, Duration: time.Second}
			set(&o)
			_, err := RunMultiCell(o)
			wantField(t, err, field)
		})
	}
}

// TestNonFiniteOptionsRejected: a NaN option fails as a typed error instead
// of passing every comparison and running the default, and a mean SNR
// whose linear value is +Inf or 0 (which used to hang the PHY build) fails
// fast, within a deadline, naming the PHY block.
func TestNonFiniteOptionsRejected(t *testing.T) {
	for name, tc := range map[string]struct {
		set   func(*Options)
		field string
	}{
		"SpeedKmh NaN":      {func(o *Options) { o.SpeedKmh = math.NaN() }, "SpeedKmh"},
		"SpeedKmh +Inf":     {func(o *Options) { o.SpeedKmh = math.Inf(1) }, "Channel"},
		"TargetPrecision":   {func(o *Options) { o.TargetPrecision = math.NaN() }, "TargetPrecision"},
		"MeanSNRdB NaN":     {func(o *Options) { o.MeanSNRdB = math.NaN() }, "PHY"},
		"MeanSNRdB 1e308":   {func(o *Options) { o.MeanSNRdB = 1e308 }, "PHY"},
		"MeanSNRdB -1e308":  {func(o *Options) { o.MeanSNRdB = -1e308 }, "PHY"},
		"MeanSNRdB +Inf dB": {func(o *Options) { o.MeanSNRdB = math.Inf(1) }, "PHY"},
	} {
		t.Run(name, func(t *testing.T) {
			o := quickOpts(ProtocolCHARISMA)
			tc.set(&o)
			done := make(chan error, 1)
			go func() {
				_, err := Run(o)
				done <- err
			}()
			select {
			case err := <-done:
				var ve *core.ValidationError
				if !errors.As(err, &ve) || ve.Field != tc.field {
					t.Fatalf("err = %v, want a *core.ValidationError for %s", err, tc.field)
				}
			case <-time.After(20 * time.Second):
				t.Fatal("Run did not return within 20 s")
			}
		})
	}
}

func TestRunRejectsUnknownProtocol(t *testing.T) {
	o := quickOpts("aloha")
	if _, err := Run(o); err == nil {
		t.Fatal("unknown protocol accepted")
	}
}

func TestRunDeterministicAcrossCalls(t *testing.T) {
	a, err := Run(quickOpts(ProtocolDRMA))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(quickOpts(ProtocolDRMA))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("same options produced different results")
	}
}

func TestCompareDefaultsToAllSix(t *testing.T) {
	res, err := Compare(quickOpts(""))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 6 {
		t.Fatalf("%d results, want 6", len(res))
	}
	seen := map[string]bool{}
	for _, r := range res {
		seen[r.Protocol] = true
	}
	if len(seen) != 6 {
		t.Fatalf("duplicate protocols in comparison: %v", seen)
	}
}

func TestCompareSubset(t *testing.T) {
	res, err := Compare(quickOpts(""), ProtocolRAMA, ProtocolRMAV)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || res[0].Protocol != "rama" || res[1].Protocol != "rmav" {
		t.Fatalf("subset comparison wrong: %+v", res)
	}
}

func TestCompareSharesTraffic(t *testing.T) {
	res, err := Compare(quickOpts(""), ProtocolCHARISMA, ProtocolDTDMAFR, ProtocolDRMA)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res); i++ {
		if res[i].VoiceGenerated != res[0].VoiceGenerated {
			t.Fatal("protocols saw different traffic (CRN broken)")
		}
	}
}

func TestCustomizeHook(t *testing.T) {
	o := quickOpts(ProtocolCHARISMA)
	called := false
	o.Customize = func(sc *Scenario) {
		called = true
		sc.MAC.Charisma.Alpha = 0.5
	}
	if _, err := Run(o); err != nil {
		t.Fatal(err)
	}
	if !called {
		t.Fatal("Customize hook not invoked")
	}
}

func TestOptionOverridesApplied(t *testing.T) {
	o := quickOpts(ProtocolCHARISMA)
	o.SpeedKmh = 80
	o.MeanSNRdB = 15
	o.WithRequestQueue = true
	var captured Scenario
	o.Customize = func(sc *Scenario) { captured = *sc }
	if _, err := Run(o); err != nil {
		t.Fatal(err)
	}
	if captured.Channel.SpeedKmh != 80 {
		t.Fatalf("speed = %v", captured.Channel.SpeedKmh)
	}
	if captured.PHY.MeanSNRdB != 15 {
		t.Fatalf("SNR = %v", captured.PHY.MeanSNRdB)
	}
	if !captured.UseQueue {
		t.Fatal("queue flag not propagated")
	}
}

func TestFrameDuration(t *testing.T) {
	if FrameDuration() != 2500*time.Microsecond {
		t.Fatalf("frame duration = %v, want 2.5ms", FrameDuration())
	}
}

func TestFadingTracePublicAPI(t *testing.T) {
	tr := FadingTrace(1, time.Second, 50)
	if len(tr) != 400 {
		t.Fatalf("%d samples for 1 s at 2.5 ms, want 400", len(tr))
	}
	for i := 1; i < len(tr); i++ {
		if tr[i].At <= tr[i-1].At {
			t.Fatal("trace time not increasing")
		}
	}
	// Determinism.
	tr2 := FadingTrace(1, time.Second, 50)
	if tr[100] != tr2[100] {
		t.Fatal("trace not deterministic")
	}
}

// TestFadingTraceNegativeDuration: a negative duration is an empty
// trace, not a panic.
func TestFadingTraceNegativeDuration(t *testing.T) {
	if tr := FadingTrace(1, -time.Second, 50); len(tr) != 0 {
		t.Fatalf("%d samples for a -1 s trace, want none", len(tr))
	}
}

func TestPHYCurvesPublicAPI(t *testing.T) {
	pts := PHYCurves(100)
	if len(pts) != 100 {
		t.Fatalf("%d points", len(pts))
	}
	prevEta := -1.0
	for _, p := range pts {
		if p.Throughput < prevEta {
			t.Fatal("throughput staircase not monotone")
		}
		prevEta = p.Throughput
		if p.BER < 0 || p.BER > 0.5 {
			t.Fatalf("BER %v out of range", p.BER)
		}
	}
	if pts[0].Throughput != 0 || !pts[0].Outage {
		t.Fatal("lowest CSI should be in outage")
	}
	if pts[len(pts)-1].Throughput != 5 {
		t.Fatal("highest CSI should reach η=5")
	}
	if PHYCurves(1) == nil {
		t.Fatal("degenerate n not handled")
	}
}

func TestRunMultiCellPublicAPI(t *testing.T) {
	r, err := RunMultiCell(MultiCellOptions{
		VoiceUsers: 30,
		Seed:       1,
		Warmup:     500 * time.Millisecond,
		Duration:   3 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.VoiceGenerated == 0 {
		t.Fatal("no traffic")
	}
	if len(r.PerCellLossRates) != 2 {
		t.Fatalf("%d cells, want 2 by default", len(r.PerCellLossRates))
	}
}

// TestDefaultDurations pins the documented default windows: a zero
// Duration measures 60 s in a single cell and 20 s in each cell of a
// deployment (2.5 ms frames; a deployment's Frames sums its cells).
func TestDefaultDurations(t *testing.T) {
	r, err := Run(Options{VoiceUsers: 5})
	if err != nil {
		t.Fatal(err)
	}
	if r.Frames != 24_000 {
		t.Errorf("single cell: %v frames, want 24000 (60 s)", r.Frames)
	}
	m, err := RunMultiCell(MultiCellOptions{VoiceUsers: 5})
	if err != nil {
		t.Fatal(err)
	}
	if m.Frames != 16_000 {
		t.Errorf("2-cell deployment: %v frames, want 16000 (20 s per cell)", m.Frames)
	}
}

// TestDefaultMeanSNR pins the documented default link SNR: a zero
// MeanSNRdB runs the same cell, and the same deployment, as 12 dB.
func TestDefaultMeanSNR(t *testing.T) {
	opts := Options{VoiceUsers: 10, Warmup: 100 * time.Millisecond, Duration: 500 * time.Millisecond}
	def, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.MeanSNRdB = 12
	if r, err := Run(opts); err != nil || r != def {
		t.Errorf("single cell: MeanSNRdB 0 and 12 differ (err %v)", err)
	}
	mopts := MultiCellOptions{VoiceUsers: 10, Warmup: 100 * time.Millisecond, Duration: 500 * time.Millisecond}
	mdef, err := RunMultiCell(mopts)
	if err != nil {
		t.Fatal(err)
	}
	mopts.MeanSNRdB = 12
	if m, err := RunMultiCell(mopts); err != nil || !reflect.DeepEqual(m, mdef) {
		t.Errorf("deployment: MeanSNRdB 0 and 12 differ (err %v)", err)
	}
}

func TestRunMultiCellRejectsRMAV(t *testing.T) {
	for _, proto := range []Protocol{ProtocolRMAV, "RMAV"} {
		_, err := RunMultiCell(MultiCellOptions{Protocol: proto, VoiceUsers: 5})
		var ve *core.ValidationError
		if !errors.As(err, &ve) || ve.Field != "Protocol" {
			t.Errorf("%q: err %v, want a *core.ValidationError for Protocol", proto, err)
		}
	}
}

func TestRunMultiCellHandoffPeriodMapping(t *testing.T) {
	// A sub-frame handoff period must clamp to one frame, not zero.
	r, err := RunMultiCell(MultiCellOptions{
		VoiceUsers:    10,
		HandoffPeriod: time.Millisecond,
		Warmup:        200 * time.Millisecond,
		Duration:      time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = r
}

func TestFairnessExtensionRuns(t *testing.T) {
	o := quickOpts(ProtocolCHARISMA)
	o.Customize = func(sc *Scenario) { sc.MAC.Charisma.FairnessExponent = 1 }
	r, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if r.VoiceGenerated == 0 {
		t.Fatal("no traffic under fairness extension")
	}
}

func TestRunReplicated(t *testing.T) {
	o := quickOpts(ProtocolCHARISMA)
	o.Replications = 4
	res, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Replications != 4 {
		t.Fatalf("Replications = %d, want 4", res.Replications)
	}
	if res.VoiceLossCI95 <= 0 {
		t.Fatalf("VoiceLossCI95 = %v, want > 0 across independent reps", res.VoiceLossCI95)
	}
	// Pooled window must cover ~4x the single-run frames.
	single, err := Run(quickOpts(ProtocolCHARISMA))
	if err != nil {
		t.Fatal(err)
	}
	if single.Replications != 1 || single.VoiceLossCI95 != 0 {
		t.Fatalf("single run carries replication stats: %+v", single)
	}
	if res.Frames < 3.9*single.Frames {
		t.Fatalf("pooled frames %v, want ~4x %v", res.Frames, single.Frames)
	}
	// Replicated runs stay deterministic.
	res2, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if res != res2 {
		t.Fatal("replicated run not deterministic")
	}
}

func TestCompareReplicatedSharesTraffic(t *testing.T) {
	o := quickOpts("")
	o.Replications = 3
	res, err := Compare(o, ProtocolCHARISMA, ProtocolDRMA)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].VoiceGenerated != res[1].VoiceGenerated {
		t.Fatal("replicated protocols saw different traffic (CRN broken)")
	}
	if res[0].Replications != 3 || res[1].Replications != 3 {
		t.Fatalf("replication counts wrong: %d / %d", res[0].Replications, res[1].Replications)
	}
}

func TestRunContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunContext(ctx, quickOpts(ProtocolCHARISMA)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRunMultiCellReplicated(t *testing.T) {
	r, err := RunMultiCell(MultiCellOptions{
		VoiceUsers:   30,
		Seed:         1,
		Warmup:       500 * time.Millisecond,
		Duration:     2 * time.Second,
		Replications: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Replications != 2 {
		t.Fatalf("Replications = %d, want 2", r.Replications)
	}
	if len(r.PerCellLossRates) != 2 {
		t.Fatalf("%d cells, want 2", len(r.PerCellLossRates))
	}
}
