package grid

import (
	"errors"
	"fmt"
	"testing"

	"charisma/internal/core"
	"charisma/internal/sim"
)

// Caps that keep one acceptance input to milliseconds: an accepted spec's
// window is clamped to acceptWarmupSec + acceptDurationSec, and a spec
// whose population, cell count or clamped frame count is above its cap is
// skipped, not failed.
const (
	acceptWarmupSec   = 0.02
	acceptDurationSec = 0.08
	acceptMaxStations = 24
	acceptMaxCells    = 3
	acceptMaxFrames   = 400
)

// acceptSpec takes fuzz bytes through what a task's spec meets before it
// runs: DecodeSpec, the shape check, the payload's WithDefaults and
// Validate. A payload rejection must be a *core.ValidationError, and RunRep
// must reject the spec with it too. An accepted spec comes back with its
// window clamped (a shorter window of a valid spec is valid); over is set
// when it exceeds a cap.
func acceptSpec(t *testing.T, b []byte) (spec JobSpec, ok, over bool) {
	t.Helper()
	spec, err := DecodeSpec(b)
	if err != nil || spec.Validate() != nil {
		return JobSpec{}, false, false
	}
	var stations, cells int
	var warmup, duration *float64
	var frameSymbols int
	switch spec.Kind {
	case KindScenario:
		sc := spec.Scenario.WithDefaults()
		err = sc.Validate()
		stations, cells = sc.NumVoice+sc.NumData, 1
		warmup, duration = &sc.WarmupSec, &sc.DurationSec
		frameSymbols = sc.MAC.Geometry.FrameSymbols
		spec = ScenarioSpec(sc)
	default:
		p := spec.Multicell.WithDefaults()
		err = p.Validate()
		stations, cells = p.NumVoice+p.NumData, p.Cells
		warmup, duration = &p.WarmupSec, &p.DurationSec
		frameSymbols = p.MAC.Geometry.FrameSymbols
		spec = MulticellSpec(p)
	}
	if err != nil {
		var ve *core.ValidationError
		if !errors.As(err, &ve) {
			t.Fatalf("%s rejected with an untyped error: %v", spec.Kind, err)
		}
		if _, err := spec.RunRep(0); !errors.As(err, &ve) {
			t.Fatalf("%s: RunRep: %v, want the *core.ValidationError Validate gave", spec.Kind, err)
		}
		return JobSpec{}, false, false
	}
	*warmup = min(*warmup, acceptWarmupSec)
	*duration = min(*duration, acceptDurationSec)
	frames := (sim.FromSeconds(*warmup) + sim.FromSeconds(*duration)) / sim.Time(frameSymbols)
	over = stations > acceptMaxStations || cells > acceptMaxCells || frames > acceptMaxFrames
	return spec, true, over
}

// runAccepted runs an accepted spec's replication 0, which must succeed,
// and renders the result so NaN fields compare too.
func runAccepted(t *testing.T, spec JobSpec) string {
	t.Helper()
	r, err := spec.RunRep(0)
	if err != nil {
		t.Fatalf("accepted %s spec failed to run: %v", spec.Kind, err)
	}
	return fmt.Sprintf("%+v", r)
}

// acceptFallback is the second spec run between two runs of an accepted
// one when the fuzzed second spec is not usable: the same kind, another
// shape.
func acceptFallback(kind string) JobSpec {
	if kind == KindScenario {
		sc := tinyScenario(core.ProtoDRMA, 9, 5)
		sc.UseQueue = true
		sc.WarmupSec, sc.DurationSec = acceptWarmupSec, acceptDurationSec
		return ScenarioSpec(sc)
	}
	p := tinyMulticell()
	p.Cells, p.NumVoice, p.NumData, p.Protocol = 3, 10, 4, core.ProtoRAMA
	p.WarmupSec, p.DurationSec = acceptWarmupSec, acceptDurationSec
	return MulticellSpec(p)
}

// FuzzJobSpecAcceptance feeds arbitrary JobSpec JSON through decode,
// validation and a run. Nothing may panic; a payload rejection is a
// *core.ValidationError on both the validation and the run path; every
// accepted spec runs to completion. It is also a differential check of the
// pooled replication arenas (core's for scenarios, multicell's for
// deployments) over arbitrary knobs: an accepted spec a is run, then a
// second accepted spec of the same kind through the same pools (b, or a
// fixed fallback), then a again, and the two runs of a must be identical.
func FuzzJobSpecAcceptance(f *testing.F) {
	enc := func(s JobSpec) []byte {
		b, err := s.Encode()
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	small := func(sc core.Scenario) JobSpec {
		sc.WarmupSec, sc.DurationSec = 0.01, 0.05
		return ScenarioSpec(sc)
	}
	mc := tinyMulticell()
	mc.NumVoice, mc.NumData, mc.UseQueue = 8, 3, true
	mc.WarmupSec, mc.DurationSec = 0.01, 0.06
	mc.DecisionPeriodFrames = 4
	for _, proto := range core.Protocols() {
		f.Add(enc(small(tinyScenario(proto, 6, 2))), enc(small(tinyScenario(core.ProtoCharisma, 3, 7))))
	}
	f.Add(enc(MulticellSpec(mc)), enc(acceptFallback(KindMulticell)))
	f.Add([]byte(`{"Kind":"scenario","Scenario":{"Protocol":"RMAV","NumVoice":3,"DurationSec":0.05}}`), []byte(`{}`))
	f.Add([]byte(`{"Kind":"multicell","Multicell":{"Cells":2,"Protocol":" Rama ","NumVoice":4,"DurationSec":0.05}}`), []byte(`{"Kind":"multicell"}`))
	f.Add([]byte(`{"Kind":"multicell","Multicell":{"Cells":2,"Protocol":"rmav","NumVoice":4}}`), []byte(`null`))
	f.Add([]byte(`{"Kind":"scenario","Scenario":{"Protocol":"charisma","NumVoice":-1}}`), []byte(`[`))
	f.Add([]byte(`{"Kind":"scenario","Scenario":{"Protocol":"drma","NumData":2,"PHY":{"MeanSNRdB":-20}}}`), []byte(``))
	f.Fuzz(func(t *testing.T, a, b []byte) {
		specA, ok, over := acceptSpec(t, a)
		if !ok {
			return
		}
		if over {
			t.Skip("over the population, cell or frame cap")
		}
		specB, okB, overB := acceptSpec(t, b)
		if !okB || overB || specB.Kind != specA.Kind {
			specB = acceptFallback(specA.Kind)
		}
		first := runAccepted(t, specA)
		runAccepted(t, specB)
		if again := runAccepted(t, specA); again != first {
			t.Fatalf("%s spec ran differently after another spec in the same arenas:\n%s\n%s", specA.Kind, first, again)
		}
	})
}

// TestAcceptFallbackShapes: both fallback specs are accepted and inside
// every cap, so every accepted input gets its second run.
func TestAcceptFallbackShapes(t *testing.T) {
	for _, kind := range []string{KindScenario, KindMulticell} {
		b, err := acceptFallback(kind).Encode()
		if err != nil {
			t.Fatal(err)
		}
		if _, ok, over := acceptSpec(t, b); !ok || over {
			t.Fatalf("%s fallback: accepted %v, over a cap %v", kind, ok, over)
		}
	}
}
