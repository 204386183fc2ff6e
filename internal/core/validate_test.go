package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"charisma/internal/sim"
)

// TestValidateRejections: every malformed scenario fails with a typed
// *ValidationError naming the offending field, so loaders (the grid's
// scenario files) can dispatch on the failure instead of string-matching.
func TestValidateRejections(t *testing.T) {
	// base is a valid defaulted scenario the cases perturb.
	base := func() Scenario {
		return DefaultScenario(ProtoCharisma).WithDefaults()
	}
	cases := []struct {
		name   string
		mutate func(*Scenario)
		field  string // expected ValidationError.Field
		reason string // substring expected in ValidationError.Reason
	}{
		{
			name:   "zero population",
			mutate: func(sc *Scenario) { sc.NumVoice, sc.NumData = 0, 0 },
			field:  "NumVoice+NumData",
			reason: "empty traffic mix",
		},
		{
			name:   "negative voice population",
			mutate: func(sc *Scenario) { sc.NumVoice = -1 },
			field:  "NumVoice",
			reason: "negative station count",
		},
		{
			name:   "negative data population",
			mutate: func(sc *Scenario) { sc.NumData = -3 },
			field:  "NumData",
			reason: "negative station count",
		},
		{
			name:   "unknown protocol",
			mutate: func(sc *Scenario) { sc.Protocol = "aloha" },
			field:  "Protocol",
			reason: `unknown protocol "aloha"`,
		},
		{
			name:   "speed vector length mismatch",
			mutate: func(sc *Scenario) { sc.SpeedsKmh = []float64{50} },
			field:  "SpeedsKmh",
			reason: "1 speeds for",
		},
		{
			name: "negative per-station speed",
			mutate: func(sc *Scenario) {
				sc.NumVoice, sc.NumData = 2, 0
				sc.SpeedsKmh = []float64{50, -5}
			},
			field:  "SpeedsKmh",
			reason: "station 1 speed -5",
		},
		{
			name: "non-finite per-station speed",
			mutate: func(sc *Scenario) {
				sc.NumVoice, sc.NumData = 1, 1
				sc.SpeedsKmh = []float64{50, math.NaN()}
			},
			field:  "SpeedsKmh",
			reason: "station 1 speed",
		},
		{
			name:   "invalid channel parameters",
			mutate: func(sc *Scenario) { sc.Channel.SpeedKmh = -10 },
			field:  "Channel",
		},
		{
			name:   "invalid PHY parameters",
			mutate: func(sc *Scenario) { sc.PHY.Etas = sc.PHY.Etas[:len(sc.PHY.Etas)-1] },
			field:  "PHY",
		},
		{
			name:   "invalid MAC geometry",
			mutate: func(sc *Scenario) { sc.MAC.Geometry.MinislotSymbols = -1 },
			field:  "MAC",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := base()
			tc.mutate(&sc)
			err := sc.Validate()
			if err == nil {
				t.Fatal("Validate accepted the malformed scenario")
			}
			var verr *ValidationError
			if !errors.As(err, &verr) {
				t.Fatalf("error %T is not a *ValidationError: %v", err, err)
			}
			if verr.Field != tc.field {
				t.Fatalf("Field = %q, want %q (err: %v)", verr.Field, tc.field, err)
			}
			if tc.reason != "" && !strings.Contains(verr.Reason, tc.reason) {
				t.Fatalf("Reason %q does not mention %q", verr.Reason, tc.reason)
			}
			if !strings.Contains(err.Error(), verr.Field) {
				t.Fatalf("Error() %q does not name the field", err)
			}
		})
	}
}

// TestValidateAcceptsDefaults: the calibrated defaults and the
// zero-knob-defaulted scenario both validate for every protocol.
func TestValidateAcceptsDefaults(t *testing.T) {
	for _, p := range Protocols() {
		if err := DefaultScenario(p).Validate(); err != nil {
			t.Errorf("DefaultScenario(%s): %v", p, err)
		}
		sparse := Scenario{Protocol: p, NumVoice: 10}
		if err := sparse.WithDefaults().Validate(); err != nil {
			t.Errorf("sparse %s scenario after WithDefaults: %v", p, err)
		}
	}
}

// TestPartialBlocksRejected: WithDefaults fills a substrate block only
// when the block is entirely zero. A block that sets some of its knobs is
// kept as given and rejected by name, through Validate and through Run,
// so no run silently swaps it for the defaults.
func TestPartialBlocksRejected(t *testing.T) {
	for name, c := range map[string]struct {
		set   func(*Scenario)
		field string
	}{
		"PHY mean SNR only":      {func(sc *Scenario) { sc.PHY.MeanSNRdB = -20 }, "PHY"},
		"MAC voice permission":   {func(sc *Scenario) { sc.MAC.PermVoice = 0.9 }, "MAC"},
		"MAC one geometry field": {func(sc *Scenario) { sc.MAC.Geometry.CharismaPilotSlots = 3 }, "MAC"},
	} {
		sc := Scenario{Protocol: ProtoCharisma, NumVoice: 5, DurationSec: 0.1}
		c.set(&sc)
		_, runErr := sc.Run(context.Background())
		for _, err := range []error{sc.WithDefaults().Validate(), runErr} {
			var ve *ValidationError
			if !errors.As(err, &ve) || ve.Field != c.field || !strings.Contains(ve.Reason, "partly set") {
				t.Errorf("%s: err %v, want a *ValidationError naming %s as partly set", name, err, c.field)
			}
		}
	}
}

// floatPaths calls fn with the path and value of every float64 reachable
// from v: struct fields, recursively, and slice elements.
func floatPaths(v reflect.Value, path string, fn func(path string, f reflect.Value)) {
	switch v.Kind() {
	case reflect.Float64:
		fn(path, v)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			floatPaths(v.Field(i), path+"."+v.Type().Field(i).Name, fn)
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			floatPaths(v.Index(i), fmt.Sprintf("%s[%d]", path, i), fn)
		}
	}
}

// TestValidateRejectsNonFinite sets every float field of a valid scenario
// — the channel, PHY and MAC blocks (CHARISMA weights included), the
// windows and the per-station speeds, found by reflection so a new field
// is covered too — to NaN, +Inf and -Inf in turn, and expects a typed
// rejection each time. Every `< 0` check passes NaN, so without the
// finiteness checks NaN ran and +Inf could hang a run.
func TestValidateRejectsNonFinite(t *testing.T) {
	base := func() Scenario {
		sc := DefaultScenario(ProtoCharisma).WithDefaults()
		sc.NumVoice, sc.NumData = 2, 1
		sc.SpeedsKmh = []float64{10, 50, 90}
		return sc
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("base scenario rejected: %v", err)
	}
	var paths []string
	floatPaths(reflect.ValueOf(base()), "Scenario", func(path string, _ reflect.Value) { paths = append(paths, path) })
	if len(paths) < 25 {
		t.Fatalf("found only %d float fields: %v", len(paths), paths)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, want := range paths {
			sc := base()
			floatPaths(reflect.ValueOf(&sc).Elem(), "Scenario", func(path string, f reflect.Value) {
				if path == want {
					f.SetFloat(bad)
				}
			})
			err := sc.Validate()
			var verr *ValidationError
			if !errors.As(err, &verr) {
				t.Errorf("%s = %v: err %v, want a *ValidationError", want, bad, err)
			}
		}
	}
}

// TestValidateRejectsClockOverflow: a run ends at tick
// sim.FromSeconds(WarmupSec) + sim.FromSeconds(DurationSec), so a finite
// warm-up or duration whose tick count the int64 clock cannot hold is
// rejected by name, by Validate and by Run, instead of wrapping into a
// run of no length; the longest window the clock holds is accepted.
func TestValidateRejectsClockOverflow(t *testing.T) {
	clockSec := float64(math.MaxInt64) / float64(sim.Second) // ≈ 2.88e13 s
	for _, c := range []struct {
		warmup, duration float64
		field            string // empty: accepted
	}{
		{2, 30, ""},
		{1e13, 1.8e13, ""},
		{-5, 2.8e13, ""}, // a non-positive warm-up selects the default
		{2, 1e308, "DurationSec"},
		{1e308, 30, "WarmupSec"},
		{clockSec, 1, "WarmupSec"},
		{2, clockSec, "DurationSec"},
		{1.5e13, 1.5e13, "DurationSec"},
		{-1e308, 1e308, "DurationSec"},
	} {
		sc := DefaultScenario(ProtoRAMA)
		sc.NumVoice, sc.NumData = 2, 0
		sc.WarmupSec, sc.DurationSec = c.warmup, c.duration
		err := sc.Validate()
		if c.field == "" {
			if err != nil {
				t.Errorf("warm-up %v, duration %v: %v", c.warmup, c.duration, err)
			}
			continue
		}
		_, runErr := sc.Run(context.Background())
		for _, err := range []error{err, runErr} {
			var ve *ValidationError
			if !errors.As(err, &ve) || ve.Field != c.field {
				t.Errorf("warm-up %v, duration %v: err %v, want a *ValidationError for %s", c.warmup, c.duration, err, c.field)
			}
		}
	}
}
