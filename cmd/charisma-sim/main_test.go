package main

import (
	"errors"
	"math"
	"testing"

	"charisma/internal/core"
)

// TestCheckScenarioFlags: the -scenario path rejects each negative (or
// NaN) numeric flag with a *core.ValidationError naming it, as the cell
// path does; 0 and positive values pass.
func TestCheckScenarioFlags(t *testing.T) {
	for _, tc := range []struct {
		flag                  string
		reps, workers, maxRep int
		prec                  float64
	}{
		{flag: "-reps", reps: -1},
		{flag: "-workers", workers: -2},
		{flag: "-precision", prec: -0.5},
		{flag: "-precision", prec: math.NaN()},
		{flag: "-max-reps", maxRep: -3},
	} {
		err := checkScenarioFlags(tc.reps, tc.workers, tc.prec, tc.maxRep)
		var ve *core.ValidationError
		if !errors.As(err, &ve) || ve.Field != tc.flag {
			t.Errorf("%+v: err %v, want a *core.ValidationError for %s", tc, err, tc.flag)
		}
	}
	if err := checkScenarioFlags(0, 0, 0, 0); err != nil {
		t.Errorf("all-default flags rejected: %v", err)
	}
	if err := checkScenarioFlags(4, 2, 0.05, 64); err != nil {
		t.Errorf("positive flags rejected: %v", err)
	}
}
