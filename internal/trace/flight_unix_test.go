//go:build unix

package trace_test

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"syscall"
	"testing"
	"time"

	"charisma/internal/core"
	"charisma/internal/multicell"
	"charisma/internal/trace"
)

// TestSIGQUITDumpsFlightJSONL re-executes the test binary, lets the
// helper arm the recorder and raise SIGQUIT against itself, and checks
// the process exits with the dump-handler status and leaves a parseable
// JSONL dump behind — the full operator post-mortem path. The helper
// runs a hand-driven cell, then a 2-cell deployment through
// multicell.Run, whose dump must hold one ring per cell.
func TestSIGQUITDumpsFlightJSONL(t *testing.T) {
	if mode := os.Getenv("CHARISMA_FLIGHT_SIGQUIT_HELPER"); mode != "" {
		sigquitHelper(mode)
		return
	}
	for _, tc := range []struct {
		mode   string
		labels []string
	}{
		{"cell", []string{"sigquit-helper"}},
		{"deployment", []string{"charisma seed=1 cell=0", "charisma seed=1 cell=1"}},
	} {
		path := filepath.Join(t.TempDir(), "flight.jsonl")
		cmd := exec.Command(os.Args[0], "-test.run=TestSIGQUITDumpsFlightJSONL")
		cmd.Env = append(os.Environ(),
			"CHARISMA_FLIGHT_SIGQUIT_HELPER="+tc.mode,
			"CHARISMA_FLIGHT_PATH="+path)
		out, err := cmd.CombinedOutput()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Fatalf("%s: helper exited %v (want exit status 2)\n%s", tc.mode, err, out)
		}
		rings := parseRings(t, path)
		if len(rings) != len(tc.labels) {
			t.Fatalf("%s: %d rings in the SIGQUIT dump, want %d\n%s", tc.mode, len(rings), len(tc.labels), out)
		}
		var labels []string
		for _, r := range rings {
			if r.meta["reason"] != "sigquit" {
				t.Fatalf("%s: reason = %q, want sigquit", tc.mode, r.meta["reason"])
			}
			if len(r.frames) == 0 {
				t.Fatalf("%s: ring %q retained no frames", tc.mode, r.meta["label"])
			}
			labels = append(labels, r.meta["label"].(string))
		}
		slices.Sort(labels)
		if !slices.Equal(labels, tc.labels) {
			t.Fatalf("%s: ring labels %q, want %q", tc.mode, labels, tc.labels)
		}
	}
}

// sigquitHelper runs in the re-executed child: arm, simulate, raise
// SIGQUIT, and wait to be terminated by the dump handler.
func sigquitHelper(mode string) {
	trace.ArmFlight(32, os.Getenv("CHARISMA_FLIGHT_PATH"))
	if mode == "deployment" {
		p := multicell.DefaultParams()
		p.NumVoice = 20
		p.DurationSec = 600 // still running when the signal lands
		go multicell.Run(context.Background(), p)
		time.Sleep(300 * time.Millisecond)
	} else {
		sc := core.DefaultScenario(core.ProtoCharisma)
		sc.NumVoice = 10
		sys, proto, err := sc.Build()
		if err != nil {
			os.Exit(3)
		}
		proto.Init(sys)
		fl := trace.AttachFlight(sys, 32, "sigquit-helper")
		defer fl.Close()
		for i := 0; i < 100; i++ {
			sys.BeginFrame()
			sys.EndFrame(proto.RunFrame(sys))
		}
	}
	_ = syscall.Kill(os.Getpid(), syscall.SIGQUIT)
	time.Sleep(30 * time.Second) // the handler exits the process first
	os.Exit(3)
}
