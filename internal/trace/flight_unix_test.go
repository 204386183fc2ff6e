//go:build unix

package trace_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
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
		{"cell", []string{"charisma seed=1"}},
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
		fl := trace.Attach(sys, sc.Protocol, sc.Seed, -1)
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

// TestSIGQUITHandlerDumpsAndFlushes raises SIGQUIT against the test
// process with the exit replaced: the handler must dump the ring attached
// while armed with reason "sigquit", then run StartProfile's stop, which
// writes the heap profile, then exit with status 2, in that order.
func TestSIGQUITHandlerDumpsAndFlushes(t *testing.T) {
	dir := t.TempDir()
	path, mem := filepath.Join(dir, "flight.jsonl"), filepath.Join(dir, "mem.pprof")
	trace.ArmFlight(8, path)
	defer trace.ArmFlight(0, "")
	sys, proto := buildCell(t, 10)
	fl := trace.Attach(sys, core.ProtoCharisma, 1, -1)
	defer fl.Close()
	runFrames(sys, proto, 20)
	stop, err := trace.StartProfile("", mem)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	// Each step reports what the earlier ones left on disk. The buffer
	// holds both reports, so the handler never blocks on this test.
	steps := make(chan string, 2)
	defer trace.HookPostMortem(
		func(stop func()) func() {
			return func() {
				steps <- "profile after " + artifacts(path, mem)
				stop()
			}
		},
		func(code int) { steps <- fmt.Sprintf("exit %d after %s", code, artifacts(path, mem)) },
	)()

	if err := syscall.Kill(os.Getpid(), syscall.SIGQUIT); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"profile after 1 sigquit ring, no heap profile",
		"exit 2 after 1 sigquit ring, a heap profile",
	} {
		select {
		case got := <-steps:
			if got != want {
				t.Fatalf("handler step %q, want %q", got, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("SIGQUIT handler never reached %q", want)
		}
	}
}

// artifacts describes the post-mortem files: the "sigquit" rings in the
// dump at path, and whether a heap profile is at mem.
func artifacts(path, mem string) string {
	dump, _ := os.ReadFile(path)
	rings := bytes.Count(dump, []byte(`"reason":"sigquit"`))
	heap := "no heap profile"
	if fi, err := os.Stat(mem); err == nil && fi.Size() > 0 {
		heap = "a heap profile"
	}
	return fmt.Sprintf("%d sigquit ring, %s", rings, heap)
}
