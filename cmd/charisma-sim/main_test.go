package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain runs the command itself when the test binary is re-executed
// with CHARISMA_SIM_MAIN=1, so a test can drive the real flag handling
// and exit status.
func TestMain(m *testing.M) {
	if os.Getenv("CHARISMA_SIM_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestCheckScenarioFlags: the -scenario path rejects each negative (or
// NaN) numeric flag before any work, with exit status 1 and the
// *core.ValidationError the cell path returns, naming the flag; a
// negative -flight-recorder is rejected so in every mode.
func TestCheckScenarioFlags(t *testing.T) {
	scen := filepath.Join(t.TempDir(), "one.jsonl")
	line := `{"scenario": {"protocol": "charisma", "numVoice": 10, "numData": 0, "seed": 3, "warmupSec": 0.1, "durationSec": 0.2}, "replications": 1}` + "\n"
	if err := os.WriteFile(scen, []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-scenario", scen, "-reps", "-1"},
		{"-scenario", scen, "-workers", "-2"},
		{"-scenario", scen, "-precision", "-0.5"},
		{"-scenario", scen, "-precision", "NaN"},
		{"-scenario", scen, "-max-reps", "-3"},
		{"-scenario", scen, "-flight-recorder", "-3"},
		{"-voice", "5", "-warmup", "0.1", "-duration", "0.2", "-flight-recorder", "-3"},
		{"-cells", "2", "-voice", "5", "-warmup", "0.1", "-duration", "0.2", "-flight-recorder", "-3"},
	} {
		name := args[len(args)-2]
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), "CHARISMA_SIM_MAIN=1")
		out, err := cmd.CombinedOutput()
		var ee *exec.ExitError
		want := "core: invalid " + name + ":"
		if !errors.As(err, &ee) || ee.ExitCode() != 1 || !strings.Contains(string(out), want) || strings.Contains(string(out), "sweep points") || strings.Contains(string(out), "protocol") {
			t.Errorf("%q: exit %v, output %q; want exit status 1 before any work, naming %q", args, err, out, want)
		}
	}
}
