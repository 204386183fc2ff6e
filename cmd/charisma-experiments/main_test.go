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
// with CHARISMA_EXPERIMENTS_MAIN=1, so a test can drive the real flag
// handling and exit status.
func TestMain(m *testing.M) {
	if os.Getenv("CHARISMA_EXPERIMENTS_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRejectsBadNumericFlags: each negative or NaN numeric flag, and an
// audit fraction above 1, stops the command before any work with exit
// status 1 and a *core.ValidationError naming the flag.
func TestRejectsBadNumericFlags(t *testing.T) {
	scen := filepath.Join(t.TempDir(), "one.jsonl")
	line := `{"scenario": {"protocol": "charisma", "numVoice": 10, "numData": 0, "seed": 3, "warmupSec": 0.1, "durationSec": 0.2}, "replications": 1}` + "\n"
	if err := os.WriteFile(scen, []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range [][2]string{
		{"-reps", "-1"},
		{"-workers", "-2"},
		{"-precision", "-0.5"},
		{"-precision", "NaN"},
		{"-max-reps", "-3"},
		{"-duration", "-5"},
		{"-duration", "NaN"},
		{"-lease-ttl", "-1s"},
		{"-audit-frac", "-1"},
		{"-audit-frac", "NaN"},
		{"-audit-frac", "2"},
		{"-flight-recorder", "-3"},
	} {
		cmd := exec.Command(os.Args[0], "-scenario", scen, "-progress=false", tc[0], tc[1])
		cmd.Env = append(os.Environ(), "CHARISMA_EXPERIMENTS_MAIN=1")
		out, err := cmd.CombinedOutput()
		var ee *exec.ExitError
		want := "core: invalid " + tc[0] + ":"
		if !errors.As(err, &ee) || ee.ExitCode() != 1 || !strings.Contains(string(out), want) || strings.Contains(string(out), "simulated") {
			t.Errorf("%s %s: exit %v, output %q; want exit status 1 before any work, naming %q", tc[0], tc[1], err, out, want)
		}
	}
}
