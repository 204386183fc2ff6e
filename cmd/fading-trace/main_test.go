package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs the command itself when the test binary is re-executed
// with FADING_TRACE_MAIN=1, so a test can drive the real flag handling
// and exit status.
func TestMain(m *testing.M) {
	if os.Getenv("FADING_TRACE_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func runMain(args ...string) (string, error) {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "FADING_TRACE_MAIN=1")
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// TestRejectsBadFlags: a negative, NaN, zero-period or clock-overflowing
// -seconds, -speed or -step stops the command before the CSV header with
// exit status 1 and a *core.ValidationError naming the flag; a zero
// -seconds prints the header alone.
func TestRejectsBadFlags(t *testing.T) {
	for _, tc := range [][2]string{
		{"-seconds", "-1"},
		{"-seconds", "NaN"},
		{"-seconds", "1e300"},
		{"-step", "-2.5"},
		{"-step", "0"},
		{"-speed", "NaN"},
		{"-speed", "-50"},
	} {
		out, err := runMain(tc[0], tc[1])
		var ee *exec.ExitError
		want := "core: invalid " + tc[0] + ":"
		if !errors.As(err, &ee) || ee.ExitCode() != 1 || !strings.Contains(out, want) || strings.Contains(out, "t_ms") {
			t.Errorf("%s %s: exit %v, output %q; want exit status 1 before the header, naming %q", tc[0], tc[1], err, out, want)
		}
	}
	if out, err := runMain("-seconds", "0"); err != nil || out != "t_ms,amp_db,shadow_db\n" {
		t.Errorf("-seconds 0: exit %v, output %q; want the header alone", err, out)
	}
}
