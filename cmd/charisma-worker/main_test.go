package main

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strings"
	"sync/atomic"
	"testing"
)

// TestMain runs the command itself when the test binary is re-executed
// with CHARISMA_WORKER_MAIN=1, so a test can drive the real flag handling
// and exit status.
func TestMain(m *testing.M) {
	if os.Getenv("CHARISMA_WORKER_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRejectsBadFlags: a negative -parallel, -poll, -max-idle or
// -flight-recorder, or an unknown -log-level, stops the worker with its
// usage status 2, naming the flag, before it polls the coordinator; zero
// keeps its meaning, so -parallel 0 -poll 0 -max-idle 0 polls, sees the
// coordinator closed (410) and exits 0.
func TestRejectsBadFlags(t *testing.T) {
	var polls atomic.Int64
	coord := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		polls.Add(1)
		w.WriteHeader(http.StatusGone)
	}))
	defer coord.Close()
	run := func(args ...string) (string, error) {
		cmd := exec.Command(os.Args[0], append([]string{"-coordinator", coord.URL}, args...)...)
		cmd.Env = append(os.Environ(), "CHARISMA_WORKER_MAIN=1")
		out, err := cmd.CombinedOutput()
		return string(out), err
	}
	for _, tc := range [][2]string{
		{"-parallel", "-2"},
		{"-poll", "-1s"},
		{"-max-idle", "-1s"},
		{"-flight-recorder", "-3"},
		{"-log-level", "bogus"},
	} {
		out, err := run(tc[0], tc[1])
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 || !strings.Contains(out, tc[0]) || polls.Load() != 0 {
			t.Errorf("%s %s: exit %v after %d polls, output %q; want exit status 2 before any poll, naming %s", tc[0], tc[1], err, polls.Load(), out, tc[0])
		}
	}
	out, err := run("-parallel", "0", "-poll", "0", "-max-idle", "0")
	if err != nil || polls.Load() == 0 {
		t.Errorf("zero -parallel, -poll and -max-idle: exit %v after %d polls, output %q; want a poll and exit status 0", err, polls.Load(), out)
	}
}
