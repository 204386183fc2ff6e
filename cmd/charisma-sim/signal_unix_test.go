//go:build unix

package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestSIGTERMStopsRunningReplication: a SIGTERM half a second into a run
// that would simulate 60,000 s stops the replication itself, one cell or
// a 2-cell deployment: the command exits with status 1 within 2 s and
// prints "context canceled" once.
func TestSIGTERMStopsRunningReplication(t *testing.T) {
	for _, extra := range [][]string{nil, {"-cells", "2"}} {
		args := append([]string{"-voice", "60", "-duration", "60000"}, extra...)
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), "CHARISMA_SIM_MAIN=1")
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, &out
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		time.Sleep(500 * time.Millisecond)
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		sent := time.Now()
		var err error
		select {
		case err = <-done:
		case <-time.After(2 * time.Second):
			_ = cmd.Process.Kill()
			<-done
			t.Fatalf("%v: still running 2 s after SIGTERM\n%s", args, out.String())
		}
		t.Logf("%v: exited %v after SIGTERM", args, time.Since(sent).Round(time.Millisecond))
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 1 {
			t.Fatalf("%v: exit %v, want exit status 1\n%s", args, err, out.String())
		}
		if n := strings.Count(out.String(), "context canceled"); n != 1 {
			t.Fatalf("%v: printed \"context canceled\" %d times, want once\n%s", args, n, out.String())
		}
	}
}
