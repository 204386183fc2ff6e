//go:build unix

package prof

import (
	"os"
	"syscall"
	"testing"
	"time"
)

// TestSIGQUITHandlerDumpsAndFlushes raises SIGQUIT against the test
// process with the exit replaced by a test hook: the handler must run
// the registered dumps with reason "sigquit", then the exit-path
// flushes, then the hook (instead of os.Exit).
func TestSIGQUITHandlerDumpsAndFlushes(t *testing.T) {
	dumped := make(chan string, 1)
	flushed := make(chan struct{}, 1)
	exited := make(chan struct{}, 1)

	cancel := OnDump("test", func(reason string) { dumped <- reason })
	defer cancel()
	dumpMu.Lock()
	exitFns = append(exitFns, func() {
		select {
		case flushed <- struct{}{}:
		default:
		}
	})
	testHook = func() {
		select {
		case exited <- struct{}{}:
		default:
		}
	}
	dumpMu.Unlock()
	defer func() {
		dumpMu.Lock()
		testHook = nil
		dumpMu.Unlock()
	}()

	InstallDumpHandler()
	if err := syscall.Kill(os.Getpid(), syscall.SIGQUIT); err != nil {
		t.Fatal(err)
	}

	wait := func(name string, ok func() bool) {
		deadline := time.After(5 * time.Second)
		for !ok() {
			select {
			case <-deadline:
				t.Fatalf("SIGQUIT handler never reached %s", name)
			case <-time.After(time.Millisecond):
			}
		}
	}
	var reason string
	wait("dump", func() bool {
		select {
		case reason = <-dumped:
			return true
		default:
			return false
		}
	})
	if reason != "sigquit" {
		t.Fatalf("dump reason %q, want sigquit", reason)
	}
	wait("flush", func() bool {
		select {
		case <-flushed:
			return true
		default:
			return false
		}
	})
	wait("exit hook", func() bool {
		select {
		case <-exited:
			return true
		default:
			return false
		}
	})
}
