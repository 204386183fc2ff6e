package prof

import (
	"fmt"
	"os"
	"os/signal"
	"sort"
	"sync"
)

// This file is the single dump-on-exit path shared by the profiler and
// the flight recorder (internal/trace). Components that hold post-mortem
// state register a dump function with OnDump; DumpAll runs every
// registered function, and one process-wide SIGQUIT handler (installed by
// InstallDumpHandler, at most once) runs DumpAll plus the registered exit
// flushes before terminating. Centralizing the handler means profiles and
// recorder dumps compose instead of racing over signal.Notify: whichever
// subsystem initializes first, a single SIGQUIT produces every artifact.

var (
	dumpMu   sync.Mutex
	dumpSeq  int
	dumpFns  = map[int]namedDump{}
	exitFns  []func()
	sigOnce  sync.Once
	testHook func() // replaces os.Exit in tests; nil in production
)

type namedDump struct {
	name string
	fn   func(reason string)
}

// OnDump registers fn to run whenever DumpAll fires (SIGQUIT or an
// explicit call). name labels the artifact in the error path. The
// returned cancel function unregisters; it is safe to call more than
// once.
func OnDump(name string, fn func(reason string)) (cancel func()) {
	dumpMu.Lock()
	id := dumpSeq
	dumpSeq++
	dumpFns[id] = namedDump{name: name, fn: fn}
	dumpMu.Unlock()
	return func() {
		dumpMu.Lock()
		delete(dumpFns, id)
		dumpMu.Unlock()
	}
}

// onExit registers a flush to run only on the SIGQUIT exit path (after
// the dumps), e.g. ending an in-flight CPU profile. Unlike OnDump
// functions these are not safe to run mid-flight, so DumpAll never calls
// them.
func onExit(fn func()) {
	dumpMu.Lock()
	exitFns = append(exitFns, fn)
	dumpMu.Unlock()
}

// DumpAll runs every registered dump function with the given reason, in
// registration order. Safe to call from any goroutine at any time: dump
// functions are responsible for their own synchronization against the
// state they snapshot. A panicking dump function is contained so the
// remaining artifacts still get written.
func DumpAll(reason string) {
	dumpMu.Lock()
	ids := make([]int, 0, len(dumpFns))
	for id := range dumpFns {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	fns := make([]namedDump, 0, len(ids))
	for _, id := range ids {
		fns = append(fns, dumpFns[id])
	}
	dumpMu.Unlock()
	for _, d := range fns {
		func() {
			defer func() {
				if r := recover(); r != nil {
					fmt.Fprintf(os.Stderr, "prof: dump %q panicked: %v\n", d.name, r)
				}
			}()
			d.fn(reason)
		}()
	}
}

// InstallDumpHandler installs the process-wide SIGQUIT handler (once; later
// calls are no-ops). On SIGQUIT it runs DumpAll("sigquit"), flushes the
// exit-path registrations (profile stops), and exits with status 2.
// Catching the signal forfeits the Go runtime's default goroutine dump —
// the traded-for artifacts are the flight-recorder JSONL and completed
// profiles. On a platform without SIGQUIT (Plan 9) it installs nothing;
// DumpAll still runs every registered dump when called.
func InstallDumpHandler() {
	if quitSignal == nil {
		return
	}
	sigOnce.Do(func() {
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, quitSignal)
		go func() {
			for range ch {
				DumpAll("sigquit")
				dumpMu.Lock()
				flushes := append([]func(){}, exitFns...)
				hook := testHook
				dumpMu.Unlock()
				for _, fn := range flushes {
					fn()
				}
				if hook != nil {
					hook()
					continue
				}
				os.Exit(2)
			}
		}()
	})
}
