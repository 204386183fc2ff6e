package trace

import (
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"slices"
	"sync"
)

// post is everything a post-mortem writes, under one mutex: the armed
// ring size and dump path, the attached rings in attach order, and the
// running profile's stop. exit is os.Exit outside tests.
var post = struct {
	mu       sync.Mutex
	frames   int
	path     string
	rings    []*Flight
	stopProf func()
	exit     func(code int)
}{exit: os.Exit}

var handlerOnce sync.Once

// ArmFlight arms the process-wide flight recorder: subsequent runs attach
// a recorder of the given ring size (Attach), and dumps append to path.
// frames <= 0 disarms. Arming installs the SIGQUIT handler, so the dump
// path exists before anything runs.
func ArmFlight(frames int, path string) {
	post.mu.Lock()
	post.frames, post.path = frames, path
	post.mu.Unlock()
	if frames > 0 {
		installHandler()
	}
}

// StartProfile begins CPU profiling into cpuPath (when non-empty) and
// arms a heap snapshot into memPath (when non-empty). The returned stop
// function is idempotent: it ends the CPU profile and writes the heap
// profile after a final GC, reporting any write error to stderr
// (profiles are diagnostics; they must never change the exit status of a
// successful run). It also installs the SIGQUIT handler, which calls
// stop after dumping the rings, so an interrupted run still leaves
// complete profiles. Mains that exit through os.Exit must call stop on
// that path, since deferred calls do not run.
func StartProfile(cpuPath, memPath string) (stop func(), err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("trace: create cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("trace: start cpu profile: %w", err)
		}
	}
	var once sync.Once
	stop = func() {
		once.Do(func() { flush(cpuFile, memPath) })
	}
	post.mu.Lock()
	post.stopProf = stop
	post.mu.Unlock()
	installHandler()
	return stop, nil
}

// flush ends the CPU profile and writes the heap snapshot; called exactly
// once per StartProfile (via the stop closure's sync.Once).
func flush(cpuFile *os.File, memPath string) {
	if cpuFile != nil {
		pprof.StopCPUProfile()
		if err := cpuFile.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "trace: close cpu profile:", err)
		}
	}
	if memPath == "" {
		return
	}
	f, err := os.Create(memPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "trace:", err)
		return
	}
	defer f.Close()
	runtime.GC() // materialize the final live set
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintln(os.Stderr, "trace: write heap profile:", err)
	}
}

// installHandler installs the process-wide SIGQUIT handler, once.
// Catching the signal forfeits the Go runtime's goroutine dump; the
// traded-for artifacts are the rings' JSONL and completed profiles. On a
// platform without SIGQUIT (Plan 9) it installs nothing.
func installHandler() {
	if quitSignal == nil {
		return
	}
	handlerOnce.Do(func() {
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, quitSignal)
		go func() {
			for range ch {
				postMortem()
			}
		}()
	})
}

// postMortem dumps every attached ring with reason "sigquit", in attach
// order, then stops the running profile, then exits with status 2.
func postMortem() {
	post.mu.Lock()
	rings, stop, exit := slices.Clone(post.rings), post.stopProf, post.exit
	post.mu.Unlock()
	for _, f := range rings {
		f.Dump("sigquit")
	}
	if stop != nil {
		stop()
	}
	exit(2)
}
