package main

// The profile fold: a CPU profile of the traced passes, read back through
// `go tool pprof -traces` and folded stack by stack onto layer groups, so
// each group's share of the samples is a measured number.

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"slices"
	"strings"
	"time"
)

type cpuProfile struct {
	path string
	f    *os.File
}

func startProfile(dir, workload string) (*cpuProfile, error) {
	path := filepath.Join(mkdir(dir), workload+".cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return &cpuProfile{path: path, f: f}, nil
}

func (p *cpuProfile) stop() error {
	pprof.StopCPUProfile()
	return p.f.Close()
}

// foldProfile returns each group's share of the profile's samples (all
// zero, with a warning, when the profile holds none).
func foldProfile(path string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces: %w", err)
	}
	totals, err := foldTraces(out)
	if err != nil {
		return nil, err
	}
	all := 0.0
	for _, v := range totals {
		all += v
	}
	shares := map[string]float64{}
	if all == 0 {
		fmt.Fprintln(os.Stderr, "bench: warning: the CPU profile holds no samples")
		return shares, nil
	}
	for g, v := range totals {
		shares["prof.share."+g] = v / all
	}
	return shares, nil
}

// foldTraces parses pprof's -traces text — blocks separated by dashed
// lines, each a sample value followed by its stack, innermost frame first —
// and sums each block's value onto its group.
func foldTraces(text []byte) (map[string]float64, error) {
	totals := map[string]float64{}
	var value float64
	var stack []string
	flush := func() {
		if len(stack) > 0 {
			totals[group(stack)] += value
		}
		stack = stack[:0]
	}
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	inBlocks := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inBlocks = true
			continue
		}
		fields := strings.Fields(line)
		if !inBlocks || len(fields) == 0 {
			continue
		}
		if len(stack) == 0 {
			d, err := time.ParseDuration(fields[0])
			if err != nil {
				return nil, fmt.Errorf("pprof -traces: sample value %q: %w", fields[0], err)
			}
			value = d.Seconds()
			fields = fields[1:]
			if len(fields) == 0 {
				continue
			}
		}
		stack = append(stack, fields[0])
	}
	flush()
	return totals, sc.Err()
}

// group folds one stack, innermost frame first, onto the innermost frame
// that belongs to a repository package or to a listed standard-library
// group. Stacks with neither are the runtime's: garbage collection when the
// background mark worker roots them, anything else otherwise.
func group(stack []string) string {
	for _, fn := range stack {
		if g := pkgGroup(funcPackage(fn)); g != "" {
			return g
		}
	}
	if slices.ContainsFunc(stack, func(fn string) bool { return strings.HasPrefix(fn, "runtime.gcBgMarkWorker") }) {
		return "runtime-gc"
	}
	return "runtime-other"
}

// funcPackage extracts the import path from a symbol such as
// "charisma/internal/mac.(*System).BeginFrame". The type arguments of a
// generic instantiation, which may name other packages, are cut first.
func funcPackage(fn string) string {
	fn, _, _ = strings.Cut(fn, "[")
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

func pkgGroup(pkg string) string {
	if rest, ok := strings.CutPrefix(pkg, "charisma/internal/"); ok {
		if g := strings.ReplaceAll(rest, "/", "-"); slices.Contains(profGroups, g) {
			return g
		}
		return "charisma-other"
	}
	switch {
	case pkg == "charisma":
		return "charisma-other"
	case pkg == "main":
		return "bench"
	case pkg == "encoding/json":
		return "encoding-json"
	case pkg == "crypto/sha256", strings.HasPrefix(pkg, "crypto/internal/fips140/sha256"):
		return "crypto-sha256"
	case pkg == "net", strings.HasPrefix(pkg, "net/"):
		return "net-http"
	case pkg == "syscall", pkg == "os", pkg == "internal/poll", strings.HasPrefix(pkg, "internal/syscall/"):
		return "syscall"
	}
	return ""
}
