// Command benchsnap converts `go test -bench` output into a committed
// perf-trajectory snapshot (BENCH_<pr>.json) and compares two snapshots.
// It gates no allocation budget; the Go allocation guards do that.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem | benchsnap -pr 4 -out BENCH_4.json
//
// Multiple -count samples of one benchmark are pooled: the snapshot keeps
// the minimum and median ns/op (minimum approximates the noise floor,
// median the typical run), the maximum allocs/op (the conservative
// value), and the last value of every custom b.ReportMetric column.
//
// Snapshot comparison (the CI perf-regression gate):
//
//	benchsnap -snap BENCH_7.json -compare BENCH_6.json
//	go test -bench . -benchmem | benchsnap -compare BENCH_6.json
//
// compares the new snapshot (from -snap or raw input) against the old
// one, printing a per-benchmark delta table, and exits non-zero when any
// common benchmark's min ns/op regresses by more than -compare-tolerance
// (default 0.15 = 15%) or its allocs/op ceiling grows by more than the
// same factor (any growth from zero fails).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

type sample struct {
	nsPerOp     float64
	bytesPerOp  int64
	allocsPerOp int64
	metrics     map[string]float64
}

// Snapshot is the schema of a BENCH_<pr>.json trajectory point.
type Snapshot struct {
	PR         int                  `json:"pr"`
	Go         string               `json:"go"`
	GOOS       string               `json:"goos,omitempty"`
	GOARCH     string               `json:"goarch,omitempty"`
	CPU        string               `json:"cpu,omitempty"`
	Benchmarks map[string]BenchStat `json:"benchmarks"`
}

// BenchStat pools the samples of one benchmark.
type BenchStat struct {
	Samples     int                `json:"samples"`
	NsPerOpMin  float64            `json:"ns_per_op_min"`
	NsPerOpMed  float64            `json:"ns_per_op_median"`
	BytesPerOp  int64              `json:"b_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+(.*)$`)

func parseLine(line string) (name string, s sample, ok bool) {
	m := benchLine.FindStringSubmatch(line)
	if m == nil {
		return "", sample{}, false
	}
	name = strings.TrimPrefix(m[1], "Benchmark")
	fields := strings.Fields(m[3])
	if len(fields)%2 != 0 {
		return "", sample{}, false
	}
	s.metrics = map[string]float64{}
	for i := 0; i < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return "", sample{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			s.nsPerOp = v
		case "B/op":
			s.bytesPerOp = int64(v)
		case "allocs/op":
			s.allocsPerOp = int64(v)
		default:
			s.metrics[unit] = v
		}
	}
	return name, s, true
}

func main() {
	var (
		in      = flag.String("in", "", "raw `go test -bench` output (default stdin)")
		out     = flag.String("out", "", "snapshot JSON path (empty or /dev/null = don't write)")
		pr      = flag.Int("pr", 0, "PR number stamped into the snapshot")
		snapIn  = flag.String("snap", "", "load an existing snapshot JSON as the new side instead of parsing raw bench output")
		compare = flag.String("compare", "", "old snapshot JSON to diff the new snapshot against; regressions exit 1")
		cmpRe   = flag.String("compare-names", "",
			"regex restricting which benchmarks -compare checks (default: every benchmark present in both snapshots)")
		cmpTol = flag.Float64("compare-tolerance", 0.15,
			"fractional regression allowed by -compare on min ns/op and allocs/op")
	)
	flag.Parse()

	if *snapIn != "" {
		snap, err := readSnapshot(*snapIn)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchsnap:", err)
			os.Exit(1)
		}
		if *compare == "" {
			fmt.Fprintln(os.Stderr, "benchsnap: -snap without -compare has nothing to do")
			os.Exit(1)
		}
		if err := compareSnapshots(snap, *compare, *cmpRe, *cmpTol); err != nil {
			fmt.Fprintln(os.Stderr, "benchsnap:", err)
			os.Exit(1)
		}
		return
	}

	r := os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchsnap:", err)
			os.Exit(1)
		}
		defer f.Close()
		r = f
	}

	snap := Snapshot{PR: *pr, Go: runtime.Version(), Benchmarks: map[string]BenchStat{}}
	samples := map[string][]sample{}
	var order []string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			snap.GOOS = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			snap.GOARCH = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			snap.CPU = strings.TrimPrefix(line, "cpu: ")
		default:
			if name, s, ok := parseLine(line); ok {
				if _, seen := samples[name]; !seen {
					order = append(order, name)
				}
				samples[name] = append(samples[name], s)
			}
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchsnap:", err)
		os.Exit(1)
	}
	if len(samples) == 0 {
		fmt.Fprintln(os.Stderr, "benchsnap: no benchmark lines found in input")
		os.Exit(1)
	}

	for _, name := range order {
		ss := samples[name]
		ns := make([]float64, len(ss))
		st := BenchStat{Samples: len(ss), Metrics: map[string]float64{}}
		for i, s := range ss {
			ns[i] = s.nsPerOp
			if s.bytesPerOp > st.BytesPerOp {
				st.BytesPerOp = s.bytesPerOp
			}
			if s.allocsPerOp > st.AllocsPerOp {
				st.AllocsPerOp = s.allocsPerOp
			}
			for k, v := range s.metrics {
				st.Metrics[k] = v
			}
		}
		sort.Float64s(ns)
		st.NsPerOpMin = ns[0]
		st.NsPerOpMed = ns[len(ns)/2]
		if len(st.Metrics) == 0 {
			st.Metrics = nil
		}
		snap.Benchmarks[name] = st
	}

	if *compare != "" {
		if err := compareSnapshots(snap, *compare, *cmpRe, *cmpTol); err != nil {
			fmt.Fprintln(os.Stderr, "benchsnap:", err)
			os.Exit(1)
		}
	}

	if *out != "" && *out != "/dev/null" {
		blob, err := json.MarshalIndent(snap, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchsnap:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*out, append(blob, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchsnap:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchsnap: wrote %d benchmarks to %s\n", len(snap.Benchmarks), *out)
	}
}

func readSnapshot(path string) (Snapshot, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return Snapshot{}, err
	}
	var s Snapshot
	if err := json.Unmarshal(blob, &s); err != nil {
		return Snapshot{}, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.Benchmarks) == 0 {
		return Snapshot{}, fmt.Errorf("%s: no benchmarks in snapshot", path)
	}
	return s, nil
}

// compareSnapshots diffs the new snapshot against the old one at oldPath.
// A benchmark regresses when its min ns/op exceeds the old min by more
// than the tolerance fraction, or its allocs/op ceiling grows by more
// than the same fraction (any growth from a zero baseline fails).
// Benchmarks present on only one side are reported but never fail —
// bench families evolve — but at least one benchmark must match on both
// sides, so comparing disjoint snapshots cannot silently pass.
func compareSnapshots(newSnap Snapshot, oldPath, nameRe string, tol float64) error {
	oldSnap, err := readSnapshot(oldPath)
	if err != nil {
		return err
	}
	var re *regexp.Regexp
	if nameRe != "" {
		if re, err = regexp.Compile(nameRe); err != nil {
			return err
		}
	}
	names := make([]string, 0, len(newSnap.Benchmarks))
	for name := range newSnap.Benchmarks {
		if re == nil || re.MatchString(name) {
			names = append(names, name)
		}
	}
	sort.Strings(names)

	matched, failed := 0, 0
	for _, name := range names {
		nw := newSnap.Benchmarks[name]
		old, ok := oldSnap.Benchmarks[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchsnap: %-44s new benchmark (no baseline)\n", name)
			continue
		}
		matched++
		ratio := 0.0
		if old.NsPerOpMin > 0 {
			ratio = nw.NsPerOpMin / old.NsPerOpMin
		}
		verdict := "ok"
		if old.NsPerOpMin > 0 && nw.NsPerOpMin > old.NsPerOpMin*(1+tol) {
			verdict = "REGRESSION"
			failed++
		}
		if nw.AllocsPerOp > old.AllocsPerOp+int64(float64(old.AllocsPerOp)*tol) {
			verdict = "REGRESSION(allocs)"
			failed++
		}
		fmt.Fprintf(os.Stderr, "benchsnap: %-44s min %14.0f -> %14.0f ns/op (x%.2f)  allocs %7d -> %7d  %s\n",
			name, old.NsPerOpMin, nw.NsPerOpMin, ratio, old.AllocsPerOp, nw.AllocsPerOp, verdict)
	}
	if matched == 0 {
		return fmt.Errorf("no benchmark present in both snapshots (old %s)", oldPath)
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d benchmarks regressed beyond %.0f%% vs %s", failed, matched, tol*100, oldPath)
	}
	fmt.Fprintf(os.Stderr, "benchsnap: %d benchmarks within %.0f%% of %s\n", matched, tol*100, oldPath)
	return nil
}
