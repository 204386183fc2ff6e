// Command bench is the repository benchmark. It runs the paper's §5 figure
// panels and a generated scenario corpus through the simulator's public
// entry points — experiments.RunPanel, experiments.RunScenarioFile, and a
// grid.Server with HTTP grid.Workers — checks every replication result
// against a SHA-256 result ledger, and prints the end-to-end metrics as one
// JSON line. With -trace 1 it re-runs the workload with per-layer timers,
// in-memory spans and a CPU profile folded by package, and prints the
// per-layer metrics instead.
//
// Usage, from the repository root (run.sh builds the binary first):
//
//	bash bench/run.sh -workload panel-voice -seed 1 -seconds 12 -trace 0
//	bash bench/run.sh -workload corpus-http -trace 1
//	bash bench/run.sh -runs 5          # every workload, 5 fresh processes each
//
// See README.md for the workloads, the metrics and the reference numbers.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// workers is the closed-loop concurrency of every workload: two replication
// lanes, one per core of the 2-vCPU reference machine.
const workers = 2

// options are the command-line settings of one invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceDir string
	out      string
	runs     int
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the JSON object printed as the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+" (empty = all, each in a child process)")
	flag.Int64Var(&o.seed, "seed", 1, "seed for the panels' base seed and the corpus entries' simulation seeds")
	flag.Float64Var(&o.seconds, "seconds", 12, "length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.StringVar(&o.traceDir, "trace-dir", "", "directory for span files and the CPU profile (default OUT/trace)")
	flag.StringVar(&o.out, "out", ".bench_build", "directory for scratch files")
	flag.IntVar(&o.runs, "runs", 1, "runs per workload, each in a fresh child process; reports median and quartiles")
	flag.Parse()
	o.trace = trace == 1
	if err := o.check(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if o.traceDir == "" {
		o.traceDir = filepath.Join(o.out, "trace")
	}
	ctx := context.Background()
	if o.workload == "" || o.runs > 1 {
		if err := orchestrate(ctx, o); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	rep, led, err := runWorkload(ctx, o, fullSize)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Printf("ledger %s\n", led)
	b, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if !rep.Correct {
		os.Exit(1)
	}
}

func (o options) check() error {
	if o.workload != "" && !slices.Contains(workloadNames(), o.workload) {
		return fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if !(o.seconds > 0) || math.IsInf(o.seconds, 0) {
		return fmt.Errorf("-seconds must be positive, got %v", o.seconds)
	}
	if o.runs < 1 {
		return fmt.Errorf("-runs must be at least 1, got %d", o.runs)
	}
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", flag.Args())
	}
	return nil
}

// runWorkload sets the workload up sz.setups times (reporting the median as
// setup_s), then repeats closed-loop passes for o.seconds. Every pass's
// ledger must equal the set-up's reference ledger, and for the pinned seed
// the pinned digest. It returns the report and the reference ledger digest.
func runWorkload(ctx context.Context, o options, sz sizes) (report, string, error) {
	work, err := os.MkdirTemp(mkdir(o.out), "work-")
	if err != nil {
		return report{}, "", err
	}
	defer os.RemoveAll(work)
	wl, err := newWorkload(o.workload, o.seed, sz, work)
	if err != nil {
		return report{}, "", err
	}
	defer wl.close()

	var tr *tracer
	setups := sz.setups
	if o.trace {
		tr = newTracer(wl.serialWeight())
		setups = 1
	}
	var setupTimes []float64
	var ref string
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		ref, err = wl.setup(ctx, tr)
		if err != nil {
			return report{}, "", fmt.Errorf("%s set-up: %w", o.workload, err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
	}
	// Flush the set-up's writes (a filled disk cache is thousands of files) so
	// kernel writeback does not compete with the timed passes.
	syscall.Sync()
	reps, simSec := wl.work()
	rep := report{Correct: true}
	if pin, ok := pinnedDigest(o.workload, o.seed); ok && sz == fullSize && pin != ref {
		fmt.Fprintf(os.Stderr, "bench: %s seed %d: ledger %s differs from the pinned %s\n", o.workload, o.seed, ref, pin)
		rep.Correct = false
	}

	// timed runs passes until budget elapses, checking each pass's ledger.
	// A non-nil rt sums the runtime's counters over the passes.
	timed := func(budget float64, tr *tracer, rt *runtimeStats) (walls []float64, total float64) {
		for len(walls) == 0 || total < budget {
			// Start every pass from a collected heap, so the previous pass's
			// garbage and its ledger digest are not charged to this one.
			runtime.GC()
			if rt != nil {
				rt.begin()
			}
			t0 := time.Now()
			if tr != nil {
				tr.open()
			}
			led, err := wl.pass(ctx, tr)
			if tr != nil {
				tr.shut()
			}
			w := time.Since(t0).Seconds()
			if rt != nil {
				rt.end(reps)
			}
			walls, total = append(walls, w), total+w
			rep.Attempted += reps
			switch {
			case err != nil:
				fmt.Fprintf(os.Stderr, "bench: %s pass %d: %v\n", o.workload, len(walls), err)
				rep.Failed += reps
			case led != ref:
				fmt.Fprintf(os.Stderr, "bench: %s pass %d: ledger %s differs from the set-up's %s\n", o.workload, len(walls), led, ref)
				rep.Failed += reps
			}
		}
		fmt.Fprintf(os.Stderr, "bench: %s: %d passes, wall min %.4f median %.4f max %.4f s\n",
			o.workload, len(walls), slices.Min(walls), median(walls), slices.Max(walls))
		return walls, total
	}

	if !o.trace {
		walls, total := timed(o.seconds, nil, nil)
		ok := float64(rep.Attempted - rep.Failed)
		rep.Metrics = finish(map[string]float64{
			"wall_s":      median(walls),
			"reps_per_s":  ok / total,
			"sim_s_per_s": ok / float64(reps) * simSec / total,
			"setup_s":     median(setupTimes),
			"peak_rss_mb": peakRSSMB(),
		}, e2eDefs)
	} else {
		// A third of the budget untraced (the baseline for trace_overhead and
		// the runtime counters), the rest traced under the CPU profiler.
		var rt runtimeStats
		plain, _ := timed(o.seconds/3, nil, &rt)
		prof, err := startProfile(o.traceDir, o.workload)
		if err != nil {
			return report{}, "", err
		}
		tr.on.Store(true)
		traced, _ := timed(o.seconds*2/3, tr, nil)
		tr.on.Store(false)
		if err := prof.stop(); err != nil {
			return report{}, "", err
		}
		if err := wl.probe(tr); err != nil {
			return report{}, "", err
		}
		values, err := foldProfile(prof.path)
		if err != nil {
			return report{}, "", err
		}
		maps.Copy(values, tr.perLayer(traced))
		maps.Copy(values, rt.values())
		values["trace_overhead"] = median(traced)/median(plain) - 1
		values["acct.unattributed_frac"] = tr.printAccounting(os.Stderr, o.workload, sum(traced))
		rep.Metrics = finish(values, perLayerDefs())
		if err := tr.writeSpans(filepath.Join(mkdir(o.traceDir), o.workload+".spans.jsonl")); err != nil {
			return report{}, "", err
		}
	}
	if rep.Failed > 0 {
		rep.Correct = false
	}
	return rep, ref, nil
}

// mkdir creates dir (and parents) and returns it; a failure surfaces at the
// first file operation inside it.
func mkdir(dir string) string {
	_ = os.MkdirAll(dir, 0o755)
	return dir
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// childRun is one child process's outcome.
type childRun struct {
	rep    report
	ledger string
}

// orchestrate runs every selected workload o.runs times, each in a fresh
// child process of this binary, then prints each metric's median and
// quartiles and cross-checks the ledgers: all runs of one workload agree,
// and the HTTP corpus walk equals the warm disk-cache walk.
func orchestrate(ctx context.Context, o options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	names := workloadNames()
	if o.workload != "" {
		names = []string{o.workload}
	}
	trace := "0"
	if o.trace {
		trace = "1"
	}
	runs := map[string][]childRun{}
	var problems []string
	for _, name := range names {
		for i := 0; i < o.runs; i++ {
			cmd := exec.CommandContext(ctx, self, "-workload", name, "-seed", strconv.FormatInt(o.seed, 10),
				"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", trace,
				"-out", o.out, "-trace-dir", o.traceDir)
			var stdout bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
			runErr := cmd.Run()
			cr, perr := parseChild(stdout.Bytes())
			if perr != nil {
				problems = append(problems, fmt.Sprintf("%s run %d: %v (exit: %v)", name, i+1, perr, runErr))
				continue
			}
			if !cr.rep.Correct || runErr != nil {
				problems = append(problems, fmt.Sprintf("%s run %d: incorrect (%d of %d reps failed)", name, i+1, cr.rep.Failed, cr.rep.Attempted))
			}
			fmt.Fprintf(os.Stderr, "bench: %s run %d/%d done\n", name, i+1, o.runs)
			runs[name] = append(runs[name], cr)
		}
	}
	for _, name := range names {
		printSummary(os.Stdout, name, runs[name])
		for _, cr := range runs[name] {
			if cr.ledger != runs[name][0].ledger {
				problems = append(problems, fmt.Sprintf("%s: ledgers differ between runs (%s vs %s)", name, cr.ledger, runs[name][0].ledger))
			}
		}
	}
	if h, w := runs["corpus-http"], runs["corpus-warm"]; len(h) > 0 && len(w) > 0 && h[0].ledger != w[0].ledger {
		problems = append(problems, fmt.Sprintf("corpus-http ledger %s differs from corpus-warm ledger %s", h[0].ledger, w[0].ledger))
	}
	if len(problems) > 0 {
		return errors.New(strings.Join(problems, "\n"))
	}
	return nil
}

// parseChild reads a child's standard output: a "ledger <digest>" line and
// the report JSON as the last line.
func parseChild(out []byte) (childRun, error) {
	var cr childRun
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if d, ok := strings.CutPrefix(line, "ledger "); ok {
			cr.ledger = d
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	if err := json.Unmarshal([]byte(last), &cr.rep); err != nil {
		return cr, fmt.Errorf("no report line: %w", err)
	}
	return cr, nil
}

// printSummary writes one line per metric: median and quartiles over runs.
func printSummary(w io.Writer, name string, runs []childRun) {
	if len(runs) == 0 {
		return
	}
	fmt.Fprintf(w, "%s: %d runs\n", name, len(runs))
	keys := make([]string, 0, len(runs[0].rep.Metrics))
	for k := range runs[0].rep.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		vals := make([]float64, 0, len(runs))
		for _, r := range runs {
			vals = append(vals, r.rep.Metrics[k].Value)
		}
		q1, med, q3 := quartiles(vals)
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / med
		}
		fmt.Fprintf(w, "  %-32s %14.6g %-10s q1 %-12.6g q3 %-12.6g iqr/median %.4f\n",
			k, med, runs[0].rep.Metrics[k].Unit, q1, q3, spread)
	}
}

func sum(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

// median returns the middle value (mean of the middle two for even n).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first quartile, median and third quartile by the
// "exclusive" method, the default of Python's statistics.quantiles(v, n=4).
func quartiles(v []float64) (q1, med, q3 float64) {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n < 2 {
		return median(s), median(s), median(s)
	}
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - 4*j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), median(s), q(3)
}

// percentile returns the p-th percentile (0–100) by nearest rank.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}
