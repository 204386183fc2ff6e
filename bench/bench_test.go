package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"testing"
)

// toySize runs every workload in well under a second per pass.
var toySize = sizes{setups: 1, warmupSec: 0.1, voiceSec: 0.1, dataSec: 0.1, panelReps: 1, corpusN: 20}

type specMetric struct {
	Name, Unit, Better string
	Bound              float64
}

type benchSpec struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []specMetric `json:"end_to_end"`
	PerLayer  []specMetric `json:"per_layer"`
}

func readSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestBenchmarkSmoke runs every workload at toy size, untraced and traced,
// and checks the report against BENCHMARK.json and the ledgers against
// each other: traced equals untraced, and the HTTP corpus walk equals the
// warm disk-cache walk.
func TestBenchmarkSmoke(t *testing.T) {
	spec := readSpec(t)
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, m := range append(append([]specMetric{}, spec.EndToEnd...), spec.PerLayer...) {
		if !nameRE.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric name %q is malformed or repeated", m.Name)
		}
		seen[m.Name] = true
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got, want := names, workloadNames(); !slices.Equal(got, want) {
		t.Fatalf("BENCHMARK.json workloads %v, bench runs %v", got, want)
	}

	ctx := context.Background()
	ledgers := map[string]string{}
	for _, w := range workloadNames() {
		for _, trace := range []bool{false, true} {
			o := options{workload: w, seed: 3, seconds: 1e-3, trace: trace, out: t.TempDir(), traceDir: t.TempDir()}
			rep, led, err := runWorkload(ctx, o, toySize)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !rep.Correct || rep.Attempted < 1 || rep.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w, trace, rep.Correct, rep.Attempted, rep.Failed)
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics reported, BENCHMARK.json lists %d", w, trace, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", w, trace, m.Name, got, m.Unit)
				}
				if !trace && !(got.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, m.Name, got.Value)
				}
			}
			if trace {
				if led != ledgers[w] {
					t.Errorf("%s: traced ledger %s, untraced %s", w, led, ledgers[w])
				}
				if _, err := os.Stat(filepath.Join(o.traceDir, w+".spans.jsonl")); err != nil {
					t.Errorf("%s: span file: %v", w, err)
				}
			}
			ledgers[w] = led
		}
	}
	if ledgers["corpus-http"] != ledgers["corpus-warm"] {
		t.Errorf("corpus ledgers differ: HTTP %s, warm disk %s", ledgers["corpus-http"], ledgers["corpus-warm"])
	}
}

func TestFoldTraces(t *testing.T) {
	text := []byte(`File: bench
Type: cpu
-----------+-------------------------------------------------------
      30ms   math/rand.(*rngSource).Uint64 (inline)
             charisma/internal/rng.(*Stream).ComplexGaussian
             charisma/internal/channel.(*plane).advanceUserSteps
-----------+-------------------------------------------------------
      20ms   slices.insertionSortCmpFunc[go.shape.struct { charisma/internal/mac/charisma.r *charisma/internal/mac.Request }] (inline)
             charisma/internal/mac/charisma.(*Protocol).RunFrame
-----------+-------------------------------------------------------
      1.5s   runtime.scanobject
             runtime.gcDrain
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
      10ms   encoding/json.(*decodeState).object
             charisma/internal/grid.DiskCache.Get
-----------+-------------------------------------------------------
`)
	got, err := foldTraces(text)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"rng": 0.03, "mac-charisma": 0.02, "runtime-gc": 1.5, "encoding-json": 0.01}
	if len(got) != len(want) {
		t.Fatalf("folded %v, want %v", got, want)
	}
	for g, v := range want {
		if d := got[g] - v; d > 1e-12 || d < -1e-12 {
			t.Errorf("group %s = %v, want %v", g, got[g], v)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// Expected values from Python's statistics.quantiles(v, n=4).
	for _, c := range []struct {
		v         []float64
		q1, m, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
	} {
		q1, m, q3 := quartiles(c.v)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.v, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}
