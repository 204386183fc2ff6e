package grid

import (
	"context"
	"encoding/json"
	"io"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"charisma/internal/core"
)

func fetchText(t *testing.T, hs *httptest.Server, path string) (string, string) {
	t.Helper()
	resp, err := hs.Client().Get(hs.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("%s answered %d", path, resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b), resp.Header.Get("Content-Type")
}

// metricValue finds a sample line `name value` or `name{labels} value` in
// a Prometheus text page.
func metricValue(t *testing.T, page, name string) (float64, bool) {
	t.Helper()
	for _, line := range strings.Split(page, "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			continue
		}
		if fields[0] == name || strings.HasPrefix(fields[0], name+"{") {
			v, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				t.Fatalf("unparseable sample %q: %v", line, err)
			}
			return v, true
		}
	}
	return 0, false
}

// TestStatsEndpointFields: GET /stats reports the session's executed /
// cache-hit / re-queue counters and completion, and answers zeros with
// no session attached.
func TestStatsEndpointFields(t *testing.T) {
	sv := NewServer()
	hs := httptest.NewServer(sv)
	defer hs.Close()

	decode := func() (st struct {
		Executed  int
		CacheHits int
		Requeues  int
		Done      bool
	}) {
		body, _ := fetchText(t, hs, "/stats")
		if err := json.Unmarshal([]byte(body), &st); err != nil {
			t.Fatalf("bad /stats payload %q: %v", body, err)
		}
		return st
	}

	if st := decode(); st.Executed != 0 || st.Done {
		t.Fatalf("no-session /stats = %+v, want zeros", st)
	}

	cache := NewMemCache()
	sess, err := NewSession(sweepPoints(2), cache, Precision{})
	if err != nil {
		t.Fatal(err)
	}
	sv.Attach(sess)
	if err := RunLocal(context.Background(), sess, 2); err != nil {
		t.Fatal(err)
	}

	st := decode()
	wantExec := 2 * len(sweepScenarios())
	if st.Executed != wantExec || !st.Done {
		t.Fatalf("/stats after sweep = %+v, want Executed=%d Done=true", st, wantExec)
	}
	if st.Requeues != 0 {
		t.Fatalf("unexpected requeues %d on an uncontended local sweep", st.Requeues)
	}

	// A second identical session against the same cache is pure hits.
	sess2, err := NewSession(sweepPoints(2), cache, Precision{})
	if err != nil {
		t.Fatal(err)
	}
	sv.Attach(sess2)
	if err := RunLocal(context.Background(), sess2, 2); err != nil {
		t.Fatal(err)
	}
	if st := decode(); st.CacheHits != wantExec || st.Executed != 0 {
		t.Fatalf("warm-cache /stats = %+v, want CacheHits=%d Executed=0", st, wantExec)
	}
}

// TestMetricsEndToEnd drives a real worker over the wire and checks the
// /metrics page carries every headline series with believable values.
func TestMetricsEndToEnd(t *testing.T) {
	sess, err := NewSession(sweepPoints(1), NewMemCache(), Precision{})
	if err != nil {
		t.Fatal(err)
	}
	sv := NewServer()
	sv.Attach(sess)
	hs := httptest.NewServer(sv)
	defer hs.Close()

	ctx := context.Background()
	done := make(chan error, 1)
	go func() {
		w := Worker{Coordinator: hs.URL, ID: "metrics-w", Parallel: 2, Poll: 5 * time.Millisecond}
		done <- w.Run(ctx)
	}()
	if err := sess.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	sv.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	page, ctype := fetchText(t, hs, "/metrics")
	if !strings.HasPrefix(ctype, "text/plain") {
		t.Fatalf("content type %q", ctype)
	}
	wantTasks := float64(len(sweepScenarios()))
	for name, min := range map[string]float64{
		"charisma_grid_tasks_served_total":         wantTasks,
		"charisma_grid_results_accepted_total":     wantTasks,
		"charisma_grid_executed_total":             wantTasks,
		"charisma_grid_done":                       1,
		"charisma_grid_cache_mem_misses_total":     1,
		"charisma_grid_rep_duration_seconds_count": wantTasks,
		"charisma_grid_rep_duration_seconds_sum":   0,
		"charisma_grid_requeues_total":             0,
		"charisma_grid_leases":                     0,
		"charisma_grid_heartbeats_total":           0,
		"charisma_grid_cache_mem_hits_total":       0,
	} {
		v, ok := metricValue(t, page, name)
		if !ok {
			t.Errorf("series %s missing from /metrics", name)
			continue
		}
		if v < min {
			t.Errorf("%s = %v, want >= %v", name, v, min)
		}
	}
	// The histogram's +Inf bucket must equal its count.
	inf, ok := metricValue(t, page, `charisma_grid_rep_duration_seconds_bucket{le="+Inf"}`)
	if !ok || inf != wantTasks {
		t.Errorf("+Inf bucket = %v ok=%v, want %v", inf, ok, wantTasks)
	}
}

// TestMetricsCrashRequeue: after a claimed lease lapses unheartbeated,
// /metrics exposes the crash re-queue counter — the series the CI grid
// smoke asserts on.
func TestMetricsCrashRequeue(t *testing.T) {
	sess, err := NewSession(sweepPoints(1), nil, Precision{})
	if err != nil {
		t.Fatal(err)
	}
	sv := NewServer()
	sv.LeaseTTL = 30 * time.Millisecond
	sv.Attach(sess)
	hs := httptest.NewServer(sv)
	defer hs.Close()

	crash := Worker{Coordinator: hs.URL, ID: "crashy"}
	if _, status, err := crash.fetchTask(context.Background(), hs.Client(), hs.URL); err != nil || status != 200 {
		t.Fatalf("claim: status %d err %v", status, err)
	}
	waitUntil(t, 2*time.Second, func() bool { return sess.Progress().Requeues >= 1 })

	page, _ := fetchText(t, hs, "/metrics")
	if v, ok := metricValue(t, page, "charisma_grid_requeues_total"); !ok || v < 1 {
		t.Fatalf("charisma_grid_requeues_total = %v ok=%v, want >= 1 after lease lapse", v, ok)
	}
	if v, ok := metricValue(t, page, "charisma_grid_tasks_served_total"); !ok || v != 1 {
		t.Fatalf("charisma_grid_tasks_served_total = %v ok=%v, want 1", v, ok)
	}
}

// TestWorkerStatsSnapshot: the worker-side counters behind the
// charisma-worker stats endpoint reflect a finished sweep.
func TestWorkerStatsSnapshot(t *testing.T) {
	sess, err := NewSession(sweepPoints(1), nil, Precision{})
	if err != nil {
		t.Fatal(err)
	}
	sv := NewServer()
	sv.Attach(sess)
	hs := httptest.NewServer(sv)
	defer hs.Close()

	ctx := context.Background()
	stats := new(WorkerStats)
	done := make(chan error, 1)
	go func() {
		w := Worker{Coordinator: hs.URL, ID: "stats-w", Poll: 5 * time.Millisecond,
			Cache: NewMemCache(), Stats: stats}
		done <- w.Run(ctx)
	}()
	if err := sess.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	sv.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	snap := stats.Snapshot()
	want := uint64(len(sweepScenarios()))
	if snap.Claimed != want || snap.Completed != want || snap.Abandoned != 0 {
		t.Fatalf("snapshot %+v, want claimed=completed=%d abandoned=0", snap, want)
	}
	if snap.CacheMisses != want || snap.CacheHits != 0 {
		t.Fatalf("snapshot %+v, want %d cold cache misses", snap, want)
	}
	b, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"claimed", "completed", "abandoned", "cache_hits", "cache_misses", "heartbeats", "heartbeat_avg_ms"} {
		if !strings.Contains(string(b), `"`+key+`"`) {
			t.Errorf("snapshot JSON missing %q: %s", key, b)
		}
	}
}

// histPage renders h as /metrics would, under the name x.
func histPage(h *repDurHist) string {
	var b strings.Builder
	h.writePrometheus(&b, "x")
	return b.String()
}

// TestRepDurHistBuckets: a value equal to a bound counts in that bound's
// bucket, a value past the last bound counts only in +Inf, and the sum
// and count cover every observation.
func TestRepDurHistBuckets(t *testing.T) {
	var h repDurHist
	vals := []float64{0.005, 0.01, 0.5, 2, 200}
	sum := 0.0
	for _, v := range vals {
		h.observe(v)
		sum += v
	}
	page := histPage(&h)
	for name, want := range map[string]float64{
		`x_bucket{le="0.01"}`:  2, // 0.005 and the boundary value 0.01
		`x_bucket{le="0.025"}`: 2,
		`x_bucket{le="0.5"}`:   3,
		`x_bucket{le="2.5"}`:   4,
		`x_bucket{le="120"}`:   4,
		`x_bucket{le="+Inf"}`:  5,
		"x_sum":                sum,
		"x_count":              5,
	} {
		if got, ok := metricValue(t, page, name); !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v in:\n%s", name, got, ok, want, page)
		}
	}
}

// TestRepDurHistConcurrent: observations from 8 goroutines at once are
// all counted and summed (run under -race).
func TestRepDurHistConcurrent(t *testing.T) {
	var h repDurHist
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.observe(float64(i % 5))
			}
		}()
	}
	wg.Wait()
	page := histPage(&h)
	for name, want := range map[string]float64{
		`x_bucket{le="1"}`:    3200, // the 0s and 1s
		`x_bucket{le="2.5"}`:  4800,
		`x_bucket{le="+Inf"}`: 8000,
		"x_count":             8000,
		"x_sum":               8 * 1000 / 5 * (0 + 1 + 2 + 3 + 4),
	} {
		if got, ok := metricValue(t, page, name); !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", name, got, ok, want)
		}
	}
}

// TestStatsAndMetricsCostFlatInPoints: /stats and /metrics read the
// session's counters, so a request allocates about as much at 1,500
// settled points as at 10; neither copies nor aggregates per-point
// results.
func TestStatsAndMetricsCostFlatInPoints(t *testing.T) {
	ctx := context.Background()
	cache := NewMemCache()
	pt := Point{Spec: ScenarioSpec(tinyScenario(core.ProtoCharisma, 4, 0)), Replications: 2}
	if _, err := RunPoints(ctx, []Point{pt}, DriveConfig{Cache: cache, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	allocs := func(n int, path string) float64 {
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = pt
		}
		sess, err := NewSession(pts, cache, Precision{})
		if err != nil {
			t.Fatal(err)
		}
		if p := sess.Progress(); !p.Done || p.CacheHits != 2*n {
			t.Fatalf("%d points: session not settled from the cache: %+v", n, p)
		}
		sv := NewServer()
		sv.Attach(sess)
		req := httptest.NewRequest("GET", path, nil)
		return testing.AllocsPerRun(20, func() { sv.ServeHTTP(httptest.NewRecorder(), req) })
	}
	for _, path := range []string{"/stats", "/metrics"} {
		small, large := allocs(10, path), allocs(1500, path)
		if large > small+4 {
			t.Errorf("%s: %.0f allocs per request at 1500 points, %.0f at 10", path, large, small)
		}
	}
}
