package main

// The traced run. Every timer here wraps a call into a layer's public
// functions from the benchmark's own code — the program itself carries no
// tracing. Loopback sessions are driven by the loop grid.RunLocal runs
// (NextWait → replication → Complete), and scenario replications are
// replayed from Scenario.Build, Protocol.Init and the engine's frame driver
// exactly as core.Scenario.Run steps them; the traced ledger equalling the
// end-to-end ledger proves the replay is the production path. The HTTP
// seams (http.Handler, http.RoundTripper) and the grid.Cache seam are
// wrapped. Per-frame phases go into counters; spans are kept for each
// replication, grid call, cache operation and HTTP request.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"charisma/internal/grid"
	"charisma/internal/mac"
	"charisma/internal/run"
	"charisma/internal/sim"
)

// maxSpans bounds the spans held in memory; later ones are counted only.
const maxSpans = 400_000

// span is one timed interval. Trace is the RepKey of the replication the
// span is about, when it is about one.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Trace  string `json:"trace,omitempty"`
}

// tracer collects one traced run's timings. Recording is on only while on
// is set: the HTTP wrappers are installed at set-up and outlive the traced
// passes.
type tracer struct {
	on           atomic.Bool
	serial       atomic.Bool // a serial coordinator phase is running
	serialWeight int
	epoch        time.Time

	mu        sync.Mutex
	spans     []span
	dropped   int
	dists     map[string][]float64     // samples for percentiles
	sums      map[string]float64       // totals over the traced passes
	charges   map[string]time.Duration // lane time per accounting layer
	window    time.Time                // start of the open pass; zero when closed
	lastClaim time.Time                // latest task claim of the current session
	passes    int
}

func newTracer(serialWeight int) *tracer {
	return &tracer{
		serialWeight: serialWeight,
		epoch:        time.Now(),
		dists:        map[string][]float64{},
		sums:         map[string]float64{},
		charges:      map[string]time.Duration{},
	}
}

// open and shut bracket one traced pass: lane time is charged to layers only
// inside the bracket, so the accounting closes against the pass walls.
func (t *tracer) open() {
	t.mu.Lock()
	t.window = time.Now()
	t.passes++
	t.mu.Unlock()
}

func (t *tracer) shut() {
	t.mu.Lock()
	t.window = time.Time{}
	t.mu.Unlock()
}

func (t *tracer) observe(name string, v float64) {
	t.mu.Lock()
	t.dists[name] = append(t.dists[name], v)
	t.mu.Unlock()
}

// add accumulates v under name, counting only inside an open pass.
func (t *tracer) add(name string, v float64) {
	t.mu.Lock()
	if !t.window.IsZero() {
		t.sums[name] += v
	}
	t.mu.Unlock()
}

// charge adds weight × [s, e], clipped to the open pass, to layer and takes
// the same time off parent, whose own interval contains it.
func (t *tracer) charge(layer, parent string, s, e time.Time, weight int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.window.IsZero() || weight == 0 {
		return
	}
	if s.Before(t.window) {
		s = t.window
	}
	if !e.After(s) {
		return
	}
	d := e.Sub(s) * time.Duration(weight)
	t.charges[layer] += d
	if parent != "" {
		t.charges[parent] -= d
	}
}

// span records an interval and returns its id.
func (t *tracer) span(name string, s, e time.Time, parent int64, trace string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return 0
	}
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{Name: name, Start: s.Sub(t.epoch).Nanoseconds(), End: e.Sub(t.epoch).Nanoseconds(), ID: id, Parent: parent, Trace: trace})
	return id
}

func (t *tracer) claimed(at time.Time) {
	t.mu.Lock()
	if at.After(t.lastClaim) {
		t.lastClaim = at
	}
	t.mu.Unlock()
}

// sessionDone adds the straggler tail of the session that just finished:
// its last task claim to now.
func (t *tracer) sessionDone() {
	now := time.Now()
	t.mu.Lock()
	last := t.lastClaim
	t.lastClaim = time.Time{}
	t.mu.Unlock()
	if !last.IsZero() {
		t.add("grid.tail_s", now.Sub(last).Seconds())
	}
}

// serialPhase times a coordinator step that no replication lane overlaps.
func (t *tracer) serialPhase(name, dist string, f func() error) error {
	t.serial.Store(true)
	s := time.Now()
	err := f()
	e := time.Now()
	t.serial.Store(false)
	t.observe(dist, ms(e.Sub(s)))
	t.charge("grid", "", s, e, t.serialWeight)
	t.span(name, s, e, 0, "")
	return err
}

func (t *tracer) newSession(pts []grid.Point, cache grid.Cache) (*grid.Session, error) {
	var sess *grid.Session
	err := t.serialPhase("grid.session_new", "grid.session_new_ms", func() (err error) {
		sess, err = grid.NewSession(pts, cache, grid.Precision{})
		return err
	})
	return sess, err
}

func (t *tracer) results(sess *grid.Session) error {
	return t.serialPhase("grid.session_results", "grid.session_results_ms", func() error {
		_, err := sess.Results()
		return err
	})
}

// runLocal is grid.RunPoints over the loopback pool, traced: a session,
// workers lanes running NextWait → replay → Complete, then the aggregate.
// It returns how many replications the lanes executed.
func (t *tracer) runLocal(ctx context.Context, pts []grid.Point, cache grid.Cache, keys keyer) (int, error) {
	sess, err := t.newSession(pts, cache)
	if err != nil {
		return 0, err
	}
	var executed atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				s := time.Now()
				task, ok := sess.NextWait(ctx)
				e := time.Now()
				t.charge("idle", "", s, e, 1)
				t.add("grid.dispatch_wait_s", e.Sub(s).Seconds())
				if !ok {
					return
				}
				t.claimed(e)
				executed.Add(1)
				key := keys.key(task.Point, task.Rep)
				res, err := t.replay(task, key)
				tr := grid.TaskResult{Point: task.Point, Rep: task.Rep, Lease: task.Lease, Result: res}
				if err != nil {
					tr.Err = err.Error()
				}
				cs := time.Now()
				_ = sess.Complete(tr) // completing our own task cannot fail validation
				ce := time.Now()
				t.observe("grid.complete_us", us(ce.Sub(cs)))
				t.charge("grid", "", cs, ce, 1)
				t.span("grid.complete", cs, ce, 0, key)
			}
		}()
	}
	wg.Wait()
	t.sessionDone()
	if err := ctx.Err(); err != nil {
		return int(executed.Load()), err
	}
	return int(executed.Load()), t.results(sess)
}

// runRemote is grid.RunPoints with RemoteOnly over srv, traced: the HTTP
// workers' lanes are timed by the lane and handler wrappers.
func (t *tracer) runRemote(ctx context.Context, pts []grid.Point, cache grid.Cache, srv *grid.Server) error {
	sess, err := t.newSession(pts, cache)
	if err != nil {
		return err
	}
	srv.Attach(sess)
	if err := sess.Wait(ctx); err != nil {
		return err
	}
	t.sessionDone()
	return t.results(sess)
}

// replay runs one replication. A scenario is stepped exactly as
// core.Scenario.Run steps it, with each frame phase timed; any other kind
// runs through JobSpec.RunRep.
func (t *tracer) replay(task grid.Task, key string) (mac.Result, error) {
	if task.Spec.Kind != grid.KindScenario {
		s := time.Now()
		res, err := task.Spec.RunRep(task.Rep)
		e := time.Now()
		t.charge("multicell", "", s, e, 1)
		t.span("multicell.rep", s, e, 0, key)
		return res, err
	}
	sc := *task.Spec.Scenario
	sc.Seed = run.RepSeed(sc.Seed, task.Rep)
	sc = sc.WithDefaults()
	t0 := time.Now()
	sys, proto, err := sc.Build()
	if err != nil {
		return mac.Result{}, fmt.Errorf("grid: scenario (%s) rep %d: %w", sc.Protocol, task.Rep, err)
	}
	t1 := time.Now()
	proto.Init(sys)
	t2 := time.Now()
	eng := sim.NewEngine()
	warmup := sim.FromSeconds(sc.WarmupSec)
	limit := warmup + sim.FromSeconds(sc.DurationSec)
	var begin, runF, end time.Duration
	marked := false
	eng.ScheduleEvery(0, func(*sim.Engine) sim.Time {
		if !marked && sys.Now() >= warmup {
			sys.M.Mark()
			marked = true
		}
		a := time.Now()
		sys.BeginFrame()
		b := time.Now()
		dur := proto.RunFrame(sys)
		c := time.Now()
		sys.EndFrame(dur)
		d := time.Now()
		begin += b.Sub(a)
		runF += c.Sub(b)
		end += d.Sub(c)
		if sys.Now() >= limit {
			return -1
		}
		return dur
	})
	eng.Run()
	t3 := time.Now()
	res := sys.M.Result(proto.Name(), sys.Cfg.Geometry.FrameSymbols)
	t4 := time.Now()

	p := protoKey(sc.Protocol)
	engSelf := t3.Sub(t2) - begin - runF - end
	macObs, engObs := sys.Obs(), eng.Obs()
	frames := float64(sys.FrameIndex())
	t.mu.Lock()
	for name, v := range map[string]float64{
		"mac.begin_ns": float64(begin), "mac.end_ns": float64(end), "sim.self_ns": float64(engSelf),
		"run_ns." + p: float64(runF), "frames." + p: frames, "rep_ms." + p: ms(t4.Sub(t0)), "reps." + p: 1,
		"mac.frames": frames, "sim.engine_events": float64(engObs.EngineEvents),
		"mac.wheel_arms": float64(macObs.WheelArms), "mac.wheel_wakes": float64(macObs.WheelWakes),
		"mac.wheel_cascades": float64(macObs.WheelCascades), "mac.epoch_bumps": float64(macObs.EpochBumps),
		"mac.cand_hits": float64(macObs.CandHits), "mac.cand_lookups": float64(macObs.CandHits + macObs.CandMisses),
	} {
		t.sums[name] += v
	}
	t.dists["core.build_us"] = append(t.dists["core.build_us"], us(t2.Sub(t0)))
	for layer, d := range map[string]time.Duration{
		"core": t1.Sub(t0), "mac": t2.Sub(t1) + begin + end + t4.Sub(t3), protoLayer(p): runF, "sim": engSelf,
	} {
		t.charges[layer] += d
	}
	t.mu.Unlock()

	id := t.span("rep", t0, t4, 0, key)
	t.span("core.build", t0, t1, id, key)
	t.span("mac.init", t1, t2, id, key)
	t.span("sim.run", t2, t3, id, key)
	t.span("mac.result", t3, t4, id, key)
	return res, nil
}

// timedCache times a cache tier. layer is the accounting layer the tier's
// own time goes to, parent the layer of the code calling it.
type timedCache struct {
	grid.Cache
	t                   *tracer
	name, layer, parent string
	getDist, putDist    string // "" = not sampled
}

// cache wraps the whole cache stack a session sees; putDist names the
// distribution its puts feed ("" for none).
func (t *tracer) cache(c grid.Cache, putDist string) grid.Cache {
	return &timedCache{Cache: c, t: t, name: "cache", layer: "grid.cache", parent: "grid", getDist: "grid.cache_get_us", putDist: putDist}
}

// disk wraps the disk tier below the in-memory one.
func (t *tracer) disk(c grid.Cache) grid.Cache {
	return &timedCache{Cache: c, t: t, name: "disk", layer: "grid.disk", parent: "grid.cache", getDist: "grid.disk_get_us", putDist: "grid.disk_put_us"}
}

func (c *timedCache) weight() int {
	if c.t.serial.Load() {
		return c.t.serialWeight
	}
	return 1
}

// Get implements grid.Cache.
func (c *timedCache) Get(key string) (mac.Result, bool) {
	if !c.t.on.Load() {
		return c.Cache.Get(key)
	}
	s := time.Now()
	r, ok := c.Cache.Get(key)
	e := time.Now()
	c.t.observe(c.getDist, us(e.Sub(s)))
	if c.name == "cache" {
		hit := 0.0
		if ok {
			hit = 1
		}
		c.t.add("grid.cache_hits", hit)
		c.t.add("grid.cache_gets", 1)
	}
	c.t.charge(c.layer, c.parent, s, e, c.weight())
	c.t.span(c.name+".get", s, e, 0, key)
	return r, ok
}

// Put implements grid.Cache.
func (c *timedCache) Put(key string, r mac.Result) {
	if !c.t.on.Load() {
		c.Cache.Put(key, r)
		return
	}
	s := time.Now()
	c.Cache.Put(key, r)
	e := time.Now()
	if c.putDist != "" {
		c.t.observe(c.putDist, us(e.Sub(s)))
	}
	c.t.charge(c.layer, c.parent, s, e, c.weight())
	c.t.span(c.name+".put", s, e, 0, key)
}

// handler wraps the coordinator: time inside it is the grid's share of a
// worker's round trip.
func (t *tracer) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		path := r.URL.Path
		if !t.on.Load() || (path != "/task" && path != "/result") {
			h.ServeHTTP(w, r)
			return
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		s := time.Now()
		h.ServeHTTP(sw, r)
		e := time.Now()
		switch {
		case path == "/task" && sw.status == http.StatusOK:
			t.claimed(e)
			t.observe("grid.server.task_us", us(e.Sub(s)))
		case path == "/task":
			return // an empty poll is the lane's idle time
		default:
			t.observe("grid.server.result_us", us(e.Sub(s)))
		}
		t.charge("grid", "net-http", s, e, 1)
		t.span("server."+r.Method+" "+path, s, e, 0, "")
	})
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// lane times one single-lane HTTP worker from its transport: each request's
// round trip, and the gap before it — execution after a claimed task, a
// poll sleep after an empty one.
type lane struct {
	t    *tracer
	base http.RoundTripper
	keys *keyer

	mu       sync.Mutex
	prevEnd  time.Time
	prevKind int // one of the kind* constants below
	prevKey  string
}

const (
	kindNone = iota
	kindClaim
	kindEmpty
	kindResult
)

func (t *tracer) lane(base http.RoundTripper, keys *keyer) http.RoundTripper {
	return &lane{t: t, base: base, keys: keys}
}

// taskRef is the part of a task or result body that names its replication.
type taskRef struct{ Point, Rep int }

// RoundTrip implements http.RoundTripper.
func (l *lane) RoundTrip(req *http.Request) (*http.Response, error) {
	path := req.URL.Path
	if !l.t.on.Load() || (path != "/task" && path != "/result") {
		return l.base.RoundTrip(req)
	}
	var reqBody []byte
	if req.Body != nil {
		b, err := io.ReadAll(req.Body)
		req.Body.Close()
		if err != nil {
			return nil, err
		}
		reqBody = b
		req = req.Clone(req.Context())
		req.Body = io.NopCloser(bytes.NewReader(b))
	}
	s := time.Now()
	l.gap(s)
	resp, err := l.base.RoundTrip(req)
	if err != nil {
		l.setPrev(time.Now(), kindNone, "")
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		l.setPrev(time.Now(), kindNone, "")
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	e := time.Now()
	t := l.t
	rtt := e.Sub(s)
	switch {
	case path == "/task" && resp.StatusCode == http.StatusOK:
		var ref taskRef
		_ = json.Unmarshal(body, &ref)
		key := l.keys.key(ref.Point, ref.Rep)
		t.observe("grid.http.task_rtt_us", us(rtt))
		t.add("grid.http.claims", 1)
		t.add("grid.http.task_bytes", float64(len(body)))
		t.charge("net-http", "", s, e, 1)
		t.charge("dispatch", "", s, e, 1)
		t.span("http.GET /task", s, e, 0, key)
		l.setPrev(e, kindClaim, key)
	case path == "/task":
		t.add("grid.http.empty_polls", 1)
		t.charge("idle", "", s, e, 1)
		t.charge("dispatch", "", s, e, 1)
		l.setPrev(e, kindEmpty, "")
	default:
		var ref taskRef
		_ = json.Unmarshal(reqBody, &ref)
		key := l.keys.key(ref.Point, ref.Rep)
		t.observe("grid.http.result_rtt_us", us(rtt))
		t.add("grid.http.result_bytes", float64(len(reqBody)))
		t.charge("net-http", "", s, e, 1)
		t.span("http.POST /result", s, e, 0, key)
		l.setPrev(e, kindResult, key)
	}
	return resp, nil
}

// gap charges the lane's time between its previous response and the
// request starting at s.
func (l *lane) gap(s time.Time) {
	l.mu.Lock()
	prevEnd, kind, key := l.prevEnd, l.prevKind, l.prevKey
	l.mu.Unlock()
	t := l.t
	switch kind {
	case kindClaim: // the worker ran the replication
		t.observe("grid.worker.exec_ms", ms(s.Sub(prevEnd)))
		t.charge("worker.rep", "", prevEnd, s, 1)
		t.span("worker.exec", prevEnd, s, 0, key)
	case kindEmpty: // the worker slept before polling again
		t.charge("idle", "", prevEnd, s, 1)
		t.charge("dispatch", "", prevEnd, s, 1)
	}
}

func (l *lane) setPrev(end time.Time, kind int, key string) {
	l.mu.Lock()
	l.prevEnd, l.prevKind, l.prevKey = end, kind, key
	l.mu.Unlock()
}

// probeKeys times the grid's content addressing on the workload's points:
// JobSpec.Hash per point and RepKey per replication.
func (t *tracer) probeKeys(pts []grid.Point) error {
	for _, pt := range pts {
		s := time.Now()
		h, err := pt.Spec.Hash()
		t.observe("grid.spec_hash_us", us(time.Since(s)))
		if err != nil {
			return err
		}
		for rep := 0; rep < max(1, pt.Replications); rep++ {
			seed := run.RepSeed(pt.Spec.BaseSeed(), rep)
			s := time.Now()
			_ = grid.RepKey(h, seed)
			t.observe("grid.repkey_us", us(time.Since(s)))
		}
	}
	return nil
}

// probePuts times the two cache tiers' writes on results a traced walk
// served: MemCache.Put, and DiskCache.Put into a fresh directory.
func (t *tracer) probePuts(results map[string]mac.Result, dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	mem, disk := grid.NewMemCache(), grid.NewDiskCache(dir, nil)
	for key, r := range results {
		s := time.Now()
		mem.Put(key, r)
		m := time.Now()
		disk.Put(key, r)
		e := time.Now()
		t.observe("grid.mem_put_us", us(m.Sub(s)))
		t.observe("grid.disk_put_us", us(e.Sub(m)))
	}
	if st := disk.Stats(); st.DiskPutErrors > 0 {
		return fmt.Errorf("put probe: %d disk write errors", st.DiskPutErrors)
	}
	return nil
}

// perLayer turns the traced passes' timers into the per-layer metrics.
func (t *tracer) perLayer(walls []float64) map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	passes := float64(max(1, t.passes))
	s := t.sums
	v := map[string]float64{}
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	frames := s["mac.frames"]
	v["mac.begin_frame_ns"] = div(s["mac.begin_ns"], frames)
	v["mac.end_frame_ns"] = div(s["mac.end_ns"], frames)
	v["sim.engine_self_ns"] = div(s["sim.self_ns"], frames)
	for _, p := range protoKeys {
		v["mac.run_frame_ns."+p] = div(s["run_ns."+p], s["frames."+p])
		v["core.rep_ms."+p] = div(s["rep_ms."+p], s["reps."+p])
	}
	for _, name := range []string{"mac.frames", "sim.engine_events", "mac.wheel_arms", "mac.wheel_wakes",
		"mac.wheel_cascades", "mac.epoch_bumps", "mac.cand_lookups", "grid.dispatch_wait_s", "grid.tail_s",
		"grid.http.empty_polls"} {
		v[name] = s[name] / passes
	}
	v["mac.cand_hit_ratio"] = div(s["mac.cand_hits"], s["mac.cand_lookups"])
	v["core.build_us"] = percentile(t.dists["core.build_us"], 50)

	for _, name := range []string{"grid.session_new_ms", "grid.session_results_ms", "grid.scenario_load_ms"} {
		v[name] = sum(t.dists[name]) / passes
	}
	for _, name := range []string{"grid.complete_us", "grid.spec_hash_us", "grid.repkey_us", "grid.disk_put_us",
		"grid.mem_put_us", "grid.server.task_us", "grid.server.result_us"} {
		v[name+".p50"] = percentile(t.dists[name], 50)
	}
	for _, name := range []string{"grid.cache_get_us", "grid.disk_get_us", "grid.http.task_rtt_us",
		"grid.http.result_rtt_us", "grid.worker.exec_ms"} {
		v[name+".p50"] = percentile(t.dists[name], 50)
		v[name+".p99"] = percentile(t.dists[name], 99)
	}
	v["grid.cache_hit_ratio"] = div(s["grid.cache_hits"], s["grid.cache_gets"])
	claims := s["grid.http.claims"]
	v["grid.http.claim_hit_ratio"] = div(claims, claims+s["grid.http.empty_polls"])
	v["grid.http.bytes_per_task"] = div(s["grid.http.task_bytes"]+s["grid.http.result_bytes"], claims)

	budget := time.Duration(float64(workers) * sum(walls) * float64(time.Second))
	v["grid.worker_idle_frac"] = div(float64(t.charges["idle"]), float64(budget))
	if d := t.charges["dispatch"]; d > 0 { // HTTP lanes: polls, sleeps and claim round trips
		v["grid.dispatch_wait_s"] = d.Seconds() / passes
	}
	return v
}

// acctLayers are the rows of the layer accounting, in print order.
var acctLayers = []string{"core", "mac", "mac-charisma", "mac-dtdma", "mac-drma", "mac-rama", "mac-rmav",
	"sim", "multicell", "worker.rep", "grid", "grid.cache", "grid.disk", "net-http", "idle"}

// printAccounting writes the self-time table of the traced passes: each
// layer's lane-seconds plus an unattributed row, summing to workers × the
// traced wall time. It returns the unattributed share.
func (t *tracer) printAccounting(w io.Writer, workload string, wall float64) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	budget := float64(workers) * wall
	fmt.Fprintf(w, "layer accounting, %s: %d lanes × %.3f s traced = %.3f lane-seconds\n", workload, workers, wall, budget)
	attributed := 0.0
	for _, layer := range acctLayers {
		d := t.charges[layer].Seconds()
		if d == 0 {
			continue
		}
		attributed += d
		fmt.Fprintf(w, "  %-14s %10.3f s %7.2f%%\n", layer, d, 100*d/budget)
	}
	un := budget - attributed
	frac := 0.0
	if budget > 0 {
		frac = un / budget
	}
	fmt.Fprintf(w, "  %-14s %10.3f s %7.2f%%\n", "unattributed", un, 100*frac)
	if frac > 0.10 {
		fmt.Fprintf(w, "bench: warning: %s: %.1f%% of lane time is unattributed\n", workload, 100*frac)
	}
	return frac
}

// writeSpans writes the spans as JSONL. Spans recorded where the caller is
// unknown (cache and disk operations, coordinator phases) are given the
// innermost span enclosing them that shares their trace id or is a
// coordinator phase.
func (t *tracer) writeSpans(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	byTrace := map[string][]int{}
	var coord []int
	for i, sp := range t.spans {
		if sp.Trace != "" {
			byTrace[sp.Trace] = append(byTrace[sp.Trace], i)
		}
		switch sp.Name {
		case "grid.scenario_load", "grid.session_new", "grid.session_results":
			coord = append(coord, i)
		}
	}
	for i := range t.spans {
		sp := &t.spans[i]
		if sp.Parent != 0 {
			continue
		}
		cands := coord
		if sp.Trace != "" {
			cands = append(slices.Clip(byTrace[sp.Trace]), coord...)
		}
		best := -1
		for _, j := range cands {
			c := t.spans[j]
			if j == i || c.Start > sp.Start || c.End < sp.End || (c.Start == sp.Start && c.End == sp.End && j > i) {
				continue
			}
			if best < 0 || c.End-c.Start < t.spans[best].End-t.spans[best].Start {
				best = j
			}
		}
		if best >= 0 {
			sp.Parent = t.spans[best].ID
		}
	}
	sort.Slice(t.spans, func(a, b int) bool { return t.spans[a].Start < t.spans[b].Start })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, sp := range t.spans {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if t.dropped > 0 {
		fmt.Fprintf(os.Stderr, "bench: %d spans beyond the %d kept were not written\n", t.dropped, maxSpans)
	}
	return f.Close()
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }
