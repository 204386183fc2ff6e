package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"charisma/internal/core"
	"charisma/internal/experiments"
	"charisma/internal/grid"
	"charisma/internal/rng"
	"charisma/internal/run"
	"charisma/internal/scengen"
)

// sizes fixes how much work one pass does. The pins in ledger.json hold for
// fullSize only; the smoke test runs a toy size.
type sizes struct {
	setups    int     // set-ups per run; setup_s is their median
	warmupSec float64 // panel warm-up per replication
	voiceSec  float64 // panel-voice measured seconds per replication
	dataSec   float64 // panel-data measured seconds per replication
	panelReps int     // replications per panel point
	corpusN   int     // corpus entries
}

// fullSize keeps one pass at 1.5–3 s on the 2-vCPU reference machine, so a
// 12 s timed phase holds several passes to take a median over, and the
// corpus large enough that its cost varies little between seeds.
var fullSize = sizes{setups: 3, warmupSec: 2, voiceSec: 8, dataSec: 18, panelReps: 2, corpusN: 1500}

// corpusShapeSeed pins the corpus's composition (protocols, populations,
// durations, cell counts). -seed re-derives every entry's simulation seed
// instead of re-drawing the composition: at 2000 entries, the simulation
// cost of corpora drawn from different generator seeds differed by up to
// 12%, which would add to the host's noise in every run-to-run spread.
const corpusShapeSeed = 20260808

func workloadNames() []string {
	return []string{"panel-voice", "panel-data", "corpus-http", "corpus-warm"}
}

// workload is one benchmark workload: its set-up builds the inputs from the
// seed and runs one untimed warm-up pass, after which pass repeats the
// timed unit of work. A nil tracer means an untraced (end-to-end) pass.
type workload interface {
	// setup (re)builds the inputs and returns the warm-up pass's ledger,
	// the reference every timed pass must reproduce.
	setup(ctx context.Context, tr *tracer) (string, error)
	// pass runs the timed unit of work once and returns its ledger.
	pass(ctx context.Context, tr *tracer) (string, error)
	// work reports the replication results one pass delivers and their
	// simulated seconds (warm-up plus measured window, times cells).
	work() (reps int, simSec float64)
	// probe times the grid's content addressing (and, where the workload
	// writes to a cache, the cache tiers' puts) on the workload's own
	// inputs, after the traced passes.
	probe(tr *tracer) error
	// serialWeight is how many replication lanes stand idle while the
	// coordinator runs a serial phase (loading, creating or aggregating a
	// session): all of them for the loopback pool, which starts after the
	// session exists; none for HTTP workers, which keep polling and account
	// their own idle time.
	serialWeight() int
	close()
}

func newWorkload(name string, seed int64, sz sizes, dir string) (workload, error) {
	switch name {
	case "panel-voice":
		return newPanels(seed, sz, sz.voiceSec, "fig11a")
	case "panel-data":
		return newPanels(seed, sz, sz.dataSec, "fig12a", "fig12b")
	case "corpus-http":
		return &corpusHTTP{corpus: corpus{seed: seed, n: sz.corpusN, dir: dir}}, nil
	case "corpus-warm":
		return &corpusWarm{corpus: corpus{seed: seed, n: sz.corpusN, dir: dir}}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// panels runs figure panels through experiments.RunPanel, one grid session
// per panel sharing one in-memory cache, as charisma-experiments does.
type panels struct {
	specs  []experiments.PanelSpec
	rc     experiments.RunConfig
	points [][]grid.Point // per panel, as RunPanel submits them
	keys   []keyer
}

func newPanels(seed int64, sz sizes, durSec float64, ids ...string) (*panels, error) {
	p := &panels{rc: experiments.RunConfig{
		Seed: seed, WarmupSec: sz.warmupSec, DurationSec: durSec,
		Replications: sz.panelReps, Workers: workers,
	}}
	for _, id := range ids {
		var spec experiments.PanelSpec
		for _, s := range experiments.PanelSpecs() {
			if s.ID == id {
				spec = s
			}
		}
		pts := panelPoints(spec, p.rc)
		k, err := newKeyer(pts)
		if err != nil {
			return nil, err
		}
		p.specs = append(p.specs, spec)
		p.points = append(p.points, pts)
		p.keys = append(p.keys, k)
	}
	return p, nil
}

// panelPoints rebuilds the sweep points RunPanel submits for spec, in its
// order (protocols × sweep values). The traced pass replays them through its
// own session; its ledger matching RunPanel's proves they are the same.
func panelPoints(spec experiments.PanelSpec, rc experiments.RunConfig) []grid.Point {
	xs := experiments.DefaultVoiceSweep()
	if spec.Figure != 11 {
		xs = experiments.DefaultDataSweep()
	}
	var pts []grid.Point
	for _, proto := range core.Protocols() {
		for _, x := range xs {
			sc := core.DefaultScenario(proto)
			sc.NumVoice, sc.NumData = x, spec.Fixed
			if spec.Figure != 11 {
				sc.NumVoice, sc.NumData = spec.Fixed, x
			}
			sc.UseQueue = spec.Queue
			sc.Seed = rc.Seed
			sc.WarmupSec, sc.DurationSec = rc.WarmupSec, rc.DurationSec
			pts = append(pts, grid.Point{Spec: grid.ScenarioSpec(sc), Replications: rc.Replications})
		}
	}
	return pts
}

func (p *panels) setup(ctx context.Context, _ *tracer) (string, error) { return p.pass(ctx, nil) }

func (p *panels) pass(ctx context.Context, tr *tracer) (string, error) {
	if tr != nil {
		rec := newRecorder(tr.cache(grid.NewMemCache(), "grid.mem_put_us"))
		for i, pts := range p.points {
			if _, err := tr.runLocal(ctx, pts, rec, p.keys[i]); err != nil {
				return "", err
			}
		}
		return rec.digest()
	}
	rec := newRecorder(grid.NewMemCache())
	rc := p.rc
	rc.Cache = rec
	for _, spec := range p.specs {
		if _, err := experiments.RunPanel(ctx, spec, rc); err != nil {
			return "", err
		}
	}
	return rec.digest()
}

func (p *panels) work() (int, float64) {
	var all []grid.Point
	for _, pts := range p.points {
		all = append(all, pts...)
	}
	return workOf(all)
}

func (p *panels) probe(tr *tracer) error {
	for _, pts := range p.points {
		if err := tr.probeKeys(pts); err != nil {
			return err
		}
	}
	return nil
}

func (p *panels) serialWeight() int { return workers }
func (p *panels) close()            {}

// corpus is a scengen corpus written as a JSONL scenario file; the program
// loads it through the same path charisma-scen and -scenario use.
type corpus struct {
	seed int64
	n    int
	dir  string
	path string
	pts  []grid.Point // as loaded back from the file
	keys keyer
}

// generate writes the corpus file: the pinned composition, with every
// entry's simulation seed derived from the workload seed.
func (c *corpus) generate() error {
	pts := scengen.Generate(scengen.Config{Seed: corpusShapeSeed, Count: c.n, MaxCells: 3})
	for i := range pts {
		seed := rng.SeedForIndexed(c.seed, "bench-corpus", i)
		switch sp := pts[i].Spec; sp.Kind {
		case grid.KindScenario:
			sc := *sp.Scenario
			sc.Seed = seed
			pts[i].Spec = grid.ScenarioSpec(sc)
		case grid.KindMulticell:
			mp := *sp.Multicell
			mp.Seed = seed
			pts[i].Spec = grid.MulticellSpec(mp)
		}
	}
	c.path = filepath.Join(c.dir, "corpus.jsonl")
	f, err := os.Create(c.path)
	if err != nil {
		return err
	}
	if err := grid.WriteScenarioFile(f, pts); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if c.pts, err = grid.LoadScenarioPath(c.path); err != nil {
		return err
	}
	c.keys, err = newKeyer(c.pts)
	return err
}

// load reads the corpus file back, as the timed pass must.
func (c *corpus) load(tr *tracer) ([]grid.Point, error) {
	var pts []grid.Point
	err := tr.serialPhase("grid.scenario_load", "grid.scenario_load_ms", func() (err error) {
		pts, err = grid.LoadScenarioPath(c.path)
		return err
	})
	return pts, err
}

func (c *corpus) work() (int, float64)   { return workOf(c.pts) }
func (c *corpus) probe(tr *tracer) error { return tr.probeKeys(c.pts) }

// corpusHTTP sends the corpus through an httptest grid.Server to two HTTP
// grid.Workers with one lane each; the coordinator simulates nothing.
type corpusHTTP struct {
	corpus
	srv     *grid.Server
	hs      *httptest.Server
	stop    context.CancelFunc
	stopped chan error
}

func (c *corpusHTTP) setup(ctx context.Context, tr *tracer) (string, error) {
	c.close()
	if err := c.generate(); err != nil {
		return "", err
	}
	c.srv = grid.NewServer()
	c.srv.LeaseTTL = 30 * time.Second
	var h http.Handler = c.srv
	if tr != nil {
		h = tr.handler(c.srv)
	}
	c.hs = httptest.NewServer(h)
	wctx, stop := context.WithCancel(context.Background())
	c.stop, c.stopped = stop, make(chan error, workers)
	for i := 0; i < workers; i++ {
		var rt http.RoundTripper = http.DefaultTransport.(*http.Transport).Clone()
		if tr != nil {
			rt = tr.lane(rt, &c.keys)
		}
		w := grid.Worker{
			Coordinator: c.hs.URL, ID: fmt.Sprintf("bench-%d", i), Parallel: 1,
			Poll: 5 * time.Millisecond, Client: &http.Client{Timeout: 30 * time.Second, Transport: rt},
		}
		go func() { c.stopped <- w.Run(wctx) }()
	}
	// The reference ledger comes from the in-process loopback pool, so every
	// timed pass proves HTTP delivers the same bytes.
	rec := newRecorder(grid.NewMemCache())
	if _, _, err := experiments.RunScenarioFile(ctx, c.path, 0, experiments.RunConfig{Workers: workers, Cache: rec}); err != nil {
		return "", err
	}
	return rec.digest()
}

func (c *corpusHTTP) pass(ctx context.Context, tr *tracer) (string, error) {
	if tr == nil {
		rec := newRecorder(grid.NewMemCache())
		rc := experiments.RunConfig{Workers: workers, Cache: rec, Server: c.srv, RemoteOnly: true}
		if _, _, err := experiments.RunScenarioFile(ctx, c.path, 0, rc); err != nil {
			return "", err
		}
		return rec.digest()
	}
	rec := newRecorder(tr.cache(grid.NewMemCache(), "grid.mem_put_us"))
	pts, err := c.load(tr)
	if err != nil {
		return "", err
	}
	if err := tr.runRemote(ctx, pts, rec, c.srv); err != nil {
		return "", err
	}
	return rec.digest()
}

func (c *corpusHTTP) serialWeight() int { return 0 }

// close stops the workers (410 from the closed server, then cancellation)
// and waits for them before shutting the HTTP server down.
func (c *corpusHTTP) close() {
	if c.hs == nil {
		return
	}
	c.srv.Close()
	c.stop()
	for i := 0; i < workers; i++ {
		if err := <-c.stopped; err != nil && !errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "bench: grid worker:", err)
		}
	}
	c.hs.Close()
	c.hs = nil
}

// corpusWarm re-walks the corpus against a filled disk cache: each walk
// builds a fresh grid.NewCache(dir), so every result is served by the disk
// tier and nothing is simulated.
type corpusWarm struct {
	corpus
	cacheDir string
	last     *recorder // the latest traced walk, for the put probe
}

func (c *corpusWarm) setup(ctx context.Context, _ *tracer) (string, error) {
	if err := c.generate(); err != nil {
		return "", err
	}
	c.cacheDir = filepath.Join(c.dir, "cache")
	if err := os.RemoveAll(c.cacheDir); err != nil {
		return "", err
	}
	rec := newRecorder(grid.NewCache(c.cacheDir))
	if _, _, err := experiments.RunScenarioFile(ctx, c.path, 0, experiments.RunConfig{Workers: workers, Cache: rec}); err != nil {
		return "", err
	}
	return rec.digest()
}

func (c *corpusWarm) pass(ctx context.Context, tr *tracer) (string, error) {
	var stats grid.SweepStats
	var rec *recorder
	if tr == nil {
		rec = newRecorder(grid.NewCache(c.cacheDir))
		rc := experiments.RunConfig{Workers: workers, Cache: rec, Stats: &stats}
		if _, _, err := experiments.RunScenarioFile(ctx, c.path, 0, rc); err != nil {
			return "", err
		}
	} else {
		// grid.NewCache(dir) is exactly this stack, with each tier timed.
		disk := tr.disk(grid.NewDiskCache(c.cacheDir, nil))
		rec = newRecorder(tr.cache(grid.Tiered(grid.NewMemCache(), disk), ""))
		pts, err := c.load(tr)
		if err != nil {
			return "", err
		}
		if stats.Simulated, err = tr.runLocal(ctx, pts, rec, c.keys); err != nil {
			return "", err
		}
		c.last = rec
	}
	if stats.Simulated > 0 {
		return "", fmt.Errorf("warm walk simulated %d replications; the disk cache should serve them all", stats.Simulated)
	}
	return rec.digest()
}

func (c *corpusWarm) probe(tr *tracer) error {
	if err := c.corpus.probe(tr); err != nil {
		return err
	}
	if c.last == nil {
		return nil
	}
	return tr.probePuts(c.last.results(), filepath.Join(c.dir, "probe"))
}

func (c *corpusWarm) serialWeight() int { return workers }
func (c *corpusWarm) close()            {}

// workOf counts the replication results a point list delivers and their
// simulated seconds, warm-up included, per cell.
func workOf(pts []grid.Point) (reps int, simSec float64) {
	for _, pt := range pts {
		n := max(1, pt.Replications)
		var sec float64
		switch sp := pt.Spec; sp.Kind {
		case grid.KindScenario:
			sc := sp.Scenario.WithDefaults()
			sec = sc.WarmupSec + sc.DurationSec
		case grid.KindMulticell:
			mp := sp.Multicell.WithDefaults()
			sec = (mp.WarmupSec + mp.DurationSec) * float64(mp.Cells)
		}
		reps += n
		simSec += float64(n) * sec
	}
	return reps, simSec
}

// keyer derives the RepKey of (point, rep) for one point list: the trace id
// of every span about that replication.
type keyer struct {
	hashes []string
	seeds  []int64
}

func newKeyer(pts []grid.Point) (keyer, error) {
	k := keyer{hashes: make([]string, len(pts)), seeds: make([]int64, len(pts))}
	for i, pt := range pts {
		h, err := pt.Spec.Hash()
		if err != nil {
			return keyer{}, err
		}
		k.hashes[i], k.seeds[i] = h, pt.Spec.BaseSeed()
	}
	return k, nil
}

func (k keyer) key(point, rep int) string {
	if point < 0 || point >= len(k.hashes) {
		return ""
	}
	return grid.RepKey(k.hashes[point], run.RepSeed(k.seeds[point], rep))
}
