package multicell

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"charisma/internal/core"
	"charisma/internal/mac"
	"charisma/internal/phy"
	"charisma/internal/run"
)

func quickParams() Params {
	p := DefaultParams()
	p.NumVoice = 30
	p.WarmupSec = 1
	p.DurationSec = 6
	return p
}

func TestDefaultParamsValid(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestValidation: every rejection is a *core.ValidationError naming the
// offending field, substrate blocks included, and a NaN or ±Inf in any
// float field (found by reflection, so new fields are covered) is
// rejected rather than run.
func TestValidation(t *testing.T) {
	for field, mutate := range map[string]func(*Params){
		"Cells":                func(p *Params) { p.Cells = 1 },
		"Protocol":             func(p *Params) { p.Protocol = core.ProtoRMAV },
		"NumVoice+NumData":     func(p *Params) { p.NumVoice, p.NumData = 0, 0 },
		"DecisionPeriodFrames": func(p *Params) { p.DecisionPeriodFrames = 0 },
		"HysteresisDB":         func(p *Params) { p.HysteresisDB = -1 },
		"Channel":              func(p *Params) { p.Channel.ShadowCoherenceSec = 0 },
		"PHY":                  func(p *Params) { p.PHY.CSIMargin = 2 },
		"MAC":                  func(p *Params) { p.MAC.PermVoice = 0 },
		"WarmupSec":            func(p *Params) { p.WarmupSec = 1e308 },
		"DurationSec":          func(p *Params) { p.DurationSec = 1e308 },
	} {
		p := DefaultParams()
		mutate(&p)
		var ve *core.ValidationError
		if err := p.Validate(); !errors.As(err, &ve) || ve.Field != field {
			t.Errorf("%s: err %v, want a *core.ValidationError for the field", field, err)
		}
	}
	p := DefaultParams()
	p.Protocol = "aloha"
	var ve *core.ValidationError
	if err := p.Validate(); !errors.As(err, &ve) || ve.Field != "Protocol" {
		t.Errorf("unknown protocol: err %v, want a *core.ValidationError for Protocol", err)
	}
	// A deployment's cells follow every single-cell rule: populations are
	// non-negative, RMAV is refused in any spelling, and a partly set
	// substrate block survives WithDefaults to be rejected by name.
	for name, c := range map[string]struct {
		mutate func(*Params)
		field  string
	}{
		"negative NumVoice": {func(p *Params) { p.NumVoice, p.NumData = -5, 10 }, "NumVoice"},
		"negative NumData":  {func(p *Params) { p.NumData = -1 }, "NumData"},
		"RMAV":              {func(p *Params) { p.Protocol = "RMAV" }, "Protocol"},
		"padded rmav":       {func(p *Params) { p.Protocol = " rmav " }, "Protocol"},
		"partial PHY":       {func(p *Params) { p.PHY = phy.Params{MeanSNRdB: -20} }, "PHY"},
		"partial MAC":       {func(p *Params) { p.MAC = mac.Config{PermVoice: 0.9} }, "MAC"},
		"negative warm-up":  {func(p *Params) { p.WarmupSec = -5 }, "WarmupSec"},
		"negative duration": {func(p *Params) { p.DurationSec = -1 }, "DurationSec"},
		"negative Doppler":  {func(p *Params) { p.Channel.DopplerHz = -100 }, "Channel"},
	} {
		p := quickParams()
		c.mutate(&p)
		_, runErr := Run(context.Background(), p)
		for _, err := range []error{p.WithDefaults().Validate(), runErr} {
			if !errors.As(err, &ve) || ve.Field != c.field {
				t.Errorf("%s: err %v, want a *core.ValidationError for %s", name, err, c.field)
			}
		}
	}

	// Zero, not a negative value, selects the 20 s window and the 2 s
	// warm-up.
	if got := (Params{}).WithDefaults(); got.DurationSec != 20 || got.WarmupSec != 2 {
		t.Errorf("zero windows defaulted to %v s after %v s, want 20 s after 2 s", got.DurationSec, got.WarmupSec)
	}

	n := 0
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		var paths []string
		collectFloats(reflect.ValueOf(DefaultParams()), "", func(path string, _ reflect.Value) { paths = append(paths, path) })
		for _, want := range paths {
			p := DefaultParams()
			collectFloats(reflect.ValueOf(&p).Elem(), "", func(path string, f reflect.Value) {
				if path == want {
					f.SetFloat(bad)
				}
			})
			if err := p.Validate(); !errors.As(err, &ve) {
				t.Errorf("%s = %v: err %v, want a *core.ValidationError", want, bad, err)
			}
			n++
		}
	}
	if n < 3*25 {
		t.Fatalf("checked only %d non-finite cases", n)
	}
}

// TestValidateProtocolSpellings: a deployment refuses RMAV in every
// spelling the protocol-name table maps to it, with a typed error naming
// Protocol, accepts every spelling of the fixed-frame protocols, and
// validating allocates nothing.
func TestValidateProtocolSpellings(t *testing.T) {
	for _, name := range []string{"rmav", "RMAV", " Rmav\n", "\trmav"} {
		p := DefaultParams()
		p.Protocol = name
		var ve *core.ValidationError
		if err := p.Validate(); !errors.As(err, &ve) || ve.Field != "Protocol" {
			t.Errorf("%q: err %v, want a *core.ValidationError for Protocol", name, err)
		}
	}
	for _, name := range []string{"charisma", "CHARISMA", "rama", "drma", "d-tdma/fr", "dtdma/fr", "d-tdma-fr", "D-TDMA/VR", "dtdma/vr", "d-tdma-vr"} {
		p := DefaultParams()
		p.Protocol = name
		if err := p.Validate(); err != nil {
			t.Errorf("%q: %v", name, err)
		}
	}
	p := DefaultParams()
	if n := testing.AllocsPerRun(100, func() {
		if p.Validate() != nil {
			t.Fatal("defaults rejected")
		}
	}); n != 0 {
		t.Errorf("Validate: %.0f allocs, want 0", n)
	}
}

// collectFloats calls fn with the path and value of every float64
// reachable from v: struct fields, recursively, and slice elements.
func collectFloats(v reflect.Value, path string, fn func(path string, f reflect.Value)) {
	switch v.Kind() {
	case reflect.Float64:
		fn(path, v)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			collectFloats(v.Field(i), path+"."+v.Type().Field(i).Name, fn)
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			collectFloats(v.Index(i), fmt.Sprintf("%s[%d]", path, i), fn)
		}
	}
}

func TestRunProducesAggregateMetrics(t *testing.T) {
	r, err := Run(context.Background(), quickParams())
	if err != nil {
		t.Fatal(err)
	}
	if r.VoiceGenerated == 0 {
		t.Fatal("no voice traffic")
	}
	if len(r.PerCell) != 2 {
		t.Fatalf("%d per-cell results", len(r.PerCell))
	}
	var sum uint64
	for _, c := range r.PerCell {
		sum += c.VoiceGenerated
	}
	if sum != r.VoiceGenerated {
		t.Fatal("aggregate does not equal per-cell sum")
	}
	if r.VoiceLossRate < 0 || r.VoiceLossRate > 1 {
		t.Fatalf("loss %v out of range", r.VoiceLossRate)
	}
}

func TestHandoffsHappen(t *testing.T) {
	p := quickParams()
	p.DurationSec = 10
	d, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	// With 1 s shadow coherence and a 4 dB hysteresis over 11 s, users
	// must have crossed cells.
	if d.Handoffs() == 0 {
		t.Fatal("no handoffs in 11 s of shadow evolution")
	}
}

func TestDisableHandoffFreezesAttachment(t *testing.T) {
	p := quickParams()
	p.DisableHandoff = true
	d, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if d.Handoffs() != 0 {
		t.Fatal("handoffs executed despite DisableHandoff")
	}
}

// The channel-quality handoff rule is the point of the extension: it must
// beat static attachment on voice loss under load.
func TestHandoffBeatsStaticAttachment(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	run := func(disable bool) float64 {
		p := DefaultParams()
		p.NumVoice = 160            // ~80 per cell: near single-cell capacity
		p.Channel.ShadowSigmaDB = 8 // deep shadowing: stuck users suffer
		p.WarmupSec = 1
		p.DurationSec = 12
		p.DisableHandoff = disable
		r, err := Run(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		return r.VoiceLossRate
	}
	withHO := run(false)
	static := run(true)
	if withHO >= static {
		t.Fatalf("handoff (%.4f) not better than static attachment (%.4f)", withHO, static)
	}
}

// TestExactlyOneLiveCloneInvariant: once every clone is materialized,
// exactly one clone of each user carries traffic sources, after build and
// after a run.
func TestExactlyOneLiveCloneInvariant(t *testing.T) {
	p := quickParams()
	d, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	check := func() {
		for c := range d.cells {
			d.cells[c].sys.MaterializeAll()
		}
		for k := range d.users {
			live := 0
			for c := range d.cells {
				if st := d.cells[c].sys.Stations[k]; st.Voice() != nil || st.Data() != nil {
					live++
				}
			}
			if live != 1 {
				t.Fatalf("user %d has %d live clones", k, live)
			}
		}
	}
	check()
	if _, err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	check()
}

// TestDeferredClonesMatchEager: a cell's System builds every clone
// deferred, to be materialized at its first wake or when the handoff rule
// first reads its link. Materializing and re-bucketing every clone right
// after build gives the state of a cell whose clones were all built up
// front, and the run from there must equal Run's: the aggregate, the
// handoffs and every cell, with handoff on and off. A one-frame decision
// period without hysteresis moves most users before their moved clone's
// first wake. Every cell's registry holds after both runs.
func TestDeferredClonesMatchEager(t *testing.T) {
	handoffs := uint64(0)
	for seed := int64(1); seed <= 5; seed++ {
		for _, noHandoff := range []bool{false, true} {
			p := quickParams()
			p.Seed = seed
			p.NumVoice, p.NumData = 24, 6
			p.DecisionPeriodFrames, p.HysteresisDB = 1, 0
			p.DisableHandoff = noHandoff
			p.WarmupSec, p.DurationSec = 0.2, 1
			run := func(eager bool) Result {
				d, err := New(p)
				if err != nil {
					t.Fatal(err)
				}
				if eager {
					for c := range d.cells {
						sys := d.cells[c].sys
						sys.MaterializeAll()
						for _, st := range sys.Stations {
							sys.Reindex(st)
						}
					}
				}
				r, err := d.Run(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				for c := range d.cells {
					if err := d.cells[c].sys.VerifyRegistry(); err != nil {
						t.Fatalf("seed %d, handoff off %v, clones built up front %v: cell %d: %v", seed, noHandoff, eager, c, err)
					}
				}
				return r
			}
			want, err := Run(context.Background(), p)
			if err != nil {
				t.Fatal(err)
			}
			for _, eager := range []bool{false, true} {
				if err := sameResult(run(eager), want); err != nil {
					t.Fatalf("seed %d, handoff off %v, clones built up front %v: %v", seed, noHandoff, eager, err)
				}
			}
			handoffs += want.Handoffs
		}
	}
	if handoffs == 0 {
		t.Fatal("no handoff in any run: the deferred handoff path was not exercised")
	}
}

// TestShardedDeterminismAcrossWorkerCounts pins the sharding contract:
// cells advance on their own goroutines between decision epochs, and the
// result must be byte-identical to the sequential path for any shard
// count — deployment aggregate, handoffs, and every per-cell result.
func TestShardedDeterminismAcrossWorkerCounts(t *testing.T) {
	p := quickParams()
	p.Cells = 4
	p.NumVoice, p.NumData = 40, 4
	p.DurationSec = 4
	var base Result
	for i, w := range []int{1, 2, runtime.NumCPU()} {
		pi := p
		pi.Workers = w
		r, err := Run(context.Background(), pi)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if i == 0 {
			base = r
			continue
		}
		if r.Result != base.Result || r.Handoffs != base.Handoffs {
			t.Fatalf("workers=%d: aggregate differs from sequential", w)
		}
		if len(r.PerCell) != len(base.PerCell) {
			t.Fatalf("workers=%d: %d cells, want %d", w, len(r.PerCell), len(base.PerCell))
		}
		for c := range r.PerCell {
			if r.PerCell[c] != base.PerCell[c] {
				t.Fatalf("workers=%d: cell %d differs from sequential", w, c)
			}
		}
	}
}

// TestRegistryInvariantUnderSharding checks the bucket partition of every
// cell's station registry while cells advance concurrently (run with -race
// in CI, this also exercises the epoch barrier).
func TestRegistryInvariantUnderSharding(t *testing.T) {
	p := quickParams()
	p.Cells = 3
	p.NumVoice, p.NumData = 30, 3
	p.DurationSec = 3
	p.Workers = runtime.NumCPU()
	d, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	for c := range d.cells {
		if err := d.cells[c].sys.VerifyRegistry(); err != nil {
			t.Fatalf("cell %d: %v", c, err)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a, err := Run(context.Background(), quickParams())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), quickParams())
	if err != nil {
		t.Fatal(err)
	}
	if a.VoiceLossRate != b.VoiceLossRate || a.Handoffs != b.Handoffs {
		t.Fatal("deployment not deterministic")
	}
}

// Regression: a handoff detaches a clone's traffic sources while DRMA's
// protocol-internal pending list may still reference the station; the next
// frame of the old cell must scrub the orphaned grant instead of
// nil-dereferencing the detached sources.
func TestHandoffWithDRMAPendingGrants(t *testing.T) {
	p := quickParams()
	p.Protocol = core.ProtoDRMA
	p.Cells = 4
	p.NumVoice, p.NumData = 60, 12
	p.HysteresisDB = 0 // maximize handoff churn
	p.DecisionPeriodFrames = 4
	p.DurationSec = 6
	d, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if d.Handoffs() == 0 {
		t.Fatal("scenario produced no handoffs; regression not exercised")
	}
}

func TestWorksWithFixedPHYProtocol(t *testing.T) {
	p := quickParams()
	p.Protocol = core.ProtoDTDMAFR
	r, err := Run(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if r.VoiceGenerated == 0 {
		t.Fatal("no traffic under D-TDMA/FR cells")
	}
}

func TestHysteresisDampensHandoffs(t *testing.T) {
	run := func(hyst float64) uint64 {
		p := quickParams()
		p.HysteresisDB = hyst
		d, err := New(p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		return d.Handoffs()
	}
	loose, tight := run(0), run(10)
	if tight >= loose {
		t.Fatalf("hysteresis 10 dB (%d handoffs) not below 0 dB (%d)", tight, loose)
	}
}

func TestRunReplicatedSingleMatchesRun(t *testing.T) {
	p := quickParams()
	p.DurationSec = 3
	single, err := Run(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	// Replication metadata flows only from the aggregation layer: a bare
	// deployment run carries none, RunReplicated stamps it.
	if single.Reps.Replications != 0 {
		t.Fatalf("Run carries rep metadata: %+v", single.Reps)
	}
	rep, err := RunReplicated(context.Background(), p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Reps.Replications != 1 {
		t.Fatalf("RunReplicated(1) Replications = %d, want 1", rep.Reps.Replications)
	}
	rep.Result.Reps = single.Result.Reps
	if rep.Result != single.Result || rep.Handoffs != single.Handoffs {
		t.Fatal("1-replication RunReplicated differs from Run beyond rep metadata")
	}
}

func TestRunReplicatedAggregates(t *testing.T) {
	p := quickParams()
	p.DurationSec = 3
	const reps = 3
	r, err := RunReplicated(context.Background(), p, reps)
	if err != nil {
		t.Fatal(err)
	}
	if r.Reps.Replications != reps {
		t.Fatalf("Replications = %d, want %d", r.Reps.Replications, reps)
	}
	if len(r.PerCell) != p.Cells {
		t.Fatalf("%d per-cell results, want %d", len(r.PerCell), p.Cells)
	}
	for c, pc := range r.PerCell {
		if pc.Reps.Replications != reps {
			t.Fatalf("cell %d Replications = %d, want %d", c, pc.Reps.Replications, reps)
		}
	}
	single, err := Run(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if r.VoiceGenerated <= single.VoiceGenerated {
		t.Fatal("pooled counters not larger than a single deployment")
	}
	// Determinism: replication is a fixed fold over fixed seeds.
	r2, err := RunReplicated(context.Background(), p, reps)
	if err != nil {
		t.Fatal(err)
	}
	if r.Result != r2.Result || r.Handoffs != r2.Handoffs {
		t.Fatal("replicated multicell run not deterministic")
	}
}

// Regression: the replicated deployment-level throughput must stay in the
// per-cell-frame normalization Run uses — pooling across reps must not
// shrink it by the cell count — and CollisionRate must be present for
// single runs exactly as for aggregates.
func TestRunReplicatedThroughputNormalization(t *testing.T) {
	p := quickParams()
	p.NumVoice, p.NumData = 10, 10
	p.DurationSec = 3
	single, err := Run(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if single.DataThroughputPerFrame <= 0 {
		t.Fatal("no data throughput in single run")
	}
	if single.ReqCollisions > 0 && single.CollisionRate == 0 {
		t.Fatal("single-run CollisionRate missing despite collisions")
	}
	rep, err := RunReplicated(context.Background(), p, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Exact invariant: pooled throughput is total delivered over total
	// per-cell frames, in the same normalization Run uses. Recompute it
	// from the three individual replications.
	var delivered uint64
	var frames float64
	for i := 0; i < 3; i++ {
		pi := p
		pi.Seed = run.RepSeed(p.Seed, i)
		ri, err := Run(context.Background(), pi)
		if err != nil {
			t.Fatal(err)
		}
		delivered += ri.DataDelivered
		frames += ri.Frames
	}
	want := float64(delivered) / (frames / float64(p.Cells))
	if math.Abs(rep.DataThroughputPerFrame-want) > 1e-9 {
		t.Fatalf("replicated throughput %v, want %v (per-cell-frame normalization)",
			rep.DataThroughputPerFrame, want)
	}
	// Sanity: the single run must be on the same scale (a cells-factor bug
	// would halve one of them).
	if single.DataThroughputPerFrame <= 0 || want <= 0 {
		t.Fatal("throughputs vanished")
	}
}
