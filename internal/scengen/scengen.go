// Package scengen generates randomized-but-reproducible scenario corpora:
// populations, speed mixes, voice/data traffic blends and cell counts far
// outside the paper's hand-written operating points, for the invariant
// harness and the sweep grid to chew through.
//
// Every corpus entry i draws from its own substream,
// rng.DeriveIndexed(cfg.Seed, "scengen", i), so entry i depends only on
// (Seed, i): regenerating a corpus reproduces it byte-for-byte, and
// growing Count extends a corpus without disturbing existing entries.
package scengen

import (
	"fmt"

	"charisma/internal/channel"
	"charisma/internal/core"
	"charisma/internal/grid"
	"charisma/internal/multicell"
	"charisma/internal/rng"
)

// Config bounds the generator's draws. The zero value (plus a Count) is a
// usable single-cell corpus.
type Config struct {
	// Seed roots every substream.
	Seed int64
	// Count is the number of corpus entries to generate.
	Count int
	// MaxVoice and MaxData cap the per-entry station populations
	// (defaults 40 and 12; entries draw uniformly from [0, max]).
	MaxVoice int
	MaxData  int
	// MaxCells enables multi-cell entries when ≥ 2: a MulticellFrac
	// fraction of entries become deployments with 2..MaxCells cells.
	MaxCells int
	// MulticellFrac is the probability an entry is a deployment
	// (default 0.2 when MaxCells ≥ 2; ignored otherwise).
	MulticellFrac float64
	// MinDurationSec and MaxDurationSec bracket the measured window
	// (defaults 0.5 and 1.5 — corpus entries are smoke-sized).
	MinDurationSec float64
	MaxDurationSec float64
	// Protocols restricts the protocol pool (default: all six).
	Protocols []string
}

// ConfigError is the typed rejection Config.Validate returns: Field names
// the offending Config field, Reason says why it was rejected.
type ConfigError struct {
	Field  string
	Reason string
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("scengen: invalid %s: %s", e.Field, e.Reason)
}

// Validate rejects configurations the generator cannot draw from: negative
// counts or population caps, and a multi-cell fraction that is not a
// probability. Every rejection is a *ConfigError.
func (c Config) Validate() error {
	for _, f := range []struct {
		name string
		v    int
	}{{"Count", c.Count}, {"MaxVoice", c.MaxVoice}, {"MaxData", c.MaxData}} {
		if f.v < 0 {
			return &ConfigError{Field: f.name, Reason: fmt.Sprintf("negative value %d", f.v)}
		}
	}
	if !(c.MulticellFrac >= 0 && c.MulticellFrac <= 1) {
		return &ConfigError{Field: "MulticellFrac", Reason: fmt.Sprintf("%v outside [0,1]", c.MulticellFrac)}
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.MaxVoice == 0 {
		c.MaxVoice = 40
	}
	if c.MaxData == 0 {
		c.MaxData = 12
	}
	if c.MaxCells >= 2 && c.MulticellFrac == 0 {
		c.MulticellFrac = 0.2
	}
	if c.MinDurationSec <= 0 {
		c.MinDurationSec = 0.5
	}
	if c.MaxDurationSec < c.MinDurationSec {
		c.MaxDurationSec = c.MinDurationSec + 1
	}
	if len(c.Protocols) == 0 {
		c.Protocols = core.Protocols()
	}
	return c
}

// speedGrid is the common-speed pool (km/h), spanning pedestrian to
// vehicular Doppler classes.
var speedGrid = []float64{5, 10, 30, 50, 80, 120}

// Generate produces the corpus as sweep points ready for the grid (or
// for grid.WriteScenarioFile).
func Generate(cfg Config) []grid.Point {
	cfg = cfg.withDefaults()
	pts := make([]grid.Point, cfg.Count)
	for i := range pts {
		pts[i] = One(cfg, i)
	}
	return pts
}

// One generates corpus entry i. It re-derives the entry's substream from
// scratch, so One(cfg, i) equals Generate(cfg)[i] for any Count > i.
func One(cfg Config, i int) grid.Point {
	cfg = cfg.withDefaults()
	s := rng.DeriveIndexed(cfg.Seed, "scengen", i)
	dur := cfg.MinDurationSec + s.Float64()*(cfg.MaxDurationSec-cfg.MinDurationSec)
	reps := 1 + s.IntN(2)
	if cfg.MaxCells >= 2 && s.Bernoulli(cfg.MulticellFrac) {
		return grid.Point{Spec: grid.MulticellSpec(deployment(cfg, s, dur)), Replications: reps}
	}
	return grid.Point{Spec: grid.ScenarioSpec(cell(cfg, s, dur)), Replications: reps}
}

// cell draws one single-cell scenario: protocol, traffic blend, queueing,
// child seed, duration and one of three speed treatments (common default,
// common drawn speed, per-station mix).
func cell(cfg Config, s *rng.Stream, dur float64) core.Scenario {
	sc := core.Scenario{
		Protocol:    cfg.Protocols[s.IntN(len(cfg.Protocols))],
		NumVoice:    s.IntN(cfg.MaxVoice + 1),
		NumData:     s.IntN(cfg.MaxData + 1),
		UseQueue:    s.Bernoulli(0.5),
		Seed:        s.Int63(),
		WarmupSec:   0.25,
		DurationSec: dur,
		Channel:     channel.DefaultParams(),
	}
	if sc.NumVoice+sc.NumData == 0 {
		sc.NumVoice = 1
	}
	switch s.IntN(3) {
	case 0: // common drawn speed; Doppler re-derives from it
		sc.Channel.SpeedKmh = speedGrid[s.IntN(len(speedGrid))]
		sc.Channel.DopplerHz = 0
	case 1: // per-station speed mix (§5.3.3 path)
		n := sc.NumVoice + sc.NumData
		speeds := make([]float64, n)
		for j := range speeds {
			speeds[j] = 1 + s.Float64()*119
		}
		sc.SpeedsKmh = speeds
	}
	return sc
}

// deployment draws one multi-cell deployment; RMAV is excluded (its
// variable frames cannot be cell-synchronized).
func deployment(cfg Config, s *rng.Stream, dur float64) multicell.Params {
	protos := make([]string, 0, len(cfg.Protocols))
	for _, p := range cfg.Protocols {
		if p != core.ProtoRMAV {
			protos = append(protos, p)
		}
	}
	if len(protos) == 0 {
		protos = []string{core.ProtoCharisma}
	}
	p := multicell.DefaultParams()
	p.Cells = 2 + s.IntN(cfg.MaxCells-1)
	p.Protocol = protos[s.IntN(len(protos))]
	p.NumVoice = s.IntN(cfg.MaxVoice + 1)
	p.NumData = s.IntN(cfg.MaxData + 1)
	if p.NumVoice+p.NumData == 0 {
		p.NumVoice = 1
	}
	p.UseQueue = s.Bernoulli(0.5)
	p.Seed = s.Int63()
	p.Workers = 1
	p.WarmupSec, p.DurationSec = 0.25, dur
	return p
}
