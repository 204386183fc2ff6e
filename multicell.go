package charisma

import (
	"cmp"
	"context"
	"time"

	"charisma/internal/multicell"
)

// MultiCellOptions configures the §6 multi-cell/handoff extension: several
// coordinated cells, each running the same uplink protocol, with nomadic
// users attaching to the base station with the best long-term channel.
// Zero selects a field's default, and a negative count, duration, speed,
// hysteresis or shadowing width is rejected with a validation error naming
// the field.
type MultiCellOptions struct {
	// Cells is the number of base stations (default 2).
	Cells int
	// Protocol is the per-cell MAC (default CHARISMA; RMAV is not
	// supported because its variable frames cannot be cell-synchronized).
	Protocol Protocol
	// VoiceUsers and DataUsers are deployment-wide totals.
	VoiceUsers int
	DataUsers  int
	// WithRequestQueue enables each cell's BS request queue.
	WithRequestQueue bool
	// HandoffHysteresisDB is the long-term CSI advantage (amplitude dB)
	// required before switching base stations (default 4).
	HandoffHysteresisDB float64
	// HandoffPeriod is how often attachments are re-evaluated (default
	// 100 ms).
	HandoffPeriod time.Duration
	// DisableHandoff freezes the initial attachment (the baseline).
	DisableHandoff bool
	// Workers bounds the goroutines advancing cells concurrently between
	// handoff decision epochs (default: one per CPU core). Results are
	// byte-identical for any worker count.
	Workers int
	// ShadowSigmaDB widens the per-cell log-normal shadowing (default 4).
	ShadowSigmaDB float64
	// SpeedKmh is the mobile speed (default 50, the paper's mean; Doppler
	// spread scales with it), as in Options.
	SpeedKmh float64
	// MeanSNRdB overrides the average link SNR (default 12 dB, as in
	// Options).
	MeanSNRdB float64
	// Seed, Warmup and Replications as in Options. Duration is each
	// cell's measurement window (default 20 s, not Options' 60 s).
	Seed         int64
	Warmup       time.Duration
	Duration     time.Duration
	Replications int
}

// MultiCellResult extends Result with handoff statistics.
type MultiCellResult struct {
	Result
	// Handoffs is the number of executed base-station switches.
	Handoffs uint64
	// PerCellLossRates lists each cell's own voice loss rate.
	PerCellLossRates []float64
}

// RunMultiCell executes a multi-cell deployment (paper §6, future work:
// "when a nomadic user travels into the range of some other base stations,
// to which new base station should the user attach, from a channel quality
// point of view?").
func RunMultiCell(o MultiCellOptions) (MultiCellResult, error) {
	return RunMultiCellContext(context.Background(), o)
}

// RunMultiCellContext is RunMultiCell with cancellation: a cancelled
// context stops pending replications and running ones too, every cell
// within 64 frames, and returns the context's error.
func RunMultiCellContext(ctx context.Context, o MultiCellOptions) (MultiCellResult, error) {
	if err := cmp.Or(
		nonNegative("Cells", o.Cells),
		nonNegative("HandoffHysteresisDB", o.HandoffHysteresisDB),
		nonNegative("HandoffPeriod", o.HandoffPeriod),
		nonNegative("Workers", o.Workers),
		nonNegative("ShadowSigmaDB", o.ShadowSigmaDB),
		nonNegative("SpeedKmh", o.SpeedKmh),
		nonNegative("Warmup", o.Warmup),
		nonNegative("Duration", o.Duration),
		nonNegative("Replications", o.Replications),
	); err != nil {
		return MultiCellResult{}, err
	}
	p := multicell.DefaultParams()
	if o.Cells > 0 {
		p.Cells = o.Cells
	}
	if o.Protocol != "" {
		p.Protocol = string(o.Protocol)
	}
	p.NumVoice = o.VoiceUsers
	p.NumData = o.DataUsers
	p.UseQueue = o.WithRequestQueue
	if o.HandoffHysteresisDB > 0 {
		p.HysteresisDB = o.HandoffHysteresisDB
	}
	if o.HandoffPeriod > 0 {
		frames := int(o.HandoffPeriod / (2500 * time.Microsecond))
		if frames < 1 {
			frames = 1
		}
		p.DecisionPeriodFrames = frames
	}
	p.DisableHandoff = o.DisableHandoff
	p.Workers = o.Workers
	if o.ShadowSigmaDB > 0 {
		p.Channel.ShadowSigmaDB = o.ShadowSigmaDB
	}
	if o.SpeedKmh > 0 {
		p.Channel.SpeedKmh = o.SpeedKmh
	}
	if o.MeanSNRdB != 0 {
		p.PHY.MeanSNRdB = o.MeanSNRdB
	}
	if o.Seed != 0 {
		p.Seed = o.Seed
	}
	if o.Warmup > 0 {
		p.WarmupSec = o.Warmup.Seconds()
	}
	if o.Duration > 0 {
		p.DurationSec = o.Duration.Seconds()
	}
	r, err := multicell.RunReplicated(ctx, p, o.Replications)
	if err != nil {
		return MultiCellResult{}, err
	}
	out := MultiCellResult{Result: fromInternal(r.Result), Handoffs: r.Handoffs}
	for _, c := range r.PerCell {
		out.PerCellLossRates = append(out.PerCellLossRates, c.VoiceLossRate)
	}
	return out, nil
}
