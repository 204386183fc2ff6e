// Package obs is the instrumentation substrate shared by the simulation
// core and the sweep grid.
//
// It deliberately contains two very different kinds of primitive:
//
//   - SimCounters: plain uint64 fields embedded by value inside
//     single-goroutine components (a cell's MAC system, a fading plane,
//     the benchmark's frame clock). Incrementing one is a register add — no
//     atomics, no branches, no allocations — so the counters are
//     compiled in permanently without disturbing the hot-path
//     allocation guards or the golden byte-identity suite (they never
//     touch an RNG stream). Each component exposes its own counter
//     block through an Obs()-style accessor; blocks from different
//     components are combined with Add at read time.
//
//   - Histogram: a fixed-bucket atomic histogram for the grid
//     coordinator, where observations arrive from concurrent HTTP
//     handlers. This one *is* synchronized, because it lives on the
//     control plane where an atomic per replication is noise.
//
// The split keeps the rule from DESIGN.md honest: nothing on the
// per-event or per-frame path synchronizes, and everything on the
// control plane is safe under -race.
package obs

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"
)

// SimCounters is one component's block of hot-path event counters.
// All fields are cumulative over the component's lifetime: Reset/ResetLazy
// style re-arms do not zero them, so a pooled arena reports totals across
// every replication it has hosted.
//
// A block must only ever be written by the goroutine that owns its
// component (the system and plane of one cell run). Reading a
// live block from another goroutine is racy by design — snapshot at a
// quiescent point (between replications, or after Run returns).
type SimCounters struct {
	// The frame clock of the benchmark's traced replay (the program's
	// frame loop, mac.System.Run, counts frames in FrameIndex instead).
	EngineEvents uint64 // driver firings: one per frame of the traced replay

	// Registry timer wheel.
	WheelArms     uint64 // timers armed (wheel.add)
	WheelCascades uint64 // level cascades triggered by pointer advance
	WheelWakes    uint64 // stations collected as due and woken

	// Registry candidate cache.
	EpochBumps uint64 // candidacy-changing Reindex calls (cache invalidations)
	CandHits   uint64 // ForEachCandidate served from the cached scratch
	CandMisses uint64 // ForEachCandidate rebuilds of the scratch

	// Channel plane lazy replay.
	ChannelCatchUps     uint64 // batched per-station catch-up calls
	ChannelCatchUpSteps uint64 // total AR(1) steps replayed by those calls
}

// Add accumulates other into c field by field. TestSimCountersAddCoversAll
// keeps this in sync with the struct definition by reflection.
func (c *SimCounters) Add(o *SimCounters) {
	c.EngineEvents += o.EngineEvents
	c.WheelArms += o.WheelArms
	c.WheelCascades += o.WheelCascades
	c.WheelWakes += o.WheelWakes
	c.EpochBumps += o.EpochBumps
	c.CandHits += o.CandHits
	c.CandMisses += o.CandMisses
	c.ChannelCatchUps += o.ChannelCatchUps
	c.ChannelCatchUpSteps += o.ChannelCatchUpSteps
}

// Histogram is a fixed-bucket concurrency-safe histogram in the
// Prometheus cumulative-bucket model. Observations and reads may come
// from any goroutine. The zero value is unusable; construct with
// NewHistogram.
type Histogram struct {
	bounds  []float64       // upper bounds, ascending; implicit +Inf last
	counts  []atomic.Uint64 // len(bounds)+1, per-bucket (non-cumulative)
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits of the running sum
}

// NewHistogram builds a histogram over the given ascending upper bounds.
// An implicit +Inf bucket is appended.
func NewHistogram(bounds ...float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly ascending")
		}
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// WritePrometheus appends the histogram in Prometheus text exposition
// format under the given fully-qualified metric name (the caller writes
// the # HELP / # TYPE preamble).
func (h *Histogram) WritePrometheus(b *strings.Builder, name string) {
	cum := uint64(0)
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(b, "%s_bucket{le=\"%g\"} %d\n", name, bound, cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(b, "%s_sum %g\n", name, h.Sum())
	fmt.Fprintf(b, "%s_count %d\n", name, h.Count())
}
