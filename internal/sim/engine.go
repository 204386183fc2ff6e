package sim

import (
	"fmt"

	"charisma/internal/obs"
)

// StepFunc is a recurring driver scheduled with ScheduleEvery. After each
// firing it returns the delay until its next firing; a negative delay
// stops it. Variable-length cadences (RMAV's variable frames) simply
// return a different delay each time.
type StepFunc func(e *Engine) Time

// driver is one pending recurring driver. seq is taken afresh on every
// (re-)arm, so among drivers due at the same time the one armed first
// fires first (stable FIFO order), which keeps runs deterministic.
type driver struct {
	at   Time
	seq  uint64
	step StepFunc
}

// Engine is a deterministic frame clock: it fires recurring drivers in
// (time, seq) order. The zero value is ready to use.
//
// Every run schedules exactly one driver, the TDMA frame tick (station
// wakes live in the MAC's timer wheel, not here), so pending drivers sit
// in a plain slice and the next one is found by linear scan. Once the
// slice has grown, Reset/ScheduleEvery/Run cycles allocate nothing.
type Engine struct {
	now     Time
	seq     uint64
	drivers []driver
	ctr     obs.SimCounters
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Obs returns the engine's counters; EngineEvents counts driver firings.
// The counters are cumulative across Reset (a pooled arena reports totals
// over every replication it hosted) and must only be read from the
// goroutine driving the engine, or after it has quiesced.
func (e *Engine) Obs() *obs.SimCounters { return &e.ctr }

// ScheduleEvery registers a recurring driver that first fires at absolute
// time start and thereafter re-fires after whatever delay step returns,
// until step returns a negative delay. Starting in the past (before Now)
// is a programming error and panics: allowing it would silently reorder
// causality.
func (e *Engine) ScheduleEvery(start Time, step StepFunc) {
	if step == nil {
		panic("sim: ScheduleEvery called with nil step")
	}
	if start < e.now {
		panic(fmt.Sprintf("sim: ScheduleEvery at %v before now %v", start, e.now))
	}
	e.drivers = append(e.drivers, driver{at: start, seq: e.seq, step: step})
	e.seq++
}

// Run fires drivers in (time, seq) order until every one has stopped. A
// step may schedule further drivers; it must not call Run or Reset.
func (e *Engine) Run() {
	for len(e.drivers) > 0 {
		i := e.next()
		e.now = e.drivers[i].at
		e.ctr.EngineEvents++
		delay := e.drivers[i].step(e)
		// The step may have appended drivers, never removed one, so i
		// still names the driver that fired.
		if delay < 0 {
			last := len(e.drivers) - 1
			e.drivers[i] = e.drivers[last]
			e.drivers[last] = driver{}
			e.drivers = e.drivers[:last]
			continue
		}
		d := &e.drivers[i]
		d.at = e.now + delay
		d.seq = e.seq
		e.seq++
	}
}

// next returns the index of the pending driver with the earliest
// (at, seq).
func (e *Engine) next() int {
	best := 0
	for i := 1; i < len(e.drivers); i++ {
		d, b := &e.drivers[i], &e.drivers[best]
		if d.at < b.at || d.at == b.at && d.seq < b.seq {
			best = i
		}
	}
	return best
}

// Reset rewinds the clock to zero and drops every pending driver while
// keeping the slice's capacity, so the replication arena reuses one
// engine without allocating. The counters are not reset.
func (e *Engine) Reset() {
	clear(e.drivers)
	e.drivers = e.drivers[:0]
	e.now, e.seq = 0, 0
}
