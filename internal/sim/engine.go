package sim

import "charisma/internal/obs"

// StepFunc is the recurring driver scheduled with ScheduleEvery. After
// each firing it returns the delay until its next firing; a negative
// delay stops it. Variable-length cadences (RMAV's variable frames)
// simply return a different delay each time.
type StepFunc func(e *Engine) Time

// Engine is the benchmark's frame clock: the traced replay in bench/
// schedules its frame step here and times the clock's own overhead. It
// holds one recurring driver. The program's frame loop is
// mac.System.Run; Engine goes when the benchmark's replay moves onto
// that loop, which is a change to the benchmark. The zero value is ready
// to use.
type Engine struct {
	now  Time
	at   Time
	step StepFunc
	ctr  obs.SimCounters
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Obs returns the engine's counters; EngineEvents counts driver firings.
// Read them only from the goroutine driving the engine, or after it has
// quiesced.
func (e *Engine) Obs() *obs.SimCounters { return &e.ctr }

// ScheduleEvery arms the engine's driver: it first fires at absolute time
// start and thereafter re-fires after whatever delay step returns, until
// step returns a negative delay. Arming a second driver while one is
// pending replaces it.
func (e *Engine) ScheduleEvery(start Time, step StepFunc) {
	if step == nil {
		panic("sim: ScheduleEvery called with nil step")
	}
	e.at, e.step = start, step
}

// Run fires the driver until it stops. The step must not call Run or
// ScheduleEvery.
func (e *Engine) Run() {
	for e.step != nil {
		e.now = e.at
		e.ctr.EngineEvents++
		delay := e.step(e)
		if delay < 0 {
			e.step = nil
			return
		}
		e.at = e.now + delay
	}
}
