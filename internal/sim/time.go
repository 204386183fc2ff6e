// Package sim provides the simulation's frame clock: an integer simulated
// clock and an Engine that fires recurring drivers (ScheduleEvery) in time
// order, first-armed first among drivers due together. The paper's uplink
// is frame-synchronous, so a scenario run schedules exactly one driver,
// the TDMA frame tick, whose step returns each frame's (possibly
// variable) length; station wakes live in the MAC's timer wheel.
//
// The whole reproduction is clocked in modulation symbols of the 320 kHz
// TDMA air interface described in the paper (Table 1): one tick is one
// symbol, i.e. 3.125 µs. Using an integer tick avoids floating-point clock
// drift over multi-minute simulated runs and makes event ordering exact.
package sim

import "fmt"

// Time is a simulation timestamp measured in symbol ticks.
type Time int64

// Symbol-rate derived clock constants for the 320 kHz system.
const (
	// SymbolsPerSecond is the TDMA symbol rate (320 kHz, Table 1).
	SymbolsPerSecond = 320000

	// Second is one simulated second expressed in ticks.
	Second Time = SymbolsPerSecond

	// Millisecond is one simulated millisecond expressed in ticks.
	Millisecond Time = SymbolsPerSecond / 1000
)

// Seconds converts a tick count to (floating point) seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Milliseconds converts a tick count to (floating point) milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// FromSeconds converts seconds to ticks, truncating sub-symbol fractions.
func FromSeconds(s float64) Time { return Time(s * float64(Second)) }

// FromMilliseconds converts milliseconds to ticks.
func FromMilliseconds(ms float64) Time { return Time(ms * float64(Millisecond)) }

// String renders a timestamp with millisecond resolution for diagnostics.
func (t Time) String() string {
	return fmt.Sprintf("%.3fms", t.Milliseconds())
}
