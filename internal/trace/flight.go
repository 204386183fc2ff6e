// Package trace holds everything a post-mortem writes: the flight
// recorder, a fixed-size ring buffer of frame-level MAC events kept
// alive while a run is in progress and dumped as JSONL only when
// something goes wrong, and the CPU and heap profiles the CLIs start
// (StartProfile). A misbehaving million-station run then leaves its last
// N frames behind as a post-mortem artifact instead of nothing.
//
// Arming is process-global (ArmFlight, driven by the CLIs'
// -flight-recorder flag); attachment is per run: Attach wires a Flight
// onto each System that core.Scenario.Run drives, and onto every cell of
// a multicell deployment, when armed. Recording costs one DebugEndFrame
// callback and a handful of counter subtractions per frame; when
// disarmed the only cost anywhere is the hook's nil check. The recorder
// only reads the MAC's cumulative counters, so an armed run returns the
// same result bytes as a disarmed one.
//
// A panic in a frame loop dumps that loop's rings (DumpOnPanic). One
// SIGQUIT handler, installed by the first ArmFlight with N > 0 or the
// first StartProfile, writes the rest in a fixed order: first every
// attached ring, in attach order, with reason "sigquit"; then the
// running profile's stop, which flushes the CPU profile and writes the
// heap profile; then it exits with status 2.
package trace

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sync"

	"charisma/internal/mac"
	"charisma/internal/sim"
)

// FrameEvent is one frame's activity, as deltas of the cumulative MAC
// metrics over that frame.
type FrameEvent struct {
	Frame int64    `json:"frame"` // frame index (0-based, completed)
	At    sim.Time `json:"at"`    // start time of the frame, ticks
	Dur   sim.Time `json:"dur"`   // duration the protocol consumed

	Attempts   uint64 `json:"attempts"`   // contention request attempts
	Collisions uint64 `json:"collisions"` // request minislot collisions
	Captures   uint64 `json:"captures"`   // requests captured by the BS
	Grants     uint64 `json:"grants"`     // reservations granted
	VoiceOK    uint64 `json:"voice_ok"`   // voice packets delivered
	VoiceErr   uint64 `json:"voice_err"`  // voice packets in error
	DataOK     uint64 `json:"data_ok"`    // data packets delivered
	DataErr    uint64 `json:"data_err"`   // data packets in error
	QueueLen   int    `json:"queue_len"`  // BS request queue depth at frame end
}

// flightMeta is the first JSONL line of a dump.
type flightMeta struct {
	Meta    bool   `json:"meta"`
	Label   string `json:"label"`
	Reason  string `json:"reason"`
	Frames  int64  `json:"frames_seen"`
	Ring    int    `json:"ring"`
	Dropped int64  `json:"dropped"` // frames_seen - retained
}

type frameTotals struct {
	attempts, collisions, captures, grants uint64
	voiceOK, voiceErr, dataOK, dataErr     uint64
}

func totalsOf(m *mac.Metrics) frameTotals {
	return frameTotals{
		attempts:   m.ReqAttempts.Total(),
		collisions: m.ReqCollisions.Total(),
		captures:   m.ReqSuccesses.Total(),
		grants:     m.ReservationsGranted.Total(),
		voiceOK:    m.VoiceTxOK.Total(),
		voiceErr:   m.VoiceTxErr.Total(),
		dataOK:     m.DataDelivered.Total(),
		dataErr:    m.DataTxErr.Total(),
	}
}

// Flight is one run's recorder. The mutex covers the ring: frames are
// recorded on the simulation goroutine, but a dump may fire from the
// signal-handler goroutine mid-run.
type Flight struct {
	mu     sync.Mutex
	sys    *mac.System
	label  string
	ring   []FrameEvent
	next   int   // write cursor into ring
	filled bool  // ring has wrapped
	total  int64 // frames observed
	prev   frameTotals
}

// Attach installs a recorder of the armed ring size (ArmFlight) on sys's
// end-of-frame hook and adds it to the rings a SIGQUIT dumps; nil, at
// the cost of one check, when the recorder is disarmed. The dump labels
// the ring "<protocol> seed=<seed>", plus " cell=<cell>" when cell is not
// negative. The caller Closes the recorder when its run ends and defers
// DumpOnPanic around the frame loop; an un-dumped recorder simply
// disappears.
func Attach(sys *mac.System, protocol string, seed int64, cell int) *Flight {
	post.mu.Lock()
	defer post.mu.Unlock()
	if post.frames <= 0 {
		return nil
	}
	label := fmt.Sprintf("%s seed=%d", protocol, seed)
	if cell >= 0 {
		label += fmt.Sprintf(" cell=%d", cell)
	}
	f := &Flight{sys: sys, label: label, ring: make([]FrameEvent, post.frames), prev: totalsOf(&sys.M)}
	sys.DebugEndFrame = f.record
	post.rings = append(post.rings, f)
	return f
}

// record appends one frame to the ring. Called from the simulation
// goroutine via the DebugEndFrame hook, after EndFrame advanced the
// clock and frame index past the completed frame.
func (f *Flight) record(dur sim.Time) {
	s := f.sys
	cur := totalsOf(&s.M)
	ev := FrameEvent{
		Frame:      s.FrameIndex() - 1,
		At:         s.Now() - dur,
		Dur:        dur,
		Attempts:   cur.attempts - f.prev.attempts,
		Collisions: cur.collisions - f.prev.collisions,
		Captures:   cur.captures - f.prev.captures,
		Grants:     cur.grants - f.prev.grants,
		VoiceOK:    cur.voiceOK - f.prev.voiceOK,
		VoiceErr:   cur.voiceErr - f.prev.voiceErr,
		DataOK:     cur.dataOK - f.prev.dataOK,
		DataErr:    cur.dataErr - f.prev.dataErr,
		QueueLen:   s.QueueLen(),
	}
	f.prev = cur
	f.mu.Lock()
	f.ring[f.next] = ev
	f.next++
	if f.next == len(f.ring) {
		f.next, f.filled = 0, true
	}
	f.total++
	f.mu.Unlock()
}

// snapshot returns the retained frames oldest-first plus the total seen.
func (f *Flight) snapshot() ([]FrameEvent, int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []FrameEvent
	if f.filled {
		out = append(out, f.ring[f.next:]...)
		out = append(out, f.ring[:f.next]...)
	} else {
		out = append(out, f.ring[:f.next]...)
	}
	return out, f.total
}

// Dump appends the recorder's retained frames to the armed dump path as
// JSONL: one meta line, then one line per frame, oldest first. Dump
// failures are reported to stderr and never abort the caller — a
// post-mortem must not take down the process it is examining.
func (f *Flight) Dump(reason string) {
	events, total := f.snapshot()
	post.mu.Lock() // also serializes concurrent dumps' appends
	defer post.mu.Unlock()
	path := post.path
	if path == "" {
		path = "charisma-flight.jsonl"
	}
	file, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		fmt.Fprintln(os.Stderr, "trace: flight dump:", err)
		return
	}
	defer file.Close()
	enc := json.NewEncoder(file)
	meta := flightMeta{
		Meta: true, Label: f.label, Reason: reason,
		Frames: total, Ring: len(f.ring), Dropped: total - int64(len(events)),
	}
	if err := enc.Encode(meta); err != nil {
		fmt.Fprintln(os.Stderr, "trace: flight dump:", err)
		return
	}
	for i := range events {
		if err := enc.Encode(&events[i]); err != nil {
			fmt.Fprintln(os.Stderr, "trace: flight dump:", err)
			return
		}
	}
}

// DumpOnPanic, deferred around a frame loop, dumps every recorder in fls
// when the loop panics and then lets the panic unwind: the post-mortem
// the recorder exists for.
func DumpOnPanic(fls ...*Flight) {
	if r := recover(); r != nil {
		for _, f := range fls {
			f.Dump(fmt.Sprintf("panic: %v", r))
		}
		panic(r)
	}
}

// Close detaches the recorder from its system and from the rings a
// SIGQUIT dumps. A second call does nothing.
func (f *Flight) Close() {
	post.mu.Lock()
	i := slices.Index(post.rings, f)
	if i >= 0 {
		post.rings = slices.Delete(post.rings, i, i+1)
	}
	post.mu.Unlock()
	if i >= 0 {
		f.sys.DebugEndFrame = nil
	}
}
