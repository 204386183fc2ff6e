package traffic

import (
	"fmt"

	"charisma/internal/rng"
	"charisma/internal/sim"
)

// DataParams configures a data (file transfer) source.
type DataParams struct {
	// MeanInterarrivalSec is the exponential mean between file arrivals
	// (Table 1: 1 s).
	MeanInterarrivalSec float64
	// MeanBurstPackets is the exponential mean file size in packets
	// (Table 1: 100).
	MeanBurstPackets float64
}

// DefaultDataParams returns the paper's Table 1 data model.
func DefaultDataParams() DataParams {
	return DataParams{MeanInterarrivalSec: 1.0, MeanBurstPackets: 100}
}

// Validate reports configuration errors.
func (p DataParams) Validate() error {
	if p.MeanInterarrivalSec <= 0 {
		return fmt.Errorf("traffic: non-positive data inter-arrival %v", p.MeanInterarrivalSec)
	}
	if p.MeanBurstPackets < 1 {
		return fmt.Errorf("traffic: mean burst %v below one packet", p.MeanBurstPackets)
	}
	return nil
}

// OfferedPacketsPerSecond returns the long-run offered load of one source.
func (p DataParams) OfferedPacketsPerSecond() float64 {
	return p.MeanBurstPackets / p.MeanInterarrivalSec
}

// burst is a group of packets that arrived together; all share a birth time.
type burst struct {
	born sim.Time
	n    int
}

// DataSource is the Poisson bursty file-transfer model. Packets queue
// indefinitely (delay-insensitive); a transmission attempt either succeeds
// (packet leaves, its delay is the span from birth to the start of the
// successful attempt) or fails and the packet stays queued for ARQ
// retransmission.
type DataSource struct {
	p   DataParams
	rnd *rng.Stream

	nextArrival sim.Time
	bursts      []burst
	head        int
	backlog     int

	generated uint64
}

// NewData creates a data source. The first burst arrives one exponential
// inter-arrival after now.
func NewData(p DataParams, stream *rng.Stream, now sim.Time) *DataSource {
	d := &DataSource{}
	d.Reset(p, stream, now)
	return d
}

// Reset re-initializes d in place exactly as NewData would — same draw,
// same initial state — while reusing the burst queue's capacity. See
// VoiceSource.Reset.
func (d *DataSource) Reset(p DataParams, stream *rng.Stream, now sim.Time) {
	*d = DataSource{p: p, rnd: stream, bursts: d.bursts[:0]}
	d.nextArrival = now + sim.FromSeconds(stream.Exp(p.MeanInterarrivalSec))
}

// Params returns the source configuration.
func (d *DataSource) Params() DataParams { return d.p }

// Advance realizes all bursts scheduled up to and including now, returning
// the number of packets that arrived.
func (d *DataSource) Advance(now sim.Time) int {
	gen := 0
	for d.nextArrival <= now {
		n := d.rnd.ExpPositiveInt(d.p.MeanBurstPackets)
		d.bursts = append(d.bursts, burst{born: d.nextArrival, n: n})
		d.backlog += n
		d.generated += uint64(n)
		gen += n
		d.nextArrival += sim.FromSeconds(d.rnd.Exp(d.p.MeanInterarrivalSec))
	}
	return gen
}

// NextArrivalAt returns the time of the next burst arrival. Advance(t) is
// a no-op for every t before it, which is what lets a drained station sleep
// in the MAC's wake queue instead of being advanced every frame.
func (d *DataSource) NextArrivalAt() sim.Time { return d.nextArrival }

// Backlog returns the number of packets waiting (including packets whose
// previous transmission attempts failed).
func (d *DataSource) Backlog() int { return d.backlog }

// Generated returns the lifetime count of arrived packets.
func (d *DataSource) Generated() uint64 { return d.generated }

// TransmitAttempts attempts to transmit the n head-of-line packets at time
// txStart. For each packet, succeed decides the outcome; successful packets
// leave the queue and onSuccess receives their queueing delay (txStart −
// birth, per the paper's definition: "the average time that a data packet
// spends waiting in the buffer until the beginning of the successful
// transmission"). Failed packets remain queued in order. It returns the
// number of successes and failures.
func (d *DataSource) TransmitAttempts(n int, txStart sim.Time, succeed func() bool, onSuccess func(delay sim.Time)) (ok, failed int) {
	if n > d.backlog {
		n = d.backlog
	}
	remaining := n
	for i := d.head; remaining > 0 && i < len(d.bursts); i++ {
		b := &d.bursts[i]
		attempts := b.n
		if attempts > remaining {
			attempts = remaining
		}
		succ := 0
		for a := 0; a < attempts; a++ {
			if succeed() {
				succ++
			} else {
				failed++
			}
		}
		if succ > 0 {
			delay := txStart - b.born
			if delay < 0 {
				delay = 0
			}
			for s := 0; s < succ; s++ {
				onSuccess(delay)
			}
			b.n -= succ
			d.backlog -= succ
			ok += succ
		}
		remaining -= attempts
	}
	d.compact()
	return ok, failed
}

func (d *DataSource) compact() {
	for d.head < len(d.bursts) && d.bursts[d.head].n == 0 {
		d.head++
	}
	if d.head == len(d.bursts) {
		d.bursts = d.bursts[:0]
		d.head = 0
	} else if d.head > 64 && d.head > len(d.bursts)/2 {
		d.bursts = append(d.bursts[:0], d.bursts[d.head:]...)
		d.head = 0
	}
}
