package traffic

import (
	"math"
	"testing"
	"testing/quick"

	"charisma/internal/rng"
	"charisma/internal/sim"
)

const frameDur = sim.Time(800)

func newVoice(seed int64) *VoiceSource {
	return NewVoice(DefaultVoiceParams(), rng.Derive(seed, "v"), 0)
}

func newData(seed int64) *DataSource {
	return NewData(DefaultDataParams(), rng.Derive(seed, "d"), 0)
}

func TestVoiceParams(t *testing.T) {
	p := DefaultVoiceParams()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// Activity factor 1.0/(1.0+1.35) ~ 0.4255 (Table 1 / [10]).
	if af := p.ActivityFactor(); math.Abs(af-1.0/2.35) > 1e-12 {
		t.Fatalf("activity factor = %v", af)
	}
	if p.Period != 20*sim.Millisecond || p.Deadline != 20*sim.Millisecond {
		t.Fatal("voice period/deadline not 20 ms")
	}
}

func TestVoiceParamsValidate(t *testing.T) {
	p := DefaultVoiceParams()
	p.MeanTalkSec = 0
	if p.Validate() == nil {
		t.Fatal("zero talk mean accepted")
	}
	p = DefaultVoiceParams()
	p.Period = 0
	if p.Validate() == nil {
		t.Fatal("zero period accepted")
	}
}

// Long-run fraction of time in talkspurt must match the stationary
// activity factor.
func TestVoiceActivityFactorEmpirical(t *testing.T) {
	talkFrames, total := 0, 0
	for seed := int64(0); seed < 20; seed++ {
		v := newVoice(seed)
		for f := 0; f < 40000; f++ {
			now := sim.Time(f) * frameDur
			v.Advance(now)
			if v.Talking() {
				talkFrames++
			}
			total++
			v.DropExpired(now) // keep the buffer from growing unboundedly
		}
	}
	af := float64(talkFrames) / float64(total)
	if math.Abs(af-1.0/2.35) > 0.02 {
		t.Fatalf("empirical activity factor = %v, want %v", af, 1.0/2.35)
	}
}

// During talkspurts the 8 kbps codec generates exactly one packet per 20 ms.
func TestVoicePacketRate(t *testing.T) {
	v := newVoice(3)
	const frames = 200000
	for f := 0; f < frames; f++ {
		now := sim.Time(f) * frameDur
		v.Advance(now)
		v.DropExpired(now + v.p.Deadline) // drain
	}
	simSeconds := (sim.Time(frames) * frameDur).Seconds()
	rate := float64(v.Generated()) / simSeconds
	want := 50.0 / 2.35 // 50 packets/s while talking, 42.5% of the time
	if math.Abs(rate-want)/want > 0.1 {
		t.Fatalf("packet rate = %v/s, want ~%v/s", rate, want)
	}
}

func TestVoicePacketDeadlineStamping(t *testing.T) {
	v := newVoice(4)
	for f := 0; f < 10000; f++ {
		now := sim.Time(f) * frameDur
		v.Advance(now)
		for v.Buffered() > 0 {
			pkt, _ := v.Pop()
			if pkt.Deadline-pkt.Born != v.p.Deadline {
				t.Fatalf("deadline span = %v, want %v", pkt.Deadline-pkt.Born, v.p.Deadline)
			}
			if pkt.Born > now {
				t.Fatal("packet born in the future")
			}
		}
	}
}

func TestVoiceDropExpired(t *testing.T) {
	v := newVoice(5)
	// Run until a packet exists.
	var now sim.Time
	for f := 0; v.Buffered() == 0 && f < 100000; f++ {
		now = sim.Time(f) * frameDur
		v.Advance(now)
	}
	if v.Buffered() == 0 {
		t.Fatal("no packet generated")
	}
	pkt, _ := v.Oldest()
	if n := v.DropExpired(pkt.Deadline - 1); n != 0 {
		t.Fatal("dropped before deadline")
	}
	if n := v.DropExpired(pkt.Deadline); n == 0 {
		t.Fatal("did not drop at deadline")
	}
	if v.Dropped() == 0 {
		t.Fatal("dropped counter not incremented")
	}
}

func TestVoicePopFIFO(t *testing.T) {
	v := newVoice(6)
	// Accumulate a few packets without draining.
	var collected []VoicePacket
	for f := 0; f < 100000 && len(collected) < 3; f++ {
		now := sim.Time(f) * frameDur
		v.Advance(now)
		if v.Buffered() >= 2 {
			for v.Buffered() > 0 {
				p, _ := v.Pop()
				collected = append(collected, p)
			}
		}
	}
	for i := 1; i < len(collected); i++ {
		if collected[i].Born < collected[i-1].Born {
			t.Fatal("voice buffer not FIFO")
		}
	}
}

func TestVoicePopEmpty(t *testing.T) {
	v := newVoice(7)
	if _, ok := v.Pop(); ok {
		t.Fatal("Pop on empty buffer returned a packet")
	}
	if _, ok := v.Oldest(); ok {
		t.Fatal("Oldest on empty buffer returned a packet")
	}
}

// Conservation: generated = popped + dropped + still buffered.
func TestVoiceConservationProperty(t *testing.T) {
	prop := func(seed int64) bool {
		v := newVoice(seed)
		popped := uint64(0)
		for f := 0; f < 20000; f++ {
			now := sim.Time(f) * frameDur
			v.Advance(now)
			v.DropExpired(now)
			if f%3 == 0 && v.Buffered() > 0 {
				v.Pop()
				popped++
			}
		}
		return v.Generated() == popped+v.Dropped()+uint64(v.Buffered())
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestVoiceAdvanceIdempotentAtSameTime(t *testing.T) {
	v := newVoice(8)
	for f := 0; f < 1000; f++ {
		now := sim.Time(f) * frameDur
		v.Advance(now)
		if v.Advance(now) != 0 {
			t.Fatal("second Advance at same time generated packets")
		}
	}
}

func TestDataParams(t *testing.T) {
	p := DefaultDataParams()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// 100 packets per second offered per data user (Table 1).
	if got := p.OfferedPacketsPerSecond(); math.Abs(got-100) > 1e-12 {
		t.Fatalf("offered load = %v", got)
	}
	p.MeanInterarrivalSec = 0
	if p.Validate() == nil {
		t.Fatal("zero inter-arrival accepted")
	}
	p = DefaultDataParams()
	p.MeanBurstPackets = 0.5
	if p.Validate() == nil {
		t.Fatal("sub-packet burst mean accepted")
	}
}

func TestDataArrivalRate(t *testing.T) {
	d := newData(1)
	const frames = 400000 // 1000 s
	for f := 0; f < frames; f++ {
		now := sim.Time(f) * frameDur
		d.Advance(now)
		// Drain everything so the queue does not blow up.
		d.TransmitAttempts(d.Backlog(), now, func() bool { return true }, func(sim.Time) {})
	}
	simSeconds := (sim.Time(frames) * frameDur).Seconds()
	rate := float64(d.Generated()) / simSeconds
	if math.Abs(rate-100)/100 > 0.1 {
		t.Fatalf("data arrival rate = %v pkt/s, want ~100", rate)
	}
}

func TestDataTransmitDelaysMeasuredFromBirth(t *testing.T) {
	d := newData(2)
	var now sim.Time
	for f := 0; d.Backlog() == 0; f++ {
		now = sim.Time(f) * frameDur
		d.Advance(now)
	}
	born := d.bursts[d.head].born
	txAt := now + 10*frameDur
	var got []sim.Time
	d.TransmitAttempts(1, txAt, func() bool { return true }, func(delay sim.Time) {
		got = append(got, delay)
	})
	if len(got) != 1 {
		t.Fatalf("%d delays recorded", len(got))
	}
	if got[0] != txAt-born {
		t.Fatalf("delay = %v, want %v", got[0], txAt-born)
	}
}

func TestDataFailedPacketsStayQueued(t *testing.T) {
	d := newData(3)
	var now sim.Time
	for f := 0; d.Backlog() == 0; f++ {
		now = sim.Time(f) * frameDur
		d.Advance(now)
	}
	before := d.Backlog()
	ok, failed := d.TransmitAttempts(before, now, func() bool { return false }, func(sim.Time) {
		t.Fatal("success callback on failure")
	})
	if ok != 0 || failed != before {
		t.Fatalf("ok=%d failed=%d, want 0/%d", ok, failed, before)
	}
	if d.Backlog() != before {
		t.Fatal("failed packets left the queue (ARQ broken)")
	}
}

func TestDataPartialSuccess(t *testing.T) {
	d := newData(4)
	var now sim.Time
	for f := 0; d.Backlog() < 4; f++ {
		now = sim.Time(f) * frameDur
		d.Advance(now)
	}
	before := d.Backlog()
	flip := false
	ok, failed := d.TransmitAttempts(4, now, func() bool { flip = !flip; return flip }, func(sim.Time) {})
	if ok+failed != 4 {
		t.Fatalf("attempts = %d, want 4", ok+failed)
	}
	if d.Backlog() != before-ok {
		t.Fatalf("backlog = %d, want %d", d.Backlog(), before-ok)
	}
}

func TestDataTransmitMoreThanBacklog(t *testing.T) {
	d := newData(5)
	var now sim.Time
	for f := 0; d.Backlog() == 0; f++ {
		now = sim.Time(f) * frameDur
		d.Advance(now)
	}
	n := d.Backlog()
	ok, failed := d.TransmitAttempts(n+1000, now, func() bool { return true }, func(sim.Time) {})
	if ok+failed != n {
		t.Fatalf("attempted %d, want %d (clamped to backlog)", ok+failed, n)
	}
	if d.Backlog() != 0 {
		t.Fatal("backlog not drained")
	}
}

// Conservation: generated = delivered + still backlogged.
func TestDataConservationProperty(t *testing.T) {
	prop := func(seed int64, successMod uint8) bool {
		d := newData(seed)
		mod := int(successMod%5) + 1
		delivered := 0
		calls := 0
		for f := 0; f < 20000; f++ {
			now := sim.Time(f) * frameDur
			d.Advance(now)
			n := d.Backlog()
			if n > 7 {
				n = 7
			}
			ok, _ := d.TransmitAttempts(n, now, func() bool {
				calls++
				return calls%mod != 0
			}, func(sim.Time) {})
			delivered += ok
		}
		return d.Generated() == uint64(delivered+d.Backlog())
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestDataOldestBornEmpty: a source before its first arrival holds no
// burst, so there is no head-of-line birth time.
func TestDataOldestBornEmpty(t *testing.T) {
	d := newData(6)
	if d.Backlog() != 0 || d.head != len(d.bursts) {
		t.Fatalf("fresh source holds %d packets in %d bursts", d.Backlog(), len(d.bursts)-d.head)
	}
}

func TestDataBurstSizesPositive(t *testing.T) {
	d := newData(7)
	for f := 0; f < 100000; f++ {
		now := sim.Time(f) * frameDur
		gen := d.Advance(now)
		if gen < 0 {
			t.Fatal("negative generation")
		}
		d.TransmitAttempts(d.Backlog(), now, func() bool { return true }, func(sim.Time) {})
	}
	if d.Generated() == 0 {
		t.Fatal("no data generated in 250 s")
	}
}

func TestDataDelayNonNegative(t *testing.T) {
	d := newData(8)
	for f := 0; f < 50000; f++ {
		now := sim.Time(f) * frameDur
		d.Advance(now)
		d.TransmitAttempts(d.Backlog(), now, func() bool { return true }, func(delay sim.Time) {
			if delay < 0 {
				t.Fatal("negative delay")
			}
		})
	}
}

// TestProbesMatchConstructors pins the birth probes to the constructors
// they shadow: probing a stream must land on exactly the first event time
// (and stream position) that building the source would have produced, for
// both the talking and silent voice branches. The lazy population arms
// deferred stations from these probes, so any drift here would break the
// byte-identity of lazy versus eager builds.
func TestProbesMatchConstructors(t *testing.T) {
	vp := DefaultVoiceParams()
	dp := DefaultDataParams()
	for seed := int64(0); seed < 200; seed++ {
		for _, now := range []sim.Time{0, 123456} {
			if got, want := ProbeVoiceBirth(vp, rng.Derive(seed, "p"), now),
				NewVoice(vp, rng.Derive(seed, "p"), now).NextEventAt(); got != want {
				t.Fatalf("seed %d now %d: voice probe %d, constructor %d", seed, now, got, want)
			}
			if got, want := ProbeDataBirth(dp, rng.Derive(seed, "p"), now),
				NewData(dp, rng.Derive(seed, "p"), now).NextArrivalAt(); got != want {
				t.Fatalf("seed %d now %d: data probe %d, constructor %d", seed, now, got, want)
			}
		}
	}
}
