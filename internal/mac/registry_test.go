package mac

import (
	"testing"

	"charisma/internal/channel"
	"charisma/internal/phy"
	"charisma/internal/rng"
	"charisma/internal/sim"
	"charisma/internal/traffic"
)

func TestClassifyPriorityOrder(t *testing.T) {
	s := &System{}
	Populate(t, s, DefaultConfig(), phy.NewFixed(phy.DefaultParams()), rng.New(2),
		[]Sources{{Voice: traffic.NewVoice(traffic.DefaultVoiceParams(), rng.New(1), 0)}, {}},
		make([]*channel.Fading, 2))
	st, inert := s.Stations[0], s.Stations[1]
	// Highest priority first: pending beats reserved beats activity.
	st.flags |= flagPendingAtBS | flagReserved
	if got := classify(st); got != bucketPending {
		t.Fatalf("pending station classified %v", got)
	}
	st.flags &^= flagPendingAtBS
	if got := classify(st); got != bucketReserved {
		t.Fatalf("reserved station classified %v", got)
	}
	st.flags &^= flagReserved
	if got := classify(st); got != bucketTalkspurt && got != bucketIdle {
		t.Fatalf("voice station classified %v", got)
	}
	if got := classify(inert); got != bucketIdle {
		t.Fatalf("inert station classified %v", got)
	}
}

func TestBitsetOps(t *testing.T) {
	b := newBitset(130)
	for _, i := range []int{0, 63, 64, 129} {
		if b.has(i) {
			t.Fatalf("bit %d set in fresh bitset", i)
		}
		b.set(i)
		if !b.has(i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	b.clear(64)
	if b.has(64) {
		t.Fatal("bit 64 survived clear")
	}
	if !b.has(63) || !b.has(129) {
		t.Fatal("clear disturbed neighbours")
	}
}

func registrySystem(t *testing.T, nv, nd int) *System {
	t.Helper()
	n := nv + nd
	srcs := make([]Sources, n)
	links := make([]*channel.Fading, n)
	for i := 0; i < n; i++ {
		if i < nv {
			srcs[i].Voice = traffic.NewVoice(traffic.DefaultVoiceParams(), rng.Derive(3, "v", string(rune('a'+i))), 0)
		} else {
			srcs[i].Data = traffic.NewData(traffic.DefaultDataParams(), rng.Derive(3, "d", string(rune('a'+i))), 0)
		}
		links[i] = channel.NewFading(channel.DefaultParams(), rng.Derive(3, "c", string(rune('a'+i))))
	}
	s := &System{}
	Populate(t, s, DefaultConfig(), phy.NewFixed(phy.DefaultParams()), rng.Derive(3, "m"), srcs, links)
	return s
}

// TestResetIndexesStations: Reset builds station i with ID i, deferred
// and parked in the idle bucket, its first wake armed in the wheel when
// it has one and a station without one (-1) never waking; the registry
// holds both before materialization and after it.
func TestResetIndexesStations(t *testing.T) {
	fw := []sim.Time{5, -1, 0, 1 << 20}
	s := &System{}
	err := s.Reset(DefaultConfig(), phy.NewFixed(phy.DefaultParams()), len(fw), rng.New(1), &Population{
		FirstWake: fw,
		Materialize: func(int) (*traffic.VoiceSource, *traffic.DataSource, *channel.Fading) {
			t.Fatal("Reset materialized a station")
			return nil, nil, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range s.Stations {
		if st.ID != i || st.bucket() != bucketIdle || st.flags&flagDeferred == 0 {
			t.Fatalf("station %d: ID %d, bucket %v, deferred %v", i, st.ID, st.bucket(), st.flags&flagDeferred != 0)
		}
		if armed := s.reg.wheel.armed(int32(i)); armed != (fw[i] >= 0) || s.nextWake(st) != fw[i] {
			t.Fatalf("station %d: armed %v, next wake %v, want first wake %v", i, armed, s.nextWake(st), fw[i])
		}
	}
	if err := s.VerifyRegistry(); err != nil {
		t.Fatal(err)
	}
	s = registrySystem(t, 3, 2)
	if err := s.VerifyRegistry(); err != nil {
		t.Fatal(err)
	}
	for i, st := range s.Stations {
		if st.ID != i || st.flags&flagDeferred != 0 {
			t.Fatalf("materialized station %d: ID %d, deferred %v", i, st.ID, st.flags&flagDeferred != 0)
		}
	}
}

func TestReindexMovesBuckets(t *testing.T) {
	s := registrySystem(t, 2, 0)
	st := s.Stations[0]
	st.flags |= flagReserved
	s.Reindex(st)
	if st.bucket() != bucketReserved || !s.reg.sets[bucketReserved].has(st.ID) {
		t.Fatal("reservation did not move the station to the reserved bucket")
	}
	if err := s.VerifyRegistry(); err != nil {
		t.Fatal(err)
	}
	st.flags &^= flagReserved
	s.Reindex(st)
	if s.reg.sets[bucketReserved].has(st.ID) {
		t.Fatal("station left in reserved bucket after release")
	}
	if err := s.VerifyRegistry(); err != nil {
		t.Fatal(err)
	}
}

func TestIdleStationsWakeOnSourceEvents(t *testing.T) {
	s := registrySystem(t, 40, 10)
	// Drive two simulated seconds: stations must migrate between idle and
	// active buckets as talkspurts and bursts come and go, with the timer
	// wheel (not a full scan) reactivating them.
	sawIdle, sawActive := false, false
	for f := 0; f < 800; f++ {
		s.BeginFrame()
		for _, st := range s.Stations {
			if st.bucket() == bucketIdle {
				sawIdle = true
			} else {
				sawActive = true
			}
			// Consume everything so stations drain back to idle.
			if v := st.Voice(); v != nil {
				for v.Buffered() > 0 {
					v.Pop()
				}
			}
			if d := st.Data(); d != nil {
				d.TransmitAttempts(d.Backlog(), s.Now(), func() bool { return true }, func(sim.Time) {})
			}
			s.Reindex(st)
		}
		s.EndFrame(s.FrameDuration())
		if err := s.VerifyRegistry(); err != nil {
			t.Fatalf("frame %d: %v", f, err)
		}
	}
	if !sawIdle || !sawActive {
		t.Fatalf("population never split across idle/active buckets (idle=%v active=%v)", sawIdle, sawActive)
	}
	if s.M.VoiceGenerated.Total() == 0 || s.M.DataGenerated.Total() == 0 {
		t.Fatal("lazily woken stations generated no traffic")
	}
}

// TestLazyChannelReplayMatchesEager pins the byte-identical property of the
// deferred fading replay: observing a station after k idle frames must give
// exactly the amplitude an every-frame advance would have produced.
func TestLazyChannelReplayMatchesEager(t *testing.T) {
	p := channel.DefaultParams()
	eager := channel.NewFading(p, rng.Derive(9, "f"))
	s := registrySystem(t, 1, 0)
	st := s.Stations[0]
	st.fad = channel.NewFading(p, rng.Derive(9, "f"))
	s.reg.chSync[st.ID] = 0

	const k = 57
	for i := 0; i < k; i++ {
		eager.Advance(s.FrameDuration())
		s.EndFrame(s.FrameDuration())
	}
	s.syncChannel(st)
	if got, want := st.fad.Amplitude(), eager.Amplitude(); got != want {
		t.Fatalf("lazy replay amplitude %v, eager %v", got, want)
	}
}
