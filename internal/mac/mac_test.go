package mac

import (
	"math"
	"testing"

	"charisma/internal/channel"
	"charisma/internal/phy"
	"charisma/internal/rng"
	"charisma/internal/sim"
	"charisma/internal/traffic"
)

// makeSystem builds a small cell: nv voice stations then nd data stations.
func makeSystem(t *testing.T, nv, nd int, mutate func(*Config)) *System {
	t.Helper()
	cfg := DefaultConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	n := nv + nd
	slab := channel.NewSlab()
	srcs := make([]Sources, n)
	links := make([]*channel.Fading, n)
	for i := 0; i < n; i++ {
		if i < nv {
			srcs[i].Voice = traffic.NewVoice(traffic.DefaultVoiceParams(), rng.Derive(1, "v", string(rune('a'+i))), 0)
		} else {
			srcs[i].Data = traffic.NewData(traffic.DefaultDataParams(), rng.Derive(1, "d", string(rune('a'+i))), 0)
		}
		links[i] = slab.New(channel.DefaultParams(), rng.DeriveIndexed(1, "chan", i))
	}
	sys := &System{}
	Populate(t, sys, cfg, phy.NewAdaptive(phy.DefaultParams()), rng.Derive(1, "mac"), srcs, links)
	return sys
}

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.PermVoice = 0 },
		func(c *Config) { c.PermVoice = 1.5 },
		func(c *Config) { c.PermData = -0.1 },
		func(c *Config) { c.UseQueue = true; c.QueueCap = 0 },
		func(c *Config) { c.CSIValidityFrames = 0 },
		func(c *Config) { c.StaleDecayPerFrame = 0 },
		func(c *Config) { c.StaleDecayPerFrame = 1.1 },
		func(c *Config) { c.CSIEstNoiseStd = -1 },
		func(c *Config) { c.Geometry.FrameSymbols = 0 },
	}
	for i, mutate := range cases {
		cfg := DefaultConfig()
		mutate(&cfg)
		if cfg.Validate() == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

// TestResetRejectsBadInput: Reset refuses an invalid config, a nil PHY,
// stream, population or hook, and a first-wake slice of the wrong length,
// and accepts the same call with every input sound.
func TestResetRejectsBadInput(t *testing.T) {
	modem := phy.NewFixed(phy.DefaultParams())
	hook := func(int) (*traffic.VoiceSource, *traffic.DataSource, *channel.Fading) { return nil, nil, nil }
	pop := &Population{FirstWake: []sim.Time{0}, Materialize: hook}
	noHook := &Population{FirstWake: pop.FirstWake}
	bad := DefaultConfig()
	bad.PermVoice = 0
	for name, reset := range map[string]func(*System) error{
		"invalid config":    func(s *System) error { return s.Reset(bad, modem, 1, rng.New(1), pop) },
		"nil PHY":           func(s *System) error { return s.Reset(DefaultConfig(), nil, 1, rng.New(1), pop) },
		"nil stream":        func(s *System) error { return s.Reset(DefaultConfig(), modem, 1, nil, pop) },
		"nil population":    func(s *System) error { return s.Reset(DefaultConfig(), modem, 1, rng.New(1), nil) },
		"nil hook":          func(s *System) error { return s.Reset(DefaultConfig(), modem, 1, rng.New(1), noHook) },
		"first-wake length": func(s *System) error { return s.Reset(DefaultConfig(), modem, 2, rng.New(1), pop) },
	} {
		if err := reset(&System{}); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if err := (&System{}).Reset(DefaultConfig(), modem, 1, rng.New(1), pop); err != nil {
		t.Fatalf("sound inputs rejected: %v", err)
	}
}

func TestKindString(t *testing.T) {
	if KindVoice.String() != "voice" || KindData.String() != "data" {
		t.Fatal("kind strings wrong")
	}
}

func TestBeginFrameCountsTraffic(t *testing.T) {
	s := makeSystem(t, 5, 5, nil)
	for f := 0; f < 4000; f++ {
		s.BeginFrame()
		// Drain everything so buffers do not explode.
		for _, st := range s.Stations {
			if st.Voice() != nil {
				for st.Voice().Buffered() > 0 {
					st.Voice().Pop()
				}
			}
			if st.Data() != nil {
				st.Data().TransmitAttempts(st.Data().Backlog(), s.Now(), func() bool { return true }, func(sim.Time) {})
			}
		}
		s.EndFrame(s.FrameDuration())
	}
	if s.M.VoiceGenerated.Total() == 0 {
		t.Fatal("no voice packets counted")
	}
	if s.M.DataGenerated.Total() == 0 {
		t.Fatal("no data packets counted")
	}
	if s.FrameIndex() != 4000 {
		t.Fatalf("frame index = %d", s.FrameIndex())
	}
	if s.Now() != 4000*s.FrameDuration() {
		t.Fatalf("clock = %v", s.Now())
	}
}

func TestBeginFrameDropsExpiredAndReleasesReservation(t *testing.T) {
	s := makeSystem(t, 1, 0, nil)
	st := s.Stations[0]
	// Walk until the station talks and has a packet.
	for f := 0; st.Voice().Buffered() == 0 && f < 100000; f++ {
		s.BeginFrame()
		s.EndFrame(s.FrameDuration())
	}
	s.GrantReservationAt(st, s.Now())
	// Let every packet expire and the talkspurt end without service.
	for f := 0; (st.Voice().Talking() || st.Voice().Buffered() > 0) && f < 1000000; f++ {
		s.BeginFrame()
		s.EndFrame(s.FrameDuration())
	}
	if st.Reserved() {
		t.Fatal("reservation not released after talkspurt drained")
	}
	if s.M.VoiceDropped.Total() == 0 {
		t.Fatal("expired packets not counted as dropped")
	}
}

func TestEndFramePanicsOnZeroDuration(t *testing.T) {
	s := makeSystem(t, 1, 0, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("zero-duration frame accepted")
		}
	}()
	s.EndFrame(0)
}

func TestNeedsRequestPredicates(t *testing.T) {
	s := makeSystem(t, 1, 1, nil)
	v, d := s.Stations[0], s.Stations[1]
	// Walk until both have work.
	for f := 0; (v.Voice().Buffered() == 0 || d.Data().Backlog() == 0) && f < 1000000; f++ {
		s.BeginFrame()
		s.EndFrame(s.FrameDuration())
		if v.Voice().Buffered() > 0 && d.Data().Backlog() > 0 {
			break
		}
	}
	if !s.NeedsVoiceRequest(v) {
		t.Fatal("voice station with packets should need a request")
	}
	if !s.NeedsDataRequest(d) {
		t.Fatal("data station with backlog should need a request")
	}
	if s.RequestKind(v) != KindVoice || s.RequestKind(d) != KindData {
		t.Fatal("request kinds wrong")
	}
	if s.PermissionProb(v) != s.Cfg.PermVoice || s.PermissionProb(d) != s.Cfg.PermData {
		t.Fatal("permission probabilities wrong")
	}
	s.GrantReservation(v)
	if s.NeedsVoiceRequest(v) {
		t.Fatal("reserved voice station should not contend")
	}
	s.CancelReservation(v)
	s.SetPendingAtBS(v, true)
	if s.NeedsVoiceRequest(v) {
		t.Fatal("queued station should not contend")
	}
	s.SetPendingAtBS(d, true)
	if s.NeedsDataRequest(d) {
		t.Fatal("queued data station should not contend")
	}
}

// unstamped returns a ContendStamped stamp slice that excludes nobody.
func unstamped(s *System) []int64 {
	stamps := make([]int64, len(s.Stations))
	for i := range stamps {
		stamps[i] = -1
	}
	return stamps
}

// waitForVoice runs frames until st has a speech packet buffered.
func waitForVoice(s *System, st *Station) {
	for f := 0; st.Voice().Buffered() == 0 && f < 1000000; f++ {
		s.BeginFrame()
		s.EndFrame(s.FrameDuration())
	}
}

func TestContendEmpty(t *testing.T) {
	s := makeSystem(t, 1, 0, nil)
	if s.ContendStamped(unstamped(s), s.FrameIndex()) != nil {
		t.Fatal("empty contention produced a winner")
	}
	if s.M.ReqAttempts.Total() != 0 {
		t.Fatal("empty contention counted an attempt")
	}
}

func TestContendSingleEventuallyWins(t *testing.T) {
	s := makeSystem(t, 1, 0, nil)
	st := s.Stations[0]
	waitForVoice(s, st)
	stamps := unstamped(s)
	won := false
	for i := 0; i < 1000; i++ {
		if s.ContendStamped(stamps, s.FrameIndex()) == st {
			won = true
			break
		}
	}
	if !won {
		t.Fatal("lone contender never won in 1000 minislots at pv=0.1")
	}
	if s.M.ReqSuccesses.Total() == 0 {
		t.Fatal("success not counted")
	}
	// A station stamped with the current frame sits the minislot out.
	stamps[st.ID] = s.FrameIndex()
	for i := 0; i < 100; i++ {
		if s.ContendStamped(stamps, s.FrameIndex()) != nil {
			t.Fatal("a station stamped this frame contended")
		}
	}
}

func TestContendCollisionsCounted(t *testing.T) {
	s := makeSystem(t, 40, 0, func(c *Config) { c.PermVoice = 1.0 })
	for _, st := range s.Stations {
		// Force every station to want a voice grant.
		waitForVoice(s, st)
	}
	n := 0
	s.ForEachCandidate(func(*Station) { n++ })
	if n < 2 {
		t.Skip("not enough simultaneous talkers")
	}
	if w := s.ContendStamped(unstamped(s), s.FrameIndex()); w != nil {
		t.Fatal("p=1 with >=2 contenders must collide")
	}
	if s.M.ReqCollisions.Total() == 0 {
		t.Fatal("collision not counted")
	}
	if got := s.M.ReqAttempts.Total(); got != uint64(n) {
		t.Fatalf("%d attempts counted, want one per contender (%d)", got, n)
	}
}

func TestQueueSemantics(t *testing.T) {
	s := makeSystem(t, 3, 0, func(c *Config) { c.UseQueue = true; c.QueueCap = 2 })
	a, b, cExtra := s.Stations[0], s.Stations[1], s.Stations[2]
	ra := &Request{St: a, Kind: KindVoice}
	rb := &Request{St: b, Kind: KindVoice}
	rc := &Request{St: cExtra, Kind: KindVoice}
	if !s.Enqueue(ra) || !s.Enqueue(rb) {
		t.Fatal("enqueue within cap failed")
	}
	if !a.PendingAtBS() || !b.PendingAtBS() {
		t.Fatal("pending flags not set")
	}
	if s.Enqueue(rc) {
		t.Fatal("enqueue beyond cap succeeded")
	}
	if s.M.QueueRejects.Total() != 1 {
		t.Fatal("queue reject not counted")
	}
	if s.QueueLen() != 2 {
		t.Fatalf("queue length %d", s.QueueLen())
	}
	got := s.PopQueueAt(0)
	if got != ra || ra.St.PendingAtBS() {
		t.Fatal("PopQueueAt wrong")
	}
	rest := s.TakeQueue()
	if len(rest) != 1 || rest[0] != rb || rb.St.PendingAtBS() {
		t.Fatal("TakeQueue wrong")
	}
	if s.QueueLen() != 0 {
		t.Fatal("queue not emptied")
	}
}

func TestQueueDisabledRejects(t *testing.T) {
	s := makeSystem(t, 1, 0, nil) // UseQueue=false
	if s.Enqueue(&Request{St: s.Stations[0], Kind: KindVoice}) {
		t.Fatal("enqueue succeeded with queue disabled")
	}
}

func TestScrubQueueRemovesMootRequests(t *testing.T) {
	s := makeSystem(t, 1, 1, func(c *Config) { c.UseQueue = true })
	v, d := s.Stations[0], s.Stations[1]
	s.Enqueue(&Request{St: v, Kind: KindVoice})
	s.Enqueue(&Request{St: d, Kind: KindData})
	// Voice buffer and data backlog are empty at t=0, so both requests
	// are moot and the next BeginFrame must scrub them.
	s.BeginFrame()
	if v.PendingAtBS() && v.Voice().Buffered() == 0 {
		t.Fatal("moot voice request not scrubbed")
	}
	if d.PendingAtBS() && d.Data().Backlog() == 0 {
		t.Fatal("moot data request not scrubbed")
	}
}

func TestReservationCadenceAnchored(t *testing.T) {
	s := makeSystem(t, 1, 0, nil)
	st := s.Stations[0]
	s.GrantReservation(st)
	first := s.NextVoiceDue(st)
	if first != s.Now()+s.Cfg.Geometry.VoicePeriod {
		t.Fatal("grant did not schedule one period ahead")
	}
	// Simulate serving 3 frames late: the next due must stay on the
	// original 20 ms grid, not shift by the service delay.
	for i := 0; i < 11; i++ {
		s.EndFrame(s.FrameDuration())
	}
	s.AdvanceReservation(st)
	if got := s.NextVoiceDue(st); got != first+s.Cfg.Geometry.VoicePeriod {
		t.Fatalf("cadence drifted: due = %v, want %v", got, first+s.Cfg.Geometry.VoicePeriod)
	}
}

func TestAdvanceReservationCatchesUp(t *testing.T) {
	s := makeSystem(t, 1, 0, nil)
	st := s.Stations[0]
	s.GrantReservationAt(st, 0)
	for i := 0; i < 100; i++ { // advance 100 frames = 12.5 periods
		s.EndFrame(s.FrameDuration())
	}
	s.AdvanceReservation(st)
	if s.NextVoiceDue(st) <= s.Now() {
		t.Fatal("AdvanceReservation left the due time in the past")
	}
	if s.NextVoiceDue(st) > s.Now()+s.Cfg.Geometry.VoicePeriod {
		t.Fatal("AdvanceReservation overshot by more than one period")
	}
}

func TestVoiceReservationsDueOrderingAndSkip(t *testing.T) {
	s := makeSystem(t, 3, 0, nil)
	// Give stations packets by simulation, then set up reservations.
	for f := 0; f < 1000000; f++ {
		all := true
		s.BeginFrame()
		s.EndFrame(s.FrameDuration())
		for _, st := range s.Stations {
			if st.Voice().Buffered() == 0 {
				all = false
			}
		}
		if all {
			break
		}
	}
	a, b, c := s.Stations[0], s.Stations[1], s.Stations[2]
	for _, st := range []*Station{a, b, c} {
		if st.Voice().Buffered() == 0 {
			t.Skip("station never accumulated packets")
		}
	}
	s.GrantReservationAt(a, s.Now()-10)
	s.GrantReservationAt(b, s.Now()-20)
	s.GrantReservationAt(c, s.Now()+1000) // not due
	due := s.VoiceReservationsDue()
	if len(due) != 2 {
		t.Fatalf("%d due, want 2", len(due))
	}
	if due[0] != b || due[1] != a {
		t.Fatal("due list not ordered by due time")
	}
}

func TestTransmitVoiceAccounting(t *testing.T) {
	s := makeSystem(t, 1, 0, nil)
	st := s.Stations[0]
	for f := 0; st.Voice().Buffered() == 0 && f < 1000000; f++ {
		s.BeginFrame()
		s.EndFrame(s.FrameDuration())
	}
	n := st.Voice().Buffered()
	mode := s.PHY.Modes()[0] // most robust mode: errors essentially impossible at normal amplitude
	ok, errs := s.TransmitVoice(st, mode, n)
	if ok+errs != n {
		t.Fatalf("transmitted %d, want %d", ok+errs, n)
	}
	if st.Voice().Buffered() != 0 {
		t.Fatal("voice packets not consumed")
	}
	if s.M.VoiceTxOK.Total() != uint64(ok) || s.M.VoiceTxErr.Total() != uint64(errs) {
		t.Fatal("voice tx metrics wrong")
	}
}

func TestTransmitVoiceDeepFadeErrors(t *testing.T) {
	s := makeSystem(t, 1, 0, nil)
	st := s.Stations[0]
	for f := 0; st.Voice().Buffered() == 0 && f < 1000000; f++ {
		s.BeginFrame()
		s.EndFrame(s.FrameDuration())
	}
	// Transmitting in the top mode during what is effectively a deep fade
	// relative to its threshold must fail essentially always: force this
	// by using the highest mode at whatever amplitude and checking that
	// the PER model is respected statistically over many trials instead.
	top := s.PHY.Modes()[len(s.PHY.Modes())-1]
	per := s.PHY.PacketErrorProb(top, 0.01)
	if per < 0.999 {
		t.Fatalf("PER in deep fade = %v, want ~1", per)
	}
}

func TestTransmitDataRecordsDelay(t *testing.T) {
	s := makeSystem(t, 0, 1, nil)
	st := s.Stations[0]
	for f := 0; st.Data().Backlog() == 0 && f < 1000000; f++ {
		s.BeginFrame()
		s.EndFrame(s.FrameDuration())
	}
	mode := s.PHY.Modes()[0]
	n := st.Data().Backlog()
	if n > 10 {
		n = 10
	}
	ok, errs := s.TransmitData(st, mode, n)
	if ok+errs != n {
		t.Fatalf("attempted %d, want %d", ok+errs, n)
	}
	if s.M.DataDelivered.Total() != uint64(ok) {
		t.Fatal("delivered metric wrong")
	}
	if ok > 0 {
		r := s.M.Result("x", s.Cfg.Geometry.FrameSymbols)
		if r.MeanDataDelaySec < 0 {
			t.Fatal("negative mean delay")
		}
	}
}

func TestEffectiveAmpDecay(t *testing.T) {
	s := makeSystem(t, 1, 0, nil)
	e := channel.Estimate{Amp: 1.0, At: 0}
	if got := s.EffectiveAmp(e); got != 1.0 {
		t.Fatalf("fresh estimate decayed: %v", got)
	}
	for i := 0; i < 4; i++ {
		s.EndFrame(s.FrameDuration())
	}
	want := math.Pow(s.Cfg.StaleDecayPerFrame, 4)
	if got := s.EffectiveAmp(e); math.Abs(got-want) > 1e-12 {
		t.Fatalf("4-frame-old estimate = %v, want %v", got, want)
	}
}

func TestEstimateStale(t *testing.T) {
	s := makeSystem(t, 1, 0, nil)
	e := channel.Estimate{Amp: 1, At: 0}
	if s.EstimateStale(e) {
		t.Fatal("fresh estimate flagged stale")
	}
	for i := 0; i < s.Cfg.CSIValidityFrames+1; i++ {
		s.EndFrame(s.FrameDuration())
	}
	if !s.EstimateStale(e) {
		t.Fatal("old estimate not flagged stale")
	}
}

func TestNewRequestCarriesPilotEstimate(t *testing.T) {
	s := makeSystem(t, 1, 1, nil)
	v, d := s.Stations[0], s.Stations[1]
	for f := 0; (v.Voice().Buffered() == 0 || d.Data().Backlog() == 0) && f < 1000000; f++ {
		s.BeginFrame()
		s.EndFrame(s.FrameDuration())
	}
	rv := s.NewRequest(v, KindVoice)
	if rv.NPkts != v.Voice().Buffered() || rv.Kind != KindVoice {
		t.Fatal("voice request fields wrong")
	}
	if rv.Est.At != s.Now() {
		t.Fatal("estimate not stamped at now")
	}
	if rv.Est.Amp <= 0 {
		t.Fatal("estimate amplitude not positive")
	}
	rd := s.NewRequest(d, KindData)
	if rd.NPkts != d.Data().Backlog() || rd.Kind != KindData {
		t.Fatal("data request fields wrong")
	}
}

func TestRefreshEstimateCountsPoll(t *testing.T) {
	s := makeSystem(t, 1, 0, nil)
	before := s.M.CSIPolls.Total()
	s.RefreshEstimate(s.Stations[0])
	if s.M.CSIPolls.Total() != before+1 {
		t.Fatal("poll not counted")
	}
}

func TestMetricsResult(t *testing.T) {
	var m Metrics
	m.VoiceGenerated.Add(1000)
	m.VoiceDropped.Add(30)
	m.VoiceTxErr.Add(20)
	m.VoiceTxOK.Add(950)
	m.DataDelivered.Add(400)
	m.MeasuredTicks.Add(800 * 100)
	m.ReqSuccesses.Add(90)
	m.ReqCollisions.Add(10)
	m.InfoSymbolsTotal.Add(1000)
	m.InfoSymbolsUsed.Add(750)
	r := m.Result("test", 800)
	if math.Abs(r.VoiceLossRate-0.05) > 1e-12 {
		t.Fatalf("Ploss = %v, want 0.05", r.VoiceLossRate)
	}
	if math.Abs(r.VoiceDropRate-0.03) > 1e-12 || math.Abs(r.VoiceErrorRate-0.02) > 1e-12 {
		t.Fatal("loss split wrong")
	}
	if r.Frames != 100 {
		t.Fatalf("frames = %v", r.Frames)
	}
	if math.Abs(r.DataThroughputPerFrame-4) > 1e-12 {
		t.Fatalf("throughput = %v, want 4", r.DataThroughputPerFrame)
	}
	if math.Abs(r.CollisionRate-0.1) > 1e-12 {
		t.Fatalf("collision rate = %v", r.CollisionRate)
	}
	if math.Abs(r.InfoUtilization-0.75) > 1e-12 {
		t.Fatalf("utilization = %v", r.InfoUtilization)
	}
}

func TestMetricsMarkExcludesWarmup(t *testing.T) {
	var m Metrics
	m.VoiceGenerated.Add(500)
	m.VoiceDropped.Add(500)
	m.ObserveDataDelay(10 * sim.Second)
	m.Mark()
	m.VoiceGenerated.Add(100)
	m.VoiceTxOK.Add(100)
	m.MeasuredTicks.Add(800)
	r := m.Result("test", 800)
	if r.VoiceLossRate != 0 {
		t.Fatalf("warm-up losses leaked into result: %v", r.VoiceLossRate)
	}
	if r.MeanDataDelaySec != 0 {
		t.Fatal("warm-up delay samples leaked")
	}
}
