package grid

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"charisma/internal/mac"
	"charisma/internal/rng"
	"charisma/internal/run"
	"charisma/internal/stats"
)

// Precision configures the adaptive replication controller. The zero value
// disables adaptation: every point runs exactly its requested replications.
type Precision struct {
	// TargetRel is the target relative precision ε: a sweep point stops
	// growing once, for every headline metric with a nonzero mean (voice
	// loss, data throughput, mean data delay), the across-replication
	// Student-t CI95 half-width is ≤ ε·|mean|. Zero or negative disables
	// adaptation.
	TargetRel float64
	// MaxReps is the hard cap on a point's replication count; values
	// below 1 mean DefaultMaxReps.
	MaxReps int
}

// DefaultMaxReps caps adaptive growth when Precision.MaxReps is unset.
const DefaultMaxReps = 64

// Enabled reports whether adaptation is active.
func (p Precision) Enabled() bool { return p.TargetRel > 0 }

func (p Precision) repCap() int {
	if p.MaxReps > 0 {
		return p.MaxReps
	}
	return DefaultMaxReps
}

// Point is one sweep point: a spec plus its initial replication count
// (grown further when the session's Precision asks for it).
type Point struct {
	Spec JobSpec
	// Replications is the initial independent-run count; below 1 means 1.
	Replications int
}

// Task is one schedulable unit of work: replication Rep of the point's
// spec. The spec rides along so a worker needs no side channel. Lease
// identifies the dispatch the task was handed out under (see the lease
// lifecycle on Session); a result must echo it so the coordinator can
// tell a current execution from a superseded one.
type Task struct {
	Point int
	Rep   int
	Lease int64
	Spec  JobSpec
}

// TaskResult reports one executed task. Err is a string so the type
// crosses the wire; an empty Err means Result is valid. Lease echoes the
// dispatch lease the task was claimed under; a result without one is
// rejected, since only a claimed task can complete.
type TaskResult struct {
	Point  int
	Rep    int
	Lease  int64  `json:",omitempty"`
	Err    string `json:",omitempty"`
	Result mac.Result
}

// ref addresses one (point, rep) slot awaiting a shared task's result.
type ref struct{ point, rep int }

type pointState struct {
	scheduled int // replications targeted so far (cached + queued + running)
	completed int // replications resolved (success or failure)
	failed    int
	settled   bool // no further growth; completed == scheduled
	anomaly   bool // CI95 still past target at the replication cap (reported once)
	results   []mac.Result
	ok        []bool
	errs      []error
}

// lease tracks one outstanding task dispatch. A lease with a zero
// deadline never expires — the loopback pool uses that form, because an
// in-process worker can only die with the whole coordinator, where
// context cancellation already unwinds the session. An expirable lease
// (remote dispatch) must be renewed via Renew before its deadline or the
// task is re-queued and the lease superseded.
type lease struct {
	id        int64
	task      Task
	key       string
	worker    string
	deadline  time.Time
	claimedAt time.Time // lease creation; feeds the rep-duration histogram
}

// sessionSerial numbers sessions process-wide so progress consumers can
// tell consecutive sweeps of one process apart.
var sessionSerial atomic.Int64

// Session is one sweep's coordinator state. It is safe for concurrent use
// by any mix of transports: loopback workers, the HTTP server, and cache
// resolution all pull from and complete into the same queue, so every
// execution path runs the same scheduling code.
//
// Replications are merged in rep-index order per point, and adaptive
// growth decisions depend only on completed results — never on timing or
// on which transport ran a task — so a session's Results are
// byte-identical across transports and across warm-cache re-runs.
//
// Lease lifecycle: every dispatched task is wrapped in a lease. An
// expirable lease that misses its deadline is presumed crashed: the task
// re-enters the queue (with the late worker excluded from immediately
// re-claiming it) and the lease is superseded, so a result that later
// arrives under it is discarded before it can touch the cache or the
// point states. Exactly one delivery per (spec, rep-seed) key ever
// lands, which is why crash timing and duplicate deliveries can never
// change the bytes a sweep produces.
type Session struct {
	points []Point
	hashes []string
	keys   [][]string // point → RepKeys of its initial replications
	cache  Cache
	pre    map[string]*mac.Result // initial cache answers (nil: miss), only inside NewSession
	prec   Precision
	serial int64

	mu sync.Mutex
	// cond wakes task waiters (NextWait, Wait): signalled when work is
	// queued, re-queued, or the session closes. progCond wakes progress
	// waiters and is signalled on every version bump — keeping the two
	// apart stops a mere claim (which only removes work) from waking
	// every blocked worker.
	cond     *sync.Cond
	progCond *sync.Cond
	queue    []Task
	inflight map[string][]ref
	states   []*pointState
	leases   map[int64]*lease
	leaseSeq int64
	avoid    map[string]string // repKey → worker excluded from immediate re-pickup
	expiry   *time.Timer
	version  int64
	executed int
	hits     int
	requeues int
	// unconverged counts points pinned at the replication cap with their
	// CI95 still past the target (each counted once, where anomaly is set).
	unconverged int
	closed      bool

	// Byzantine-result defense (see Audit / audit.go). auditCond wakes the
	// audit executor when a remote result is parked for re-execution;
	// delivered tracks the provenance of unaudited remote results so a
	// quarantine can unwind them; quarantined workers get no tasks and
	// their posts die on lease validation.
	audit        Audit
	auditRng     *rng.Stream
	audits       []auditJob
	auditing     int
	auditCond    *sync.Cond
	quarantined  map[string]bool
	delivered    map[string]deliveredEntry
	auditsPassed int
	auditsFailed int
	quarantines  int

	// log receives structured scheduling events (lease expiry re-queues,
	// sweep-point anomalies) when set via SetLogger; nil stays silent.
	log *slog.Logger
	// repDur observes wall-clock seconds from lease claim to accepted
	// completion; /metrics exports it.
	repDur repDurHist
}

// NewSession validates and hashes every point, resolves the initial
// replications against the cache, and queues the misses. Identical
// (spec, rep-seed) pairs — within a point or across points — are
// deduplicated: one simulation feeds every slot that wants it.
func NewSession(points []Point, cache Cache, prec Precision) (*Session, error) {
	if cache == nil {
		cache = NewMemCache()
	}
	s := &Session{
		points:   points,
		hashes:   make([]string, len(points)),
		cache:    cache,
		prec:     prec,
		serial:   sessionSerial.Add(1),
		inflight: make(map[string][]ref),
		states:   make([]*pointState, len(points)),
		leases:   make(map[int64]*lease),
		avoid:    make(map[string]string),

		quarantined: make(map[string]bool),
		delivered:   make(map[string]deliveredEntry),
	}
	s.cond = sync.NewCond(&s.mu)
	s.progCond = sync.NewCond(&s.mu)
	s.auditCond = sync.NewCond(&s.mu)

	// Hash every point and derive its initial keys, then resolve each
	// distinct key against the cache once — both spread over run.Map
	// before s.mu is taken. The answers fold in below in (point, rep)
	// order, exactly as serial Gets would; growth keeps serial Gets.
	s.keys = make([][]string, len(points))
	errs := make([]error, len(points))
	run.Map(context.TODO(), 0, len(points), func(j int) (struct{}, error) {
		errs[j] = s.hashPoint(j)
		return struct{}{}, nil
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	var distinct []string
	s.pre = make(map[string]*mac.Result)
	for _, ks := range s.keys {
		for _, k := range ks {
			if _, dup := s.pre[k]; !dup {
				s.pre[k] = nil
				distinct = append(distinct, k)
			}
		}
	}
	answers, _ := run.Map(context.TODO(), 0, len(distinct), func(i int) (*mac.Result, error) {
		if r, hit := cache.Get(distinct[i]); hit {
			return &r, nil
		}
		return nil, nil
	})
	for i, k := range distinct {
		s.pre[k] = answers[i]
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	var work []int
	for j, ks := range s.keys {
		s.states[j] = &pointState{}
		s.growPoint(j, len(ks), &work)
	}
	s.pre = nil
	s.settleLoop(work)
	s.checkDone()
	s.bump()
	return s, nil
}

// hashPoint validates point j, hashes its spec, and derives the keys of
// its initial replications. Each call writes only index j.
func (s *Session) hashPoint(j int) error {
	pt := s.points[j]
	if err := pt.Spec.Validate(); err != nil {
		return fmt.Errorf("grid: point %d: %w", j, err)
	}
	h, err := pt.Spec.Hash()
	if err != nil {
		return fmt.Errorf("grid: point %d: %w", j, err)
	}
	s.hashes[j] = h
	n := max(pt.Replications, 1)
	if s.prec.Enabled() {
		n = min(n, s.prec.repCap())
	}
	ks := make([]string, n)
	for rep := range ks {
		ks[rep] = RepKey(h, run.RepSeed(pt.Spec.BaseSeed(), rep))
	}
	s.keys[j] = ks
	return nil
}

// repKey derives the content address of (point j, rep), memoized for the
// initial replications. It reads only immutable session state, so no lock
// is needed.
func (s *Session) repKey(j, rep int) string {
	if ks := s.keys[j]; rep < len(ks) {
		return ks[rep]
	}
	return RepKey(s.hashes[j], run.RepSeed(s.points[j].Spec.BaseSeed(), rep))
}

// lookup resolves a slot's key: from the prefetched answers while
// NewSession folds in the initial replications, from the cache after.
// Caller holds s.mu.
func (s *Session) lookup(key string) (mac.Result, bool) {
	if r, ok := s.pre[key]; ok {
		if r == nil {
			return mac.Result{}, false
		}
		return *r, true
	}
	return s.cache.Get(key)
}

// bump advances the progress version and wakes progress subscribers.
// Task waiters are woken separately, only by events that give them
// something to do (work queued or re-queued, session closed). Caller
// holds s.mu.
func (s *Session) bump() {
	s.version++
	s.progCond.Broadcast()
}

// growPoint raises point j's target to target reps, resolving each new rep
// against the cache and queueing misses. Caller holds s.mu.
func (s *Session) growPoint(j, target int, work *[]int) {
	st := s.states[j]
	for rep := st.scheduled; rep < target; rep++ {
		st.results = append(st.results, mac.Result{})
		st.ok = append(st.ok, false)
		s.scheduleRep(j, rep)
	}
	st.scheduled = target
	if st.completed == st.scheduled {
		*work = append(*work, j)
	}
}

// scheduleRep resolves one (point, rep) slot: cache hit, join an in-flight
// identical task, or enqueue a fresh one. Caller holds s.mu.
func (s *Session) scheduleRep(j, rep int) {
	key := s.repKey(j, rep)
	if res, ok := s.lookup(key); ok {
		st := s.states[j]
		st.results[rep] = res
		st.ok[rep] = true
		st.completed++
		s.hits++
		if e, tracked := s.delivered[key]; tracked {
			// The hit consumed an unaudited remote result; record this slot
			// so quarantining the producer unwinds it too.
			e.refs = append(e.refs, ref{j, rep})
			s.delivered[key] = e
		}
		return
	}
	if refs, ok := s.inflight[key]; ok {
		s.inflight[key] = append(refs, ref{j, rep})
		return
	}
	s.inflight[key] = []ref{{j, rep}}
	s.queue = append(s.queue, Task{Point: j, Rep: rep, Spec: s.points[j].Spec})
	s.cond.Broadcast()
}

// settleLoop drains completed points: each either settles or grows, and a
// growth that is fully served by the cache re-enters the loop. Caller
// holds s.mu.
func (s *Session) settleLoop(work []int) {
	for len(work) > 0 {
		j := work[0]
		work = work[1:]
		st := s.states[j]
		if st.settled || st.completed != st.scheduled {
			continue
		}
		if target := s.nextTarget(j); target > st.scheduled {
			s.growPoint(j, target, &work)
		} else {
			st.settled = true
		}
	}
}

// nextTarget is the adaptive controller's decision for a completed point:
// the new replication target, or the current one to settle. It is a pure
// function of the point's completed results, so growth is deterministic
// across transports. Caller holds s.mu.
func (s *Session) nextTarget(j int) int {
	st := s.states[j]
	if !s.prec.Enabled() {
		return st.scheduled
	}
	repCap := s.prec.repCap()
	if st.scheduled >= repCap {
		// A point pinned at the cap whose CI95 still misses the target is
		// a sweep anomaly: something in this parameter corner has
		// pathological variance. Report once per point; the growth
		// decision itself stays a pure function of the completed results.
		if !st.anomaly && st.failed == 0 && st.completed >= 2 && !s.converged(st) {
			st.anomaly = true
			s.unconverged++
			if s.log != nil {
				s.log.Warn("sweep point hit replication cap without converging",
					"session", s.serial, "point", j, "reps", st.scheduled)
			}
		}
		return st.scheduled
	}
	if st.failed > 0 {
		// A failing spec won't converge by replication; stop spending.
		return st.scheduled
	}
	if st.completed >= 2 && s.converged(st) {
		return st.scheduled
	}
	// Grow by half, at least one, capped — a geometric schedule keeps the
	// number of synchronization rounds logarithmic in the final N.
	next := st.scheduled + st.scheduled/2
	if next <= st.scheduled {
		next = st.scheduled + 1
	}
	if next > repCap {
		next = repCap
	}
	return next
}

// converged reports whether every applicable headline metric meets the
// target relative precision across the point's successful replications.
// Metrics with a zero mean (e.g. data delay in a voice-only cell) carry no
// relative-precision requirement.
func (s *Session) converged(st *pointState) bool {
	metrics := [...]func(mac.Result) float64{
		func(r mac.Result) float64 { return r.VoiceLossRate },
		func(r mac.Result) float64 { return r.DataThroughputPerFrame },
		func(r mac.Result) float64 { return r.MeanDataDelaySec },
	}
	for _, metric := range metrics {
		var mv stats.MeanVar
		for i, ok := range st.ok {
			if ok {
				mv.Add(metric(st.results[i]))
			}
		}
		mean := math.Abs(mv.Mean())
		if mean == 0 {
			continue
		}
		if mv.TCI95() > s.prec.TargetRel*mean {
			return false
		}
	}
	return true
}

// checkDone closes the session when every point has settled and no audit
// is parked or executing — a failed audit reopens slots, so the session
// must outlive every outstanding verdict. Caller holds s.mu.
func (s *Session) checkDone() {
	if len(s.audits) > 0 || s.auditing > 0 {
		return
	}
	for _, st := range s.states {
		if !st.settled {
			return
		}
	}
	if !s.closed {
		s.closed = true
		if s.expiry != nil {
			s.expiry.Stop()
		}
		s.cond.Broadcast()
		s.auditCond.Broadcast()
		s.bump()
	}
}

// claim pops the next claimable task and wraps it in a lease (expirable
// when ttl > 0). A worker whose previous lease on a task expired is
// skipped over that task while any other queued task exists — the
// zombie-worker guard: a worker that outlived its lease must not
// immediately re-claim the same task and time it out again — but falls
// back to it when it is the only work left, so a lone surviving worker
// still makes progress. Caller holds s.mu.
func (s *Session) claim(worker string, ttl time.Duration) (Task, bool) {
	if worker != "" && s.quarantined[worker] {
		// A quarantined worker is never handed work again; it sees an
		// always-empty queue and drains out via its idle limit.
		return Task{}, false
	}
	if len(s.queue) == 0 {
		return Task{}, false
	}
	pick := 0
	if worker != "" && len(s.avoid) > 0 {
		pick = -1
		fallback := -1
		for i := range s.queue {
			if s.avoid[s.repKey(s.queue[i].Point, s.queue[i].Rep)] == worker {
				if fallback < 0 {
					fallback = i
				}
				continue
			}
			pick = i
			break
		}
		if pick < 0 {
			pick = fallback
		}
	}
	t := s.queue[pick]
	s.queue = append(s.queue[:pick], s.queue[pick+1:]...)
	key := s.repKey(t.Point, t.Rep)
	delete(s.avoid, key)
	s.leaseSeq++
	l := &lease{id: s.leaseSeq, key: key, worker: worker, claimedAt: time.Now()}
	if ttl > 0 {
		l.deadline = l.claimedAt.Add(ttl)
	}
	t.Lease = l.id
	l.task = t
	s.leases[l.id] = l
	if ttl > 0 {
		s.armExpiry()
	}
	s.bump()
	return t, true
}

// armExpiry (re)schedules the expiry sweep for the earliest expirable
// deadline; a no-op when nothing can expire. Caller holds s.mu.
func (s *Session) armExpiry() {
	if s.closed {
		return
	}
	var next time.Time
	for _, l := range s.leases {
		if l.deadline.IsZero() {
			continue
		}
		if next.IsZero() || l.deadline.Before(next) {
			next = l.deadline
		}
	}
	if next.IsZero() {
		return
	}
	d := time.Until(next)
	if d < 0 {
		d = 0
	}
	if s.expiry == nil {
		s.expiry = time.AfterFunc(d, s.expireTick)
	} else {
		s.expiry.Reset(d)
	}
}

// expireTick is the expiry timer callback.
func (s *Session) expireTick() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.expireOverdue(time.Now())
	s.armExpiry()
}

// expireOverdue re-queues every task whose lease deadline has passed: the
// lease is dropped (superseding it — a result that later arrives under it
// is discarded), the task goes back to the queue, and the worker that
// held it is recorded in avoid so it cannot immediately re-claim the same
// task. Caller holds s.mu.
func (s *Session) expireOverdue(now time.Time) {
	changed := false
	for id, l := range s.leases {
		if l.deadline.IsZero() || now.Before(l.deadline) {
			continue
		}
		delete(s.leases, id)
		if l.worker != "" {
			s.avoid[l.key] = l.worker
		}
		t := l.task
		t.Lease = 0
		s.queue = append(s.queue, t)
		s.requeues++
		changed = true
		if s.log != nil {
			s.log.Warn("lease expired, task re-queued",
				"session", s.serial, "worker", l.worker, "lease", id,
				"point", t.Point, "rep", t.Rep, "held", now.Sub(l.claimedAt))
		}
	}
	if changed {
		s.cond.Broadcast() // re-queued work: wake blocked claimers
		s.bump()
	}
}

// Renew extends an expirable lease's deadline to ttl from now — the
// worker heartbeat. It reports whether the lease is still current: false
// means the lease expired (its task was re-queued) or the session closed,
// and the worker should abandon the task, since its eventual result would
// be discarded anyway.
func (s *Session) Renew(id int64, ttl time.Duration) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	l, ok := s.leases[id]
	if !ok || s.closed {
		return false
	}
	if !l.deadline.IsZero() && ttl > 0 {
		l.deadline = time.Now().Add(ttl)
		s.armExpiry()
	}
	return true
}

// TryClaim pops a queued task without blocking, leased to worker with
// deadline ttl from now (ttl ≤ 0 means the lease never expires). The
// worker name feeds the re-queue exclusion — a worker is skipped over a
// task it previously timed out on while other work exists. ok reports a
// task was returned; done reports the session has finished (no task will
// ever come again). Neither ok nor done means the queue is momentarily
// empty — more tasks may appear when adaptive growth triggers or an
// expired lease re-queues one.
func (s *Session) TryClaim(worker string, ttl time.Duration) (t Task, ok, done bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t, ok := s.claim(worker, ttl); ok {
		return t, true, false
	}
	return Task{}, false, s.closed
}

// NextWait blocks until a task is available, the session finishes, or the
// context is cancelled; ok is false in the latter two cases. The task is
// held under a non-expiring lease (in-process workers fail only with the
// whole coordinator).
func (s *Session) NextWait(ctx context.Context) (Task, bool) {
	stop := context.AfterFunc(ctx, func() {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	defer stop()
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.closed || ctx.Err() != nil {
			return Task{}, false
		}
		if t, ok := s.claim("", 0); ok {
			return t, true
		}
		s.cond.Wait()
	}
}

// Complete records one executed task's outcome, caches successes, fans the
// result out to every deduplicated (point, rep) slot, and runs the
// adaptive controller on points it completed. A result that carries no
// lease is an error: it names no claim, so accepting it would let any
// client plant a result (unaudited, straight into the cache) for a task
// nobody ran. A result under a superseded lease — the task timed out and
// was re-queued — is discarded before it can touch the cache or the
// point states, as are duplicate and stray deliveries and anything posted
// by a quarantined worker, so crash timing never changes what a sweep
// observes.
//
// When auditing is enabled, a successful result delivered under a named
// worker's lease may be parked for re-execution instead of landing
// immediately: its key stays in flight until the audit executor either
// verifies it (byte-identical to a local re-run) or quarantines the
// worker (see audit.go).
func (s *Session) Complete(r TaskResult) error {
	if r.Point < 0 || r.Point >= len(s.points) {
		return fmt.Errorf("grid: result for unknown point %d", r.Point)
	}
	if r.Rep < 0 {
		return fmt.Errorf("grid: result for negative rep %d", r.Rep)
	}
	if r.Lease == 0 {
		return fmt.Errorf("grid: result for point %d rep %d carries no lease", r.Point, r.Rep)
	}
	key := s.repKey(r.Point, r.Rep)
	s.mu.Lock()
	defer s.mu.Unlock()
	l, ok := s.leases[r.Lease]
	if !ok || l.key != key {
		// Superseded lease: the task was re-queued (and possibly
		// re-executed) after this worker was presumed dead — or the
		// worker was quarantined, which supersedes all its leases. The
		// late result is dropped without touching anything: exactly one
		// delivery per key may land.
		return nil
	}
	worker := l.worker
	delete(s.leases, r.Lease)
	delete(s.avoid, key)
	if !l.claimedAt.IsZero() {
		s.repDur.observe(time.Since(l.claimedAt).Seconds())
	}
	if _, present := s.inflight[key]; !present {
		// Duplicate or stray delivery: drop it *before* touching the
		// cache, so an unscheduled (point, rep) can never plant a result
		// under a key a future sweep would legitimately look up.
		return nil
	}
	var taskErr error
	if r.Err != "" {
		taskErr = errors.New(r.Err)
	}
	if taskErr == nil && worker != "" && s.auditPickLocked() {
		// Park for re-execution; the key stays in flight so duplicates
		// still dedup and growth still joins it.
		s.audits = append(s.audits, auditJob{key: key, point: r.Point, rep: r.Rep, worker: worker, claimed: r.Result})
		s.auditCond.Signal()
		return nil
	}
	s.deliverLocked(key, r.Result, taskErr, worker)
	return nil
}

// deliverLocked lands one resolved key: caches a success, records its
// provenance when it came from a (still-unaudited) remote worker, fans it
// out to every waiting (point, rep) slot, and runs the adaptive
// controller. Caller holds s.mu; the key must be in flight.
func (s *Session) deliverLocked(key string, result mac.Result, taskErr error, worker string) {
	refs := s.inflight[key]
	delete(s.inflight, key)
	if len(refs) == 0 {
		return
	}
	if taskErr == nil {
		s.cache.Put(key, result)
		if worker != "" && s.audit.Enabled() {
			s.delivered[key] = deliveredEntry{worker: worker, refs: refs}
		}
	}
	s.executed++
	var work []int
	for _, rf := range refs {
		st := s.states[rf.point]
		if st.ok[rf.rep] {
			continue
		}
		if taskErr != nil {
			st.errs = append(st.errs, fmt.Errorf("grid: point %d rep %d: %w", rf.point, rf.rep, taskErr))
			st.failed++
		} else {
			st.results[rf.rep] = result
			st.ok[rf.rep] = true
		}
		st.completed++
		if st.completed == st.scheduled {
			work = append(work, rf.point)
		}
	}
	s.settleLoop(work)
	s.checkDone()
	s.bump()
}

// Wait blocks until the session finishes or the context is cancelled.
func (s *Session) Wait(ctx context.Context) error {
	stop := context.AfterFunc(ctx, func() {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	defer stop()
	s.mu.Lock()
	defer s.mu.Unlock()
	for !s.closed {
		if err := ctx.Err(); err != nil {
			return err
		}
		s.cond.Wait()
	}
	return nil
}

// Serial returns the process-wide session serial number.
func (s *Session) Serial() int64 { return s.serial }

// SetLogger directs the session's structured scheduling events (lease
// expiries, anomalies) to l; nil silences them.
func (s *Session) SetLogger(l *slog.Logger) {
	s.mu.Lock()
	s.log = l
	s.mu.Unlock()
}

// CacheStats returns the hit/miss traffic of the session's cache stack,
// when the cache counts it (ok false otherwise).
func (s *Session) CacheStats() (CacheStats, bool) {
	if sr, ok := s.cache.(StatsReporter); ok {
		return sr.Stats(), true
	}
	return CacheStats{}, false
}

// Results aggregates each point's successful replications, in rep-index
// order, via mac.AggregateReplications. Failures never discard a sweep:
// partial per-point aggregates are returned alongside the joined error
// (which also flags an unfinished session).
func (s *Session) Results() ([]mac.Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]mac.Result, len(s.points))
	var errs []error
	for j, st := range s.states {
		good := make([]mac.Result, 0, st.completed-st.failed)
		for i, ok := range st.ok {
			if ok {
				good = append(good, st.results[i])
			}
		}
		out[j] = mac.AggregateReplications(good)
		errs = append(errs, st.errs...)
	}
	if !s.closed {
		errs = append(errs, errors.New("grid: session incomplete"))
	}
	return out, errors.Join(errs...)
}

// PointProgress is one sweep point's live status within a running
// session: how many replications have resolved and the partial aggregate
// over the successful ones, so a renderer can draw a panel point before
// the whole sweep settles.
type PointProgress struct {
	Point     int
	Scheduled int  // replication target so far (may still grow)
	Done      int  // replications resolved (success or failure)
	Failed    int  // resolved with an error
	Settled   bool // no further growth; Done == Scheduled
	// Aggregate pools the successful replications completed so far via
	// mac.AggregateReplications; its Reps field carries the live
	// across-replication CI95 half-widths.
	Aggregate mac.Result
}

// Progress is one snapshot of a session's state, Version-stamped so
// consumers can cheaply detect change. Snapshots are cumulative, not
// diffs: each carries every point.
type Progress struct {
	Session   int64 // process-wide session serial
	Version   int64 // strictly increases with every state change
	Points    []PointProgress
	Executed  int
	CacheHits int
	Requeues  int // tasks re-queued from expired leases or quarantines
	Leases    int // tasks currently out under a lease
	// Unconverged counts points that reached the replication cap with
	// their CI95 still past the precision target.
	Unconverged int
	// Byzantine-audit state (zero unless DriveConfig.Audit is enabled).
	AuditsPassed int // remote results verified byte-identical by re-execution
	AuditsFailed int // remote results that diverged from re-execution
	Quarantined  int // workers barred after a divergent audit
	Done         bool
}

// countersLocked reads the session's counters: a Progress without Points.
// Caller holds s.mu.
func (s *Session) countersLocked() Progress {
	return Progress{
		Session:      s.serial,
		Version:      s.version,
		Executed:     s.executed,
		CacheHits:    s.hits,
		Requeues:     s.requeues,
		Leases:       len(s.leases),
		Unconverged:  s.unconverged,
		AuditsPassed: s.auditsPassed,
		AuditsFailed: s.auditsFailed,
		Quarantined:  s.quarantines,
		Done:         s.closed,
	}
}

// counters returns the session's counters without the per-point
// snapshot: one locked read that copies and aggregates no results.
// /stats, /metrics and SweepStats read it.
func (s *Session) counters() Progress {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.countersLocked()
}

// progressLocked copies the snapshot's raw state: counters plus each
// point's successful results so far. The O(points × reps) aggregation
// happens in finishProgress, outside the session mutex, so building a
// snapshot never stalls claimers or completions beyond a copy. Caller
// holds s.mu.
func (s *Session) progressLocked() (Progress, [][]mac.Result) {
	p := s.countersLocked()
	p.Points = make([]PointProgress, len(s.states))
	good := make([][]mac.Result, len(s.states))
	for j, st := range s.states {
		g := make([]mac.Result, 0, st.completed-st.failed)
		for i, ok := range st.ok {
			if ok {
				g = append(g, st.results[i])
			}
		}
		good[j] = g
		p.Points[j] = PointProgress{
			Point:     j,
			Scheduled: st.scheduled,
			Done:      st.completed,
			Failed:    st.failed,
			Settled:   st.settled,
		}
	}
	return p, good
}

// finishProgress fills in the per-point aggregates from the copied raw
// results. Runs without the session mutex.
func finishProgress(p *Progress, good [][]mac.Result) {
	for j := range p.Points {
		p.Points[j].Aggregate = mac.AggregateReplications(good[j])
	}
}

// Progress returns the current snapshot.
func (s *Session) Progress() Progress {
	s.mu.Lock()
	p, good := s.progressLocked()
	s.mu.Unlock()
	finishProgress(&p, good)
	return p
}

// WaitProgress blocks until the session's progress version exceeds after,
// then returns the current snapshot. more is false when no further
// snapshot will come: the session closed (the returned snapshot is final)
// or the context was cancelled.
func (s *Session) WaitProgress(ctx context.Context, after int64) (p Progress, more bool) {
	stop := context.AfterFunc(ctx, func() {
		s.mu.Lock()
		s.progCond.Broadcast()
		s.mu.Unlock()
	})
	defer stop()
	s.mu.Lock()
	for s.version <= after && !s.closed && ctx.Err() == nil {
		s.progCond.Wait()
	}
	p, good := s.progressLocked()
	more = !s.closed && ctx.Err() == nil
	s.mu.Unlock()
	finishProgress(&p, good)
	return p, more
}

// SweepStats accumulates grid activity across the sessions of one process
// (a multi-panel experiments run attaches one session per sweep).
type SweepStats struct {
	Simulated   int
	CacheHits   int
	Requeues    int
	Quarantined int
	Unconverged int // points at the replication cap, CI95 past the target
}

// Observe folds one finished session's counters into the stats. It
// copies and aggregates no results.
func (st *SweepStats) Observe(s *Session) {
	p := s.counters()
	st.Simulated += p.Executed
	st.CacheHits += p.CacheHits
	st.Requeues += p.Requeues
	st.Quarantined += p.Quarantined
	st.Unconverged += p.Unconverged
}

// String renders the counters for operator output.
func (st *SweepStats) String() string {
	out := fmt.Sprintf("grid: %d simulated, %d cache hits", st.Simulated, st.CacheHits)
	if st.Requeues > 0 {
		out += fmt.Sprintf(", %d crash re-queues", st.Requeues)
	}
	if st.Quarantined > 0 {
		out += fmt.Sprintf(", %d workers quarantined", st.Quarantined)
	}
	if st.Unconverged > 0 {
		out += fmt.Sprintf(", %d points unconverged at the replication cap", st.Unconverged)
	}
	return out
}
