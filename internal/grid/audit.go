package grid

import (
	"bytes"
	"fmt"

	"charisma/internal/mac"
	"charisma/internal/rng"
)

// Audit configures byzantine-result defense: the coordinator re-executes
// a seeded fraction of remotely produced results and byte-compares them
// against what the worker claimed. Because every (spec, rep-seed) result
// is deterministic, any honest re-execution is an exact oracle — a single
// byte of divergence proves the producing worker wrong, no voting needed.
//
// A divergent worker is quarantined: it is never handed another task, its
// live leases are superseded and their tasks re-queued, its pending
// results are rejected, and every unaudited result it previously produced
// is evicted from the cache and re-queued for honest re-execution — so a
// lying worker cannot poison the content-addressed cache or the sweep.
//
// With Frac = 1 every remote result is verified and a fixed-replication
// sweep is guaranteed byte-identical to the serial reference no matter
// what workers return. With Frac < 1 detection is probabilistic per
// result, but one caught lie still evicts everything the liar touched.
// Under adaptive precision a lie that influenced a growth decision before
// being caught can leave the sweep settled at a larger (still honest)
// replication count than the in-process run; fixed-rep sweeps have no
// such decision and stay byte-identical.
type Audit struct {
	// Frac is the fraction of remote results re-executed (0 disables the
	// audit, 1 audits everything).
	Frac float64
	// Seed derives the audit coin's rng substream, so which results get
	// audited is reproducible given the same completion order.
	Seed int64
	// Workers bounds concurrent local re-executions (below 1 means 1).
	Workers int
}

// Enabled reports whether auditing is active.
func (a Audit) Enabled() bool { return a.Frac > 0 }

// auditJob is one parked remote result awaiting re-execution. Its key
// stays in the session's inflight table until the verdict, so duplicate
// deliveries and adaptive growth keep working while it is parked.
type auditJob struct {
	key        string
	point, rep int
	worker     string
	claimed    mac.Result
}

// deliveredEntry records the provenance of an unaudited remote result
// that already landed: which worker produced it and every (point, rep)
// slot that consumed it — including slots served later from the cache.
// Quarantining the worker walks these entries to unwind its results.
type deliveredEntry struct {
	worker string
	refs   []ref
}

// EnableAudit arms byzantine-result defense on the session and starts the
// audit executors. Call it right after NewSession, before any transport
// delivers results; enabling mid-sweep would let earlier results through
// unaudited and untracked.
func (s *Session) EnableAudit(cfg Audit) {
	if !cfg.Enabled() {
		return
	}
	n := cfg.Workers
	if n < 1 {
		n = 1
	}
	s.mu.Lock()
	s.audit = cfg
	s.auditRng = rng.Derive(cfg.Seed, "grid", "audit")
	s.mu.Unlock()
	for i := 0; i < n; i++ {
		go s.auditLoop()
	}
}

// auditPickLocked flips the audit coin for one remote result. Caller
// holds s.mu.
func (s *Session) auditPickLocked() bool {
	if !s.audit.Enabled() {
		return false
	}
	if s.audit.Frac >= 1 {
		return true
	}
	return s.auditRng.Bernoulli(s.audit.Frac)
}

// resultsIdentical byte-compares two results through their canonical JSON
// encoding — the same bytes the cache persists and the wire carries.
func resultsIdentical(a, b mac.Result) bool {
	var abuf, bbuf [entryBufSize]byte
	ab, aerr := appendJSON(abuf[:0], a)
	bb, berr := appendJSON(bbuf[:0], b)
	return aerr == nil && berr == nil && bytes.Equal(ab, bb)
}

// auditLoop is one audit executor: it pops parked jobs, re-executes them
// locally (outside the session mutex — a replication can take seconds),
// and delivers the verdict. Loops exit when the session closes with no
// parked work left; checkDone keeps the session open while audits are
// parked or executing, because a failed audit creates new work.
func (s *Session) auditLoop() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		for len(s.audits) == 0 && !s.closed {
			s.auditCond.Wait()
		}
		if len(s.audits) == 0 {
			return // closed and drained
		}
		j := s.audits[0]
		s.audits = s.audits[1:]
		s.auditing++
		spec := s.points[j.point].Spec
		s.mu.Unlock()
		// RunRep, not RunRepContext: a re-execution cut short by a
		// cancel would fail here and quarantine an honest worker.
		truth, err := spec.RunRep(j.rep)
		s.mu.Lock()
		s.auditing--
		switch {
		case err != nil:
			// The oracle failed where the worker claimed success. RunRep is
			// deterministic, so an honest worker would have failed the same
			// way — the claimed success is itself the divergence.
			s.auditsFailed++
			s.quarantineLocked(j.worker, "claimed success where re-execution fails: "+err.Error())
			s.deliverLocked(j.key, mac.Result{}, err, "")
		case resultsIdentical(truth, j.claimed):
			s.auditsPassed++
			// Verified: deliver as trusted (no provenance tracking — a later
			// quarantine of this worker must not unwind an audited result).
			s.deliverLocked(j.key, truth, nil, "")
		default:
			s.auditsFailed++
			s.quarantineLocked(j.worker, fmt.Sprintf("result diverges from re-execution (point %d rep %d)", j.point, j.rep))
			// The oracle's own result is the truth; the sweep proceeds with
			// it immediately instead of re-queueing the task.
			s.deliverLocked(j.key, truth, nil, "")
		}
	}
}

// quarantineLocked bars a worker from the session and unwinds everything
// it touched: live leases are superseded and their tasks re-queued,
// parked (unaudited) results from it are discarded and their tasks
// re-queued, and previously delivered unaudited results are evicted from
// the cache, their slots reopened, and their tasks re-queued. Pending
// results it posts later die on lease validation; claim never hands it
// another task. Caller holds s.mu.
func (s *Session) quarantineLocked(worker, reason string) {
	if worker == "" || s.quarantined[worker] {
		return
	}
	s.quarantined[worker] = true
	s.quarantines++
	if s.log != nil {
		s.log.Warn("worker quarantined", "session", s.serial, "worker", worker, "reason", reason)
	}
	// Supersede its live leases; their tasks go back to the queue.
	for id, l := range s.leases {
		if l.worker != worker {
			continue
		}
		delete(s.leases, id)
		delete(s.avoid, l.key)
		t := l.task
		t.Lease = 0
		s.queue = append(s.queue, t)
		s.requeues++
	}
	// Discard its parked audit jobs: the claimed results are untrusted and
	// not worth re-executing against; re-queue the tasks instead.
	kept := s.audits[:0]
	for _, j := range s.audits {
		if j.worker != worker {
			kept = append(kept, j)
			continue
		}
		// The key is still inflight (parked jobs keep it there); just hand
		// the task back out.
		s.queue = append(s.queue, Task{Point: j.point, Rep: j.rep, Spec: s.points[j.point].Spec})
		s.requeues++
	}
	s.audits = kept
	// Evict and re-queue every unaudited result it produced, including
	// slots that consumed the poisoned result via the cache afterwards.
	for key, e := range s.delivered {
		if e.worker != worker {
			continue
		}
		delete(s.delivered, key)
		s.cache.Delete(key)
		var reopened []ref
		for _, rf := range e.refs {
			st := s.states[rf.point]
			if !st.ok[rf.rep] {
				continue
			}
			st.ok[rf.rep] = false
			st.results[rf.rep] = mac.Result{}
			st.completed--
			st.settled = false
			reopened = append(reopened, rf)
		}
		if len(reopened) == 0 {
			continue
		}
		if refs, ok := s.inflight[key]; ok {
			// A task for this key is already out (re-scheduled growth);
			// join it instead of queueing a duplicate.
			s.inflight[key] = append(refs, reopened...)
			continue
		}
		s.inflight[key] = reopened
		s.queue = append(s.queue, Task{Point: reopened[0].point, Rep: reopened[0].rep, Spec: s.points[reopened[0].point].Spec})
		s.requeues++
	}
	s.cond.Broadcast() // re-queued work: wake blocked claimers
	s.bump()
}
