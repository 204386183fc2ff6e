package mac

import (
	"fmt"
	"math/bits"

	"charisma/internal/sim"
)

// This file implements the state-indexed station registry: every station of
// a System lives in exactly one bucket keyed by its MAC-visible state, and
// the frame loop, the contention-candidate scans of all five fixed-frame
// schedulers, and reservation service iterate only the relevant buckets
// instead of the whole population. Bucket membership is a bitset over the
// station's ID, its index in System.Stations, so
//
//   - a state transition is an O(1) clear/set pair,
//   - scanning a bucket union visits stations in ID order (the order the
//     legacy full-population loops used, preserving every protocol's
//     MAC-stream draw sequence byte for byte), and
//   - a scan over k active stations in an n-station cell costs O(n/64 + k)
//     word reads instead of O(n) predicate evaluations.
//
// Stations with no MAC work at all (silent voice source, drained data
// queue) park in the idle bucket with an entry in the hierarchical timer
// wheel (wheel.go) keyed by their source's next event time; BeginFrame
// collects only the stations whose talkspurt or burst actually starts this
// frame. Combined with the lazy per-station fading replay in mac.go this
// makes per-frame cost scale with the active population, not the cell size.
//
// Hot per-station state lives in structure-of-arrays slabs here rather
// than on Station (see the Station comment in mac.go for the layout): the
// stamp slab holds the wake time of an idle station or the reservation due
// time of an admitted one, the chSync slab counts replayed fading steps,
// and the wheel's loc/pos slabs track the live timer entry. An idle
// station therefore costs a few slab rows and one wheel bucket int32 —
// tens of bytes — instead of a fat struct plus heap entries.
//
// Wake processing order. The old binary-heap queue popped due wakes in
// (time, ID) order; the wheel yields them in bucket-scan order instead.
// The results are byte-identical because waking is order-insensitive:
// advanceTraffic draws only from the woken station's private traffic
// streams (never the shared MAC stream), metric updates are commutative
// counter adds, and re-bucketing toggles per-station bitset bits. Every
// later scan that feeds the MAC stream (contention, reservation service)
// walks the bitsets in ID order, which is independent of the order the
// bits were set. The golden suite pins this end to end.

// bucketKind labels the registry buckets. Classification is by priority:
// a station matching several predicates lives in the first matching bucket,
// so the buckets partition the population.
type bucketKind uint8

const (
	// bucketIdle: no buffered voice, no ongoing talkspurt, no data
	// backlog, no reservation, nothing queued at the BS.
	bucketIdle bucketKind = iota
	// bucketPending: a request from this station sits in the BS queue.
	bucketPending
	// bucketReserved: an active voice reservation.
	bucketReserved
	// bucketTalkspurt: in a talkspurt or holding buffered voice packets,
	// without a reservation.
	bucketTalkspurt
	// bucketBacklogged: data backlog only.
	bucketBacklogged

	numBuckets
)

// bucketMask selects a union of buckets for a scan.
type bucketMask uint8

const (
	maskPending    bucketMask = 1 << bucketPending
	maskReserved   bucketMask = 1 << bucketReserved
	maskTalkspurt  bucketMask = 1 << bucketTalkspurt
	maskBacklogged bucketMask = 1 << bucketBacklogged

	// maskActive covers every bucket the frame loop must advance each
	// frame; only idle stations sit out.
	maskActive = maskPending | maskReserved | maskTalkspurt | maskBacklogged
	// maskContention covers every bucket that can hold a contention
	// candidate: talkspurt and backlogged stations by definition, and
	// reserved voice+data stations whose data backlog still contends.
	maskContention = maskReserved | maskTalkspurt | maskBacklogged
)

func (b bucketKind) String() string {
	switch b {
	case bucketIdle:
		return "idle"
	case bucketPending:
		return "pending-at-bs"
	case bucketReserved:
		return "reserved"
	case bucketTalkspurt:
		return "talkspurt"
	case bucketBacklogged:
		return "data-backlogged"
	}
	return "?"
}

// bitset is a fixed-capacity bit vector over station IDs.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int)      { b[i>>6] |= 1 << (uint(i) & 63) }
func (b bitset) clear(i int)    { b[i>>6] &^= 1 << (uint(i) & 63) }
func (b bitset) has(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

// registry holds the bucket bitsets, the timer wheel, the per-station
// slabs, and the reusable scan scratch of one System.
type registry struct {
	sets [numBuckets]bitset
	// counts tracks each bucket's population so scans skip empty buckets
	// without reading their bitset words: an all-idle 10⁶-station cell
	// pays O(1) per frame for the active-bucket sweep, not O(n/64).
	counts [numBuckets]int
	wheel  timerWheel

	// stamp is the per-station time slab, a union keyed by bucket: the
	// wake (next source event) time while the station is idle, the
	// reservation due time while it holds one. The two uses never overlap
	// — an idle station by definition holds no reservation — and the
	// wheel tracks its entries by location, never by stamp, so an
	// admitted station overwriting its old wake time is harmless.
	stamp []sim.Time
	// chSync counts the per-frame fading steps already applied per
	// station; the gap to the owner's frame index is replayed lazily when
	// the channel is next observed (see syncChannel). int32 spans 2^31
	// standard frames ≈ 62 simulated days.
	chSync []int32

	frameScratch []*Station // BeginFrame snapshot of the active buckets
	dueScratch   []*Station // VoiceReservationsDue collection
	wakeScratch  []int32    // wakeDue's collected due station IDs

	// epoch counts candidate-set changes: Reindex bumps it exactly when a
	// station's contention candidacy flips (tracked per station in
	// flagCandidate; every mutation of bucket membership or of a
	// Needs*Request input flows through Reindex — see the Reindex doc).
	// candScratch caches the contention-candidate list built at epoch
	// candEpoch; while the epoch is unchanged, repeated ForEachCandidate
	// scans (one per minislot in the request-slot loops, and across the
	// service phases of a frame, which reindex reserved stations without
	// changing the set) replay the cached slice instead of re-walking the
	// bitsets and re-evaluating the predicates. candEpoch 0 marks the
	// cache invalid (epoch starts at 1).
	epoch       uint64
	candEpoch   uint64
	candScratch []*Station
}

// reset (re-)initializes the registry for an n-station cell, reusing any
// already-allocated slab capacity — the replication-arena path rebuilds
// the registry with zero allocations when the population size repeats.
// ctr is the owning System's counter block; the wheel writes its
// arm/cascade counts there.
func (r *registry) reset(n int, ctr *Counters) {
	words := (n + 63) / 64
	for b := range r.sets {
		if cap(r.sets[b]) >= words {
			r.sets[b] = r.sets[b][:words]
			clear(r.sets[b])
		} else {
			r.sets[b] = newBitset(n)
		}
		r.counts[b] = 0
	}
	if cap(r.stamp) >= n {
		r.stamp = r.stamp[:n]
		clear(r.stamp)
	} else {
		r.stamp = make([]sim.Time, n)
	}
	if cap(r.chSync) >= n {
		r.chSync = r.chSync[:n]
		clear(r.chSync)
	} else {
		r.chSync = make([]int32, n)
	}
	r.wheel.reset(n, r.stamp)
	r.wheel.ctr = ctr
	r.epoch = 1
	r.candEpoch = 0
	r.candScratch = r.candScratch[:0]
	r.frameScratch = r.frameScratch[:0]
	r.dueScratch = r.dueScratch[:0]
	r.wakeScratch = r.wakeScratch[:0]
}

// place inserts station i into a bucket (build time; the station must not
// already be in any bucket).
func (r *registry) place(i int, b bucketKind) {
	r.sets[b].set(i)
	r.counts[b]++
}

// move transfers station i between buckets.
func (r *registry) move(i int, from, to bucketKind) {
	r.sets[from].clear(i)
	r.counts[from]--
	r.sets[to].set(i)
	r.counts[to]++
}

// classify computes the bucket a station belongs in from its live state.
// A deferred (not yet materialized) station has no sources and classifies
// idle, which is exactly its semantics: nothing to do until its first wake.
func classify(st *Station) bucketKind {
	switch {
	case st.flags&flagPendingAtBS != 0:
		return bucketPending
	case st.flags&flagReserved != 0:
		return bucketReserved
	case st.src != nil && st.src.Voice != nil && (st.src.Voice.Talking() || st.src.Voice.Buffered() > 0):
		return bucketTalkspurt
	case st.src != nil && st.src.Data != nil && st.src.Data.Backlog() > 0:
		return bucketBacklogged
	default:
		return bucketIdle
	}
}

// nextWake returns the station's next source event time, or -1 when the
// station has no sources (an inert multicell clone never wakes). A deferred
// station's first wake, -1 included, was parked in the stamp slab by
// Reset.
func (s *System) nextWake(st *Station) sim.Time {
	if st.flags&flagDeferred != 0 {
		return s.reg.stamp[st.ID]
	}
	if st.src == nil {
		return -1
	}
	at := sim.Time(-1)
	if v := st.src.Voice; v != nil {
		at = v.NextEventAt()
	}
	if d := st.src.Data; d != nil {
		if na := d.NextArrivalAt(); at < 0 || na < at {
			at = na
		}
	}
	return at
}

// Reindex re-buckets a station after a state change. Every System method
// that mutates MAC-visible state calls it internally; external drivers
// (the multicell attach/detach path, tests poking station state directly)
// must call it themselves for the change to reach the scan paths this
// frame — although any station in an active bucket self-heals at the next
// BeginFrame, which reindexes everything it advances.
func (s *System) Reindex(st *Station) {
	b := classify(st)
	// Candidate-cache maintenance: flagCandidate mirrors the station's
	// live candidacy, so the cache is invalidated precisely when this
	// station's membership flips. Any call may have changed a predicate
	// input, but only this station's own membership can change — every
	// mutation flows through a Reindex of the mutated station — so
	// service-phase reindexes that do not flip it (transmitting on a
	// voice reservation, draining part of a data backlog) leave the
	// cached list valid for the frame's later contention scans. The
	// predicates are only evaluated for contention-bucket stations, and
	// short-circuit on the reserved flag for the common voice case.
	now := maskContention&(1<<b) != 0 &&
		(s.NeedsVoiceRequest(st) || s.NeedsDataRequest(st))
	if was := st.flags&flagCandidate != 0; now != was {
		if now {
			st.flags |= flagCandidate
		} else {
			st.flags &^= flagCandidate
		}
		if s.reg.candEpoch == s.reg.epoch {
			s.reg.epoch++ // the flip outdates a currently-valid cache
			s.ctr.EpochBumps++
		}
	}
	if old := st.bucket(); b != old {
		s.reg.move(st.ID, old, b)
		st.setBucket(b)
	}
	if b == bucketIdle {
		s.armWake(st)
	} else if i := int32(st.ID); s.reg.wheel.armed(i) {
		// Leaving idle invalidates the wake entry; drop it eagerly so the
		// wheel never accumulates superseded entries and the stamp slab
		// is free to carry the reservation due time.
		s.reg.wheel.remove(i)
	}
}

// armWake (re-)arms an idle station's next source event in the wheel.
func (s *System) armWake(st *Station) {
	i := int32(st.ID)
	at := s.nextWake(st)
	if at < 0 {
		s.reg.wheel.remove(i)
		return
	}
	if s.reg.wheel.armed(i) && s.reg.stamp[i] == at {
		return // live entry already covers this event
	}
	s.reg.stamp[i] = at
	s.reg.wheel.add(i, at)
}

// wakeDue collects every idle station whose next source event is due and
// realizes its traffic. The collection phase touches only the wheel's and
// registry's int32/stamp slabs — k due wakes read k slab rows, no station
// pointers — and the realization phase then materializes, advances and
// re-buckets each collected station. Because every wheel entry is removed
// eagerly when its station leaves the idle bucket, every collected station
// is live and due; no staleness filtering is needed.
func (s *System) wakeDue() {
	due := s.reg.wheel.collectDue(s.now, s.reg.wakeScratch[:0])
	s.reg.wakeScratch = due[:0]
	s.ctr.WheelWakes += uint64(len(due))
	for _, i := range due {
		st := s.Stations[i]
		if st.flags&flagDeferred != 0 {
			s.materialize(st)
		}
		s.advanceTraffic(st)
		s.Reindex(st)
	}
}

// forEachIn visits every station in the bucket union in station-ID order.
// fn must not re-bucket stations other than the one it was handed; scans
// that mutate take a snapshot first.
func (s *System) forEachIn(mask bucketMask, fn func(*Station)) {
	// Gather only the non-empty bucket bitsets; when every selected bucket
	// is empty (the all-idle cell) the sweep costs nothing at all.
	var live [numBuckets]bitset
	nl := 0
	for b := bucketKind(0); b < numBuckets; b++ {
		if mask&(1<<b) != 0 && s.reg.counts[b] > 0 {
			live[nl] = s.reg.sets[b]
			nl++
		}
	}
	if nl == 0 {
		return
	}
	for w := range live[0] {
		word := live[0][w]
		for k := 1; k < nl; k++ {
			word |= live[k][w]
		}
		base := w << 6
		for word != 0 {
			fn(s.Stations[base+bits.TrailingZeros64(word)])
			word &= word - 1
		}
	}
}

// appendIn appends the bucket union's stations, in ID order, to dst.
func (s *System) appendIn(dst []*Station, mask bucketMask) []*Station {
	s.forEachIn(mask, func(st *Station) { dst = append(dst, st) })
	return dst
}

// ForEachCandidate visits, in station-ID order, every station that
// currently needs a voice or data request — the §2 contention population.
// Protocols layer their per-frame "already acknowledged" filter on top.
//
// The candidate list is memoized on the registry epoch: the per-minislot
// scans of a request-slot loop repeat with no intervening state change
// (a collision slot acknowledges nobody), and a frame's service phases
// reindex reserved stations without flipping anyone's candidacy, so both
// replay the cached slice. Iterating a snapshot is equivalent to a live
// bitset walk under forEachIn's contract — fn must not re-bucket stations
// other than the one it was handed, and any mutation of the handed
// station flows through Reindex, which bumps the epoch exactly when a
// membership flip outdates the cache.
func (s *System) ForEachCandidate(fn func(*Station)) {
	for _, st := range s.candidates() {
		fn(st)
	}
}

// candidates returns the epoch-cached contention-candidate list in
// station-ID order, rebuilding it when a candidacy flip has outdated it
// (a CandMisses count) and replaying it otherwise (a CandHits count). The
// slice is the registry's scratch: valid until the next state change.
func (s *System) candidates() []*Station {
	r := &s.reg
	if r.candEpoch != r.epoch {
		s.ctr.CandMisses++
		r.candScratch = r.candScratch[:0]
		s.forEachIn(maskContention, func(st *Station) {
			if s.NeedsVoiceRequest(st) || s.NeedsDataRequest(st) {
				st.flags |= flagCandidate
				r.candScratch = append(r.candScratch, st)
			} else {
				st.flags &^= flagCandidate
			}
		})
		r.candEpoch = r.epoch
	} else {
		s.ctr.CandHits++
	}
	return r.candScratch
}

// ForEachReserved visits, in station-ID order, every station holding an
// active voice reservation with no request pending at the BS — the
// population CHARISMA regenerates reservation requests for and RMAV holds
// persistent slots for.
func (s *System) ForEachReserved(fn func(*Station)) {
	s.forEachIn(maskReserved, fn)
}

// VerifyRegistry checks the registry invariants: every station sits in
// exactly one bucket, the bucket matches its recorded label, at a frame
// boundary the label matches the station's live state, and the wheel holds
// a live entry exactly for the idle stations that have one to arm. Exposed
// for the invariant tests.
func (s *System) VerifyRegistry() error {
	entries := 0
	for _, st := range s.Stations {
		n := 0
		for b := bucketKind(0); b < numBuckets; b++ {
			if s.reg.sets[b].has(st.ID) {
				n++
				if b != st.bucket() {
					return fmt.Errorf("mac: station %d in bucket %v but labeled %v", st.ID, b, st.bucket())
				}
			}
		}
		if n != 1 {
			return fmt.Errorf("mac: station %d in %d buckets, want exactly 1", st.ID, n)
		}
		if want := classify(st); want != st.bucket() {
			return fmt.Errorf("mac: station %d stale: bucket %v, state says %v", st.ID, st.bucket(), want)
		}
		cand := maskContention&(1<<st.bucket()) != 0 &&
			(s.NeedsVoiceRequest(st) || s.NeedsDataRequest(st))
		if cand != (st.flags&flagCandidate != 0) {
			return fmt.Errorf("mac: station %d candidate flag %v, live candidacy %v", st.ID, !cand, cand)
		}
		i := int32(st.ID)
		armed := s.reg.wheel.armed(i)
		if st.bucket() != bucketIdle && armed {
			return fmt.Errorf("mac: station %d holds a wheel entry outside the idle bucket", st.ID)
		}
		if st.bucket() == bucketIdle && s.nextWake(st) >= 0 && !armed {
			return fmt.Errorf("mac: idle station %d has a wake due but no wheel entry", st.ID)
		}
		if armed {
			entries++
			l := s.reg.wheel.loc[i]
			b := s.reg.wheel.buckets[l>>wheelBits][l&(wheelSlots-1)]
			p := s.reg.wheel.pos[i]
			if int(p) >= len(b) || b[p] != i {
				return fmt.Errorf("mac: station %d wheel loc/pos do not resolve to its entry", st.ID)
			}
		}
	}
	if entries != s.reg.wheel.count {
		return fmt.Errorf("mac: wheel count %d but %d live entries", s.reg.wheel.count, entries)
	}
	for b := bucketKind(0); b < numBuckets; b++ {
		n := 0
		for _, w := range s.reg.sets[b] {
			n += bits.OnesCount64(w)
		}
		if n != s.reg.counts[b] {
			return fmt.Errorf("mac: bucket %v count %d but %d bits set", b, s.reg.counts[b], n)
		}
	}
	// A valid candidate cache must match a fresh scan exactly: same
	// stations, same ID order.
	if s.reg.candEpoch == s.reg.epoch {
		var fresh []*Station
		s.forEachIn(maskContention, func(st *Station) {
			if s.NeedsVoiceRequest(st) || s.NeedsDataRequest(st) {
				fresh = append(fresh, st)
			}
		})
		if len(fresh) != len(s.reg.candScratch) {
			return fmt.Errorf("mac: candidate cache holds %d stations, fresh scan %d", len(s.reg.candScratch), len(fresh))
		}
		for i, st := range fresh {
			if s.reg.candScratch[i] != st {
				return fmt.Errorf("mac: candidate cache entry %d is station %d, fresh scan says %d", i, s.reg.candScratch[i].ID, st.ID)
			}
		}
	}
	return nil
}
