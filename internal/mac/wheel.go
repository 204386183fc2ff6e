package mac

import (
	"math/bits"

	"charisma/internal/sim"
)

// This file implements the hierarchical timer wheel that replaces the old
// binary-heap wake queue. Idle stations arm their next source event here;
// BeginFrame advances the wheel to the frame boundary and collects the due
// stations in one batch.
//
// Geometry: the near wheel (level 0) is frame-granular — its granule of
// 2^wheelGranuleLog = 1024 ticks is the smallest power of two covering the
// 800-symbol frame — and each of the wheelLevels levels has wheelSlots
// slots, every level spanning 64× the horizon of the one below. Level 8
// granules are 2^58 ticks, so the top level covers every representable
// sim.Time without slot wraparound.
//
// Cost model: arming is O(1) (level by bit length of the delay, slot by
// shift-and-mask, append to the bucket). Advancing is O(granules elapsed +
// entries fired + entries cascaded); a fixed 800-tick frame crosses at most
// one level-0 granule, and each entry cascades at most wheelLevels-1 times
// over its lifetime, so arm+fire is O(1) amortized — against O(log n) per
// push/pop for the heap it replaces.
//
// Unlike the old heap, entries are removed eagerly: each station has at
// most one live entry, tracked by a (level,slot) location and an
// intra-bucket position slab, so re-arming a station (or re-bucketing it
// out of idle) swap-removes the superseded entry in O(1) instead of
// leaving a dead entry to be skipped at pop time. Resident entries are
// therefore bounded by the idle population, never by the re-arm rate.
//
// Placement is conservative-early: add computes the level from the delay
// relative to the granule-aligned base, which can under-shoot the minimal
// level when base sits mid-granule. That is safe by construction — a
// mis-placed entry is scanned before it is due, fails the stamp<=now check,
// and is retained (level 0) or re-placed (cascade); an entry is never
// visited after its due granule, so wakes never fire late. collectDue
// checks every fired entry against the shared stamp slab, which holds the
// authoritative due time for every live entry.

const (
	// wheelGranuleLog is log2 of the level-0 granule in ticks.
	wheelGranuleLog = 10
	// wheelBits is log2 of the slots per level.
	wheelBits  = 6
	wheelSlots = 1 << wheelBits
	// wheelLevels is chosen so the top level's slot index never wraps for
	// any positive sim.Time: level 8 shifts by 10+8·6 = 58 bits.
	wheelLevels = 9

	// noWheelLoc marks a station with no live wheel entry.
	noWheelLoc = ^uint16(0)
)

// wheelShift returns the granule shift of a level.
func wheelShift(level int) uint { return wheelGranuleLog + uint(level)*wheelBits }

// timerWheel is the hierarchical wheel. Buckets hold station IDs (int32
// indices into System.Stations); the due time of a live entry is
// stamp[id], shared with the registry's stamp slab.
type timerWheel struct {
	base    sim.Time // advanced-to time; all live entries have stamp >= alignDown(base)
	count   int      // live entries across all levels
	buckets [wheelLevels][wheelSlots][]int32

	// Per-station entry tracking (parallel to System.Stations):
	// loc is level*wheelSlots+slot (noWheelLoc when not armed), pos the
	// index inside that bucket. Together they make removal O(1).
	loc []uint16
	pos []int32

	// stamp aliases the registry's stamp slab: the authoritative due time
	// of every live entry.
	stamp []sim.Time

	// scratch detaches a draining bucket during cascade so re-placement
	// can append to any bucket (including the one being drained).
	scratch []int32

	// ctr receives the wheel's arm/cascade counts. reset points it at a
	// private block so a standalone wheel (tests) counts somewhere;
	// registry.reset re-points it at the owning System's block. Never
	// nil after reset, so the hot paths increment unconditionally.
	ctr *Counters
}

// reset (re-)initializes the wheel for an n-station cell, truncating any
// populated buckets and reusing slab capacity where it suffices.
func (w *timerWheel) reset(n int, stamp []sim.Time) {
	w.base = 0
	if w.count != 0 {
		for l := range w.buckets {
			for s := range w.buckets[l] {
				w.buckets[l][s] = w.buckets[l][s][:0]
			}
		}
		w.count = 0
	}
	if cap(w.loc) >= n {
		w.loc = w.loc[:n]
	} else {
		w.loc = make([]uint16, n)
	}
	for i := range w.loc {
		w.loc[i] = noWheelLoc
	}
	if cap(w.pos) >= n {
		w.pos = w.pos[:n]
	} else {
		w.pos = make([]int32, n)
	}
	w.stamp = stamp
	w.scratch = w.scratch[:0]
	if w.ctr == nil {
		w.ctr = new(Counters)
	}
}

// armed reports whether a station has a live entry.
func (w *timerWheel) armed(s int32) bool { return w.loc[s] != noWheelLoc }

// add arms (or re-arms) station s for time at, replacing any live entry.
func (w *timerWheel) add(s int32, at sim.Time) {
	if w.loc[s] != noWheelLoc {
		w.remove(s)
	}
	if at < w.base {
		at = w.base // due already; fires on the next collect
	}
	// Delay relative to the granule-aligned base; see the placement note
	// above for why under-shooting the level is safe.
	d := uint64(at - (w.base >> wheelGranuleLog << wheelGranuleLog))
	level := 0
	if h := bits.Len64(d >> wheelGranuleLog); h > 0 {
		level = (h - 1) / wheelBits
		if level >= wheelLevels {
			level = wheelLevels - 1
		}
	}
	slot := int(at>>wheelShift(level)) & (wheelSlots - 1)
	b := &w.buckets[level][slot]
	w.pos[s] = int32(len(*b))
	w.loc[s] = uint16(level*wheelSlots + slot)
	*b = append(*b, s)
	w.count++
	w.ctr.WheelArms++
}

// remove drops station s's live entry in O(1) by swapping the bucket tail
// into its position.
func (w *timerWheel) remove(s int32) {
	l := w.loc[s]
	if l == noWheelLoc {
		return
	}
	b := &w.buckets[l>>wheelBits][l&(wheelSlots-1)]
	p := w.pos[s]
	last := int32(len(*b) - 1)
	if p != last {
		moved := (*b)[last]
		(*b)[p] = moved
		w.pos[moved] = p
	}
	*b = (*b)[:last]
	w.loc[s] = noWheelLoc
	w.count--
}

// collectDue advances the wheel to now, appending every station whose due
// time has arrived to dst (in bucket-scan order — see registry.go for why
// wake processing is insensitive to this order). Collected entries are
// disarmed; the caller re-arms survivors after processing.
func (w *timerWheel) collectDue(now sim.Time, dst []int32) []int32 {
	if now < w.base {
		return dst
	}
	if w.count == 0 {
		w.base = now
		return dst
	}
	g := w.base >> wheelGranuleLog
	gEnd := now >> wheelGranuleLog
	for {
		// Fire the due entries of the level-0 slot for granule g; retain
		// the rest (conservatively-early placements, or entries later in
		// the partial granule containing now).
		b := &w.buckets[0][g&(wheelSlots-1)]
		kept := (*b)[:0]
		for _, s := range *b {
			if w.stamp[s] <= now {
				w.loc[s] = noWheelLoc
				w.count--
				dst = append(dst, s)
			} else {
				w.pos[s] = int32(len(kept))
				kept = append(kept, s)
			}
		}
		*b = kept
		if g >= gEnd {
			break
		}
		g++
		w.base = g << wheelGranuleLog
		if g&(wheelSlots-1) == 0 {
			w.cascade(g)
		}
	}
	w.base = now
	return dst
}

// cascade redistributes higher-level buckets when the walk enters granule
// g at a level boundary: the level-k slot the walk is entering drains into
// lower levels (re-placed from the stamp slab), recursively while g is
// aligned to that level's granule.
func (w *timerWheel) cascade(g sim.Time) {
	for level := 1; level < wheelLevels; level++ {
		if g&((1<<(uint(level)*wheelBits))-1) != 0 {
			return
		}
		slot := int(g>>(uint(level)*wheelBits)) & (wheelSlots - 1)
		b := &w.buckets[level][slot]
		if len(*b) == 0 {
			continue
		}
		w.ctr.WheelCascades++
		// Detach the entries before re-placing: a conservatively-early
		// entry may land back in this very bucket, so appending while
		// ranging over the bucket's own backing array would corrupt it.
		w.scratch = append(w.scratch[:0], (*b)...)
		*b = (*b)[:0]
		for _, s := range w.scratch {
			w.loc[s] = noWheelLoc
			w.count--
			w.add(s, w.stamp[s])
		}
	}
}
