package charisma

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"charisma/internal/mac"
	"charisma/internal/sim"
)

// TestUrgencyMemoMatchesPow: every memoized urgency, first computed or
// replayed, is bit-identical to the expression it replaces, math.Pow(λv,
// framesLeft) with framesLeft = max(0, d)/fd, including distances past the
// table bound and a reset to a new base.
func TestUrgencyMemoMatchesPow(t *testing.T) {
	var m urgencyMemo
	for _, base := range []struct{ lambda, fd float64 }{{0.7, 800}, {0.7, 800}, {0.93, 800}, {0.93, 640}} {
		m.reset(base.lambda, base.fd)
		for pass := 0; pass < 2; pass++ {
			for _, d := range []sim.Time{-6400, -1, 0, 1, 2, 799, 800, 801, 3333, 6399, 6400, urgencyMemoMax - 2, urgencyMemoMax - 1, urgencyMemoMax, 1 << 20, math.MaxInt64} {
				framesLeft := float64(d) / base.fd
				if framesLeft < 0 {
					framesLeft = 0
				}
				want := math.Pow(base.lambda, framesLeft)
				if got := m.at(d); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("λ=%v fd=%v d=%d pass %d: memo %v, Pow %v", base.lambda, base.fd, d, pass, got, want)
				}
			}
		}
	}
	if len(m.vals) > urgencyMemoMax {
		t.Fatalf("table grew to %d entries, bound %d", len(m.vals), urgencyMemoMax)
	}
}

// TestRankKeysMatchCandidateSort: a stable sort of compact rank keys with
// byRank yields the same order as the stable sort of whole candidates it
// replaces — including pools with tied and NaN priorities, where the
// comparator is not a strict order and only the shared stable algorithm
// and input sequence fix the result.
func TestRankKeysMatchCandidateSort(t *testing.T) {
	r := rand.New(rand.NewSource(20261017))
	prios := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, 1, 1.5, 2.25, 3}
	for trial := 0; trial < 2000; trial++ {
		n := r.Intn(40)
		pool := make([]candidate, n)
		for i := range pool {
			st := &mac.Station{ID: r.Intn(30)}
			prio := prios[r.Intn(len(prios))]
			if r.Intn(3) == 0 {
				prio = r.Float64()
			}
			pool[i] = candidate{r: &mac.Request{St: st}, prio: prio}
		}
		keys := make([]rankKey, n)
		for i := range pool {
			keys[i] = keyOf(pool, i)
		}
		slices.SortStableFunc(keys, byRank)

		ref := slices.Clone(pool)
		slices.SortStableFunc(ref, func(a, b candidate) int {
			if a.prio != b.prio {
				return cmp.Compare(b.prio, a.prio)
			}
			return cmp.Compare(a.r.St.ID, b.r.St.ID)
		})
		for i, k := range keys {
			if pool[k.idx].r != ref[i].r {
				t.Fatalf("trial %d: position %d holds pool[%d] (prio %v, ID %d), candidate sort has prio %v, ID %d",
					trial, i, k.idx, pool[k.idx].prio, pool[k.idx].r.St.ID, ref[i].prio, ref[i].r.St.ID)
			}
		}
	}
}
