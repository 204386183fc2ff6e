package rng

import "math/rand"

// source is math/rand's additive lagged-Fibonacci generator (Mitchell &
// Reeds; register length 607, tap 273) with a jump-ahead Seed. Its Int63
// and Uint64 run the stock recurrence unchanged, and Seed fills the
// register with exactly the words math/rand's serial seeding produces, so
// a source seeded with s emits the same sequence as rand.NewSource(s)
// (pinned by TestSourceMatchesMathRand and FuzzSourceMatchesMathRand).
//
// The stock Seed walks the MINSTD seed LCG x_{k+1} = 48271·x_k mod 2³¹−1
// serially: 20 discarded steps, then three steps per register word i
// (x_{21+3i}, x_{22+3i}, x_{23+3i}), 1,841 dependent Schrage divides in
// all. Every x_k is x_0·48271^k mod 2³¹−1, so with the 1,821 powers
// precomputed (lehmerPow) each register word is three independent
// multiplies with a Mersenne fold — no divide, no serial chain.
type source struct {
	tap, feed int
	vec       [regLen]int64
}

const (
	regLen = 607
	regTap = 273

	lehmerMod  = 1<<31 - 1 // 2³¹−1, a Mersenne prime
	lehmerMul  = 48271
	lehmerBurn = 20       // seed-LCG steps discarded before word 0
	zeroSeed   = 89482311 // math/rand's substitute for a seed ≡ 0
)

var (
	// lehmerPow[i][j] = 48271^(lehmerBurn+1+3i+j) mod 2³¹−1: the LCG
	// multiplier taking x_0 to the j-th draw of register word i.
	lehmerPow [regLen][3]uint64
	// cooked is math/rand's rngCooked table — the fixed words XORed into
	// the register — recovered from a stock source at init (recoverCooked).
	cooked [regLen]int64
)

func init() {
	a := uint64(1)
	for k := 0; k < lehmerBurn; k++ {
		a = mulMod(a, lehmerMul)
	}
	for i := range lehmerPow {
		for j := range lehmerPow[i] {
			a = mulMod(a, lehmerMul)
			lehmerPow[i][j] = a
		}
	}
	cooked = recoverCooked()
}

// mulMod returns a·b mod 2³¹−1 for a, b < 2³¹−1. The product is < 2⁶²,
// so one fold (2³¹ ≡ 1) leaves a value < 2·(2³¹−1).
func mulMod(a, b uint64) uint64 {
	t := a * b
	t = t&lehmerMod + t>>31
	if t >= lehmerMod {
		t -= lehmerMod
	}
	return t
}

// lehmerState maps a seed to the seed LCG's starting state x_0 exactly as
// math/rand does: reduce mod 2³¹−1 into [0, 2³¹−1) and substitute for 0.
func lehmerState(seed int64) uint64 {
	seed %= lehmerMod
	if seed < 0 {
		seed += lehmerMod
	}
	if seed == 0 {
		seed = zeroSeed
	}
	return uint64(seed)
}

// lehmerWords sets every register word i to its seed-LCG part for x0,
// x_{21+3i}<<40 ^ x_{22+3i}<<20 ^ x_{23+3i} truncated to 64 bits, XORed
// with mask[i].
func lehmerWords(x0 uint64, vec, mask *[regLen]int64) {
	for i := range vec {
		p := &lehmerPow[i]
		vec[i] = int64(mulMod(x0, p[0])<<40^mulMod(x0, p[1])<<20^mulMod(x0, p[2])) ^ mask[i]
	}
}

// Seed resets the register to the state rand.NewSource(seed) starts in.
func (s *source) Seed(seed int64) {
	s.tap = 0
	s.feed = regLen - regTap
	lehmerWords(lehmerState(seed), &s.vec, &cooked)
}

// Uint64 returns the next 64-bit value of the lagged-Fibonacci recurrence.
func (s *source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += regLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += regLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns the next value with its top bit cleared.
func (s *source) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }

// recoverCooked derives math/rand's cooked table from the generator's own
// output. A freshly seeded stock source's first 607 draws write each
// register slot exactly once (feed steps through every index), so the
// draws, placed at their feed slots, are the register after 607 steps;
// undoing the steps in reverse (vec[feed] -= vec[tap]; each step leaves
// its tap slot untouched) yields the seeded register, and XORing out the
// seed LCG's part leaves the cooked words.
func recoverCooked() [regLen]int64 {
	const seed = 1
	ref := rand.NewSource(seed).(rand.Source64)
	r := source{feed: regLen - regTap}
	for range regLen {
		r.tap = (r.tap + regLen - 1) % regLen
		r.feed = (r.feed + regLen - 1) % regLen
		r.vec[r.feed] = int64(ref.Uint64())
	}
	for range regLen {
		r.vec[r.feed] -= r.vec[r.tap]
		r.tap = (r.tap + 1) % regLen
		r.feed = (r.feed + 1) % regLen
	}
	lehmerWords(lehmerState(seed), &r.vec, &r.vec)
	return r.vec
}
