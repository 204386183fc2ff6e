package rng

import "math/rand"

// source is math/rand's additive lagged-Fibonacci generator (Mitchell &
// Reeds; register length 607, tap 273) seeded word by word on first
// touch. Its draws run the stock recurrence unchanged, and every register
// word it reads is exactly the word math/rand's serial seeding puts there,
// so a source seeded with s emits the same sequence as rand.NewSource(s)
// (pinned by TestSourceMatchesMathRand, TestColdRegisterMatchesMathRand
// and FuzzSourceMatchesMathRand).
//
// The stock Seed walks the MINSTD seed LCG x_{k+1} = 48271·x_k mod 2³¹−1
// serially: 20 discarded steps, then three steps per register word i
// (x_{21+3i}, x_{22+3i}, x_{23+3i}), 1,841 dependent Schrage divides in
// all. Every x_k is x_0·48271^k mod 2³¹−1, so with the 1,821 powers
// precomputed (lehmerPow) each register word is three independent
// multiplies with a Mersenne fold — no divide, no serial chain — and any
// word can be computed on its own, when it is first read.
//
// Seed therefore only stores x_0 and starts a countdown of regLen−regTap
// (334) draws. Draw k of the countdown (k = 1…334) writes feed word 334−k,
// which no earlier draw touched, and reads tap word 607−k, which is
// untouched while k ≤ 273 and otherwise the feed word draw k−273 wrote.
// coldNext computes each untouched word just before it is used; after
// 334 draws every word has been touched and next runs alone. A bulk
// caller ends the countdown at once with complete.
//
// The countdown is checked by Uint64 and Int63 (the rand.Source methods)
// and by the Stream entry points, never inside next: next is the step
// the per-frame draws inline.
type source struct {
	tap, feed int
	// cold counts the draws left in the countdown; 0 once every
	// register word has been touched.
	cold int
	// x0 is the seed LCG's start state, from which cold words are
	// computed.
	x0  uint64
	vec [regLen]int64
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

// lehmerWord is register word i's seed-LCG part for x0:
// x_{21+3i}<<40 ^ x_{22+3i}<<20 ^ x_{23+3i}, truncated to 64 bits.
func lehmerWord(x0 uint64, i int) int64 {
	p := &lehmerPow[i]
	return int64(mulMod(x0, p[0])<<40 ^ mulMod(x0, p[1])<<20 ^ mulMod(x0, p[2]))
}

// word is register word i as rand.NewSource seeds it.
func (s *source) word(i int) int64 { return lehmerWord(s.x0, i) ^ cooked[i] }

// Seed resets the source to the state rand.NewSource(seed) starts in.
// No register word is computed here: the countdown computes each one
// when a draw first reads it.
func (s *source) Seed(seed int64) {
	s.tap = 0
	s.feed = regLen - regTap
	s.cold = regLen - regTap
	s.x0 = lehmerState(seed)
}

// next is the lagged-Fibonacci step on a register whose every word has
// been touched (cold is 0). It is small enough to inline into the draws.
func (s *source) next() uint64 {
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

// coldNext is the step while the countdown runs: the feed word is always
// untouched, and the tap word is untouched while it lies in the upper
// regTap words (334…606) that only taps reach during the countdown. Each
// untouched word is computed as it is read. The feed index cannot wrap
// inside the countdown.
func (s *source) coldNext() uint64 {
	s.cold--
	s.tap--
	if s.tap < 0 {
		s.tap += regLen
	}
	s.feed--
	if s.tap >= regLen-regTap {
		s.vec[s.tap] = s.word(s.tap)
	}
	x := s.word(s.feed) + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// complete computes every word the countdown has not touched yet and ends
// it: the feed words still ahead (0…feed−1) and the tap words still ahead
// (334…regTap+feed−1, empty once 273 draws have run).
func (s *source) complete() {
	seedWords(s.x0, s.vec[:s.feed], 0)
	if hi := regTap + s.feed; hi > regLen-regTap {
		seedWords(s.x0, s.vec[regLen-regTap:hi], regLen-regTap)
	}
	s.cold = 0
}

// seedWords sets vec to the seeded register words lo…lo+len(vec)−1 for x0.
func seedWords(x0 uint64, vec []int64, lo int) {
	pow := lehmerPow[lo : lo+len(vec)]
	ck := cooked[lo : lo+len(vec)]
	for i := range vec {
		p := &pow[i]
		vec[i] = int64(mulMod(x0, p[0])<<40^mulMod(x0, p[1])<<20^mulMod(x0, p[2])) ^ ck[i]
	}
}

// Uint64 returns the next 64-bit value of the lagged-Fibonacci recurrence.
func (s *source) Uint64() uint64 {
	if s.cold > 0 {
		return s.coldNext()
	}
	return s.next()
}

// Int63 returns the next value with its top bit cleared.
func (s *source) Int63() int64 {
	if s.cold > 0 {
		return int64(s.coldNext() & (1<<63 - 1))
	}
	return int64(s.next() & (1<<63 - 1))
}

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
	x0 := lehmerState(seed)
	for i := range r.vec {
		r.vec[i] ^= lehmerWord(x0, i)
	}
	return r.vec
}
