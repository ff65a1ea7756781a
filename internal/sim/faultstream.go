package sim

import "math/rand"

// faultStream is the generator behind every engine fault draw: an exact
// replica of math/rand's default source, so s.Seed(x) followed by
// s.Float64() returns, draw for draw, what rand.New(rand.NewSource(x))
// .Float64() would. The fault layer re-keys it once per (round, shard,
// kind), thousands of times a round on a large run, and math/rand's own
// Seed walks a serial chain of 1,841 Park–Miller steps to do so. The
// replica fills the same register by jump-ahead instead: step k of that
// chain is seed·48271^k mod (2³¹−1), so every register word is three
// independent multiplies by a power read from fsPow, and a re-key has no
// serial dependency left.
//
// The generator is Mitchell and Reeds' additive lagged-Fibonacci
// register of 607 words with tap 273, seeded through Park and Miller's
// minimal standard generator (multiplier 48271, modulus 2³¹−1): word i
// is built from the chain's steps 21+3i, 22+3i and 23+3i, XORed with
// the i-th entry of a fixed table. math/rand does not export that
// table, so fsCooked recovers it once from math/rand's own output.
// refsim keeps drawing through math/rand, so the differential harness
// checks the replica on every faulty scenario.
type faultStream struct {
	tap, feed int
	vec       [fsLen]int64
}

const (
	fsLen  = 607       // register length
	fsTap  = 273       // feedback tap
	fsMod  = 1<<31 - 1 // Park–Miller modulus, a Mersenne prime
	fsMul  = 48271     // Park–Miller multiplier
	fsWarm = 21        // chain step of word 0's first part (Seed discards 20)
	fsMask = 1<<63 - 1 // Int63's mask
	fsZero = 89482311  // math/rand's substitute for a zero seed
)

var (
	// fsPow[i] holds 48271^k mod (2³¹−1) for k = 21+3i, 22+3i and 23+3i:
	// the powers register word i is built from.
	fsPow = func() (p [fsLen][3]uint64) {
		x := uint64(1)
		for k := 1; k < fsWarm+3*fsLen; k++ {
			x = x * fsMul % fsMod
			if j := k - fsWarm; j >= 0 {
				p[j/3][j%3] = x
			}
		}
		return p
	}()
	// fsCooked is math/rand's seeding table (rngCooked in its source).
	fsCooked = recoverCooked()
)

// mulMod returns x·y mod (2³¹−1) for x, y < 2³¹: the product's high
// bits fold onto its low bits because 2³¹ ≡ 1 modulo a Mersenne prime.
func mulMod(x, y uint64) uint64 {
	z := x * y
	z = z&fsMod + z>>31
	if z >= fsMod {
		z -= fsMod
	}
	return z
}

// fill writes into vec the register math/rand's Seed builds from the
// chain start x with the table xor: word i is the chain's steps 21+3i,
// 22+3i and 23+3i, shifted into place and XORed together with xor[i].
func fill(vec *[fsLen]int64, x uint64, xor *[fsLen]int64) {
	for i := range vec {
		p := &fsPow[i]
		vec[i] = int64(mulMod(x, p[0]))<<40 ^ int64(mulMod(x, p[1]))<<20 ^ int64(mulMod(x, p[2])) ^ xor[i]
	}
}

// Seed re-keys the stream: afterwards it draws exactly what
// rand.NewSource(seed) would. The chain starts from the seed reduced
// into [1, 2³¹−2], with zero replaced by fsZero.
func (s *faultStream) Seed(seed int64) {
	s.tap, s.feed = 0, fsLen-fsTap
	seed %= fsMod
	if seed < 0 {
		seed += fsMod
	}
	if seed == 0 {
		seed = fsZero
	}
	fill(&s.vec, uint64(seed), &fsCooked)
}

// Float64 returns the next draw of rand.Rand.Float64: a uniform value
// in [0, 1).
//
//muvet:hotpath
func (s *faultStream) Float64() float64 {
	for {
		s.tap--
		if s.tap < 0 {
			s.tap += fsLen
		}
		s.feed--
		if s.feed < 0 {
			s.feed += fsLen
		}
		x := s.vec[s.feed] + s.vec[s.tap]
		s.vec[s.feed] = x
		// rand.Rand.Float64 redraws the 2⁻⁵³-rare value that rounds to 1.
		if f := float64(x&fsMask) / (1 << 63); f < 1 {
			return f
		}
	}
}

// recoverCooked recovers math/rand's seeding table by running its
// register backwards. Draw k (from 1) of a freshly seeded source adds
// register word (607−k) mod 607, the tap, into word (334−k) mod 607, the
// feed, and returns the sum. Draws 274…607 find every tap already
// overwritten by draw k−273, so each yields a feed word as the
// difference of two outputs: words 60…0, then 606…334. Draws 1…273 read
// those upper words as taps, which yields words 333…61. The register is
// the chain XOR the table, so the table is the chain XOR the register.
func recoverCooked() (cooked [fsLen]int64) {
	//muvet:allow shardrng(recovers math/rand's fixed seeding table from seed 1's output; it keys no stream)
	src := rand.NewSource(1).(rand.Source64)
	var out [fsLen + 1]int64 // out[k] is draw k
	for k := 1; k <= fsLen; k++ {
		out[k] = int64(src.Uint64())
	}
	var reg [fsLen]int64
	for k := fsTap + 1; k <= fsLen; k++ {
		reg[(fsLen-fsTap-k+fsLen)%fsLen] = out[k] - out[k-fsTap]
	}
	for k := 1; k <= fsTap; k++ {
		reg[fsLen-fsTap-k] = out[k] - reg[fsLen-k]
	}
	fill(&cooked, 1, &reg) // seed 1's chain starts at 1
	return cooked
}
