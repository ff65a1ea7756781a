package sketch

import (
	"math"
	"math/bits"
	"math/rand"

	"mucongest/internal/stream"
)

const cmPrime = int64(2305843009213693951) // 2^61 - 1, Mersenne

// CountMin is the standard Count-Min sketch: d rows of w counters with
// pairwise-independent hashes shared through the Kind. Point estimates
// overestimate by at most e·m/w with probability 1−e^(−d). The sketch
// is linear, hence composable; it serves as a randomized counterpart to
// CR-Precis in the Theorem 1.8 experiments.
type CountMin struct {
	counters // d rows of w, flattened
	d, w     int
	a, b     []int64
}

// CountMinKind configures Count-Min sketches of d rows × w counters
// with hash seeds derived from Seed (all summaries of one Kind share
// hashes, as linearity requires).
type CountMinKind struct {
	D, W int
	Seed int64
	a, b []int64
}

// NewCountMinKind returns a Kind for d×w Count-Min sketches.
func NewCountMinKind(d, w int, seed int64) *CountMinKind {
	if d < 1 || w < 2 {
		panic("sketch: CountMin requires d ≥ 1, w ≥ 2")
	}
	rng := rand.New(rand.NewSource(seed))
	k := &CountMinKind{D: d, W: w, Seed: seed, a: make([]int64, d), b: make([]int64, d)}
	for j := 0; j < d; j++ {
		k.a[j] = rng.Int63n(cmPrime-1) + 1
		k.b[j] = rng.Int63n(cmPrime)
	}
	return k
}

// New returns an empty sketch.
func (k *CountMinKind) New() stream.Summary {
	return &CountMin{counters: counters{ctr: make([]int64, k.D*k.W)}, d: k.D, w: k.W, a: k.a, b: k.b}
}

// M returns the serialized size: one count word plus d·w counters.
func (k *CountMinKind) M() int { return 1 + k.D*k.W }

// FromWords reconstructs a sketch.
func (k *CountMinKind) FromWords(words []int64) stream.Summary { return fromWords(k.New(), words) }

// hash61 returns (a·x + b) mod p for p = 2^61−1, over the full 128-bit
// product.
func hash61(a, b, x int64) int64 {
	hi, lo := bits.Mul64(uint64(a), uint64(x))
	r := mod61(hi, lo)
	r += uint64(b)
	if r >= uint64(cmPrime) {
		r -= uint64(cmPrime)
	}
	return int64(r)
}

func mod61(hi, lo uint64) uint64 {
	// Reduce 128-bit value modulo 2^61-1.
	r := (lo & uint64(cmPrime)) + (lo>>61 | hi<<3&uint64(cmPrime)) + hi>>58
	for r >= uint64(cmPrime) {
		r -= uint64(cmPrime)
	}
	return r
}

// Insert processes one element.
func (s *CountMin) Insert(x int64) {
	s.n++
	for j := 0; j < s.d; j++ {
		idx := int(hash61(s.a[j], s.b[j], x) % int64(s.w))
		s.ctr[j*s.w+idx]++
	}
}

// Estimate returns min over rows (never underestimates).
func (s *CountMin) Estimate(x int64) int64 {
	est := int64(math.MaxInt64)
	for j := 0; j < s.d; j++ {
		idx := int(hash61(s.a[j], s.b[j], x) % int64(s.w))
		if c := s.ctr[j*s.w+idx]; c < est {
			est = c
		}
	}
	return est
}

var _ stream.Composable = (*CountMin)(nil)
var _ stream.Kind = (*CountMinKind)(nil)
