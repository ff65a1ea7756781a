package sketch

import (
	"math"

	"mucongest/internal/stream"
)

// CRPrecis is the deterministic CR-Precis counter sketch [36]: t rows,
// row j holding q_j counters where q_1 < q_2 < ... are consecutive
// primes ≥ base; element x increments counter x mod q_j in every row.
// The point estimate min_j row_j[x mod q_j] never underestimates, and by
// the Chinese Remainder Theorem any other element collides with x in
// fewer than log_base(U) rows, so
//
//	f(x) ≤ Estimate(x) ≤ f(x) + m·⌈log_base U⌉ / t.
//
// The sketch is linear in the stream, hence fully mergeable AND
// composable (Definition 3.3): merging is word-wise addition. It backs
// the paper's Theorem 1.8 application (deterministic entropy
// estimation).
type CRPrecis struct {
	counters // the t rows, flattened
	primes   []int64
	offs     []int
}

// CRPrecisKind configures CR-Precis sketches: t rows of consecutive
// primes starting at or above base.
type CRPrecisKind struct {
	Base, T int
	primes  []int64
	offs    []int
	total   int
}

// NewCRPrecisKind returns a Kind for CR-Precis sketches with t prime
// rows starting at base.
func NewCRPrecisKind(base, t int) *CRPrecisKind {
	if base < 2 || t < 1 {
		panic("sketch: CRPrecis requires base ≥ 2, t ≥ 1")
	}
	k := &CRPrecisKind{Base: base, T: t, primes: primesFrom(base, t)}
	k.offs = make([]int, t)
	for j, q := range k.primes {
		k.offs[j] = k.total
		k.total += int(q)
	}
	return k
}

// New returns an empty sketch.
func (k *CRPrecisKind) New() stream.Summary {
	return &CRPrecis{counters: counters{ctr: make([]int64, k.total)}, primes: k.primes, offs: k.offs}
}

// M returns the serialized size: one count word plus all counters.
func (k *CRPrecisKind) M() int { return 1 + k.total }

// FromWords reconstructs a sketch.
func (k *CRPrecisKind) FromWords(words []int64) stream.Summary { return fromWords(k.New(), words) }

// Insert processes one element.
func (s *CRPrecis) Insert(x int64) {
	s.n++
	for j, q := range s.primes {
		idx := x % q
		if idx < 0 {
			idx += q
		}
		s.ctr[s.offs[j]+int(idx)]++
	}
}

// Estimate returns the deterministic overestimate min_j row_j[x mod q_j].
func (s *CRPrecis) Estimate(x int64) int64 {
	est := int64(math.MaxInt64)
	for j, q := range s.primes {
		idx := x % q
		if idx < 0 {
			idx += q
		}
		if c := s.ctr[s.offs[j]+int(idx)]; c < est {
			est = c
		}
	}
	return est
}

// ErrorBound returns the worst-case overestimation m·⌈log_base U⌉/t for
// a universe of size U.
func (s *CRPrecis) ErrorBound(universe int64) int64 {
	lg := int64(math.Ceil(math.Log(float64(universe)) / math.Log(float64(s.primes[0]))))
	if lg < 1 {
		lg = 1
	}
	return s.n * lg / int64(len(s.primes))
}

// EstimateEntropy estimates the empirical Shannon entropy (in bits) of
// the label distribution over the given universe, by querying the
// sketch for each label. Estimates are clipped so probabilities sum to
// at most 1+t·ε. This realizes the paper's Theorem 1.8 application; the
// original CR-Precis entropy estimator is algebraically more refined,
// but both consume the same sketch and the sandwich bounds are checked
// empirically in the experiment harness.
func (s *CRPrecis) EstimateEntropy(universe []int64) float64 {
	if s.n == 0 {
		return 0
	}
	h := 0.0
	for _, x := range universe {
		f := s.Estimate(x)
		if f <= 0 {
			continue
		}
		p := float64(f) / float64(s.n)
		if p > 1 {
			p = 1
		}
		h -= p * math.Log2(p)
	}
	return h
}

var _ stream.Composable = (*CRPrecis)(nil)
var _ stream.Kind = (*CRPrecisKind)(nil)
