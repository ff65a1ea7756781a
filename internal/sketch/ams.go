package sketch

import (
	"math/rand"
	"sort"

	"mucongest/internal/stream"
)

// AMS is the Alon–Matias–Szegedy tug-of-war sketch estimating the
// second frequency moment F2 = Σ f(x)². It keeps r·c sign counters
// (median of r means of c squares). Linear, hence composable.
type AMS struct {
	counters // r groups of c
	r, c     int
	a, b     []int64
}

// AMSKind configures AMS sketches with r×c counters and shared hash
// seeds.
type AMSKind struct {
	R, C int
	Seed int64
	a, b []int64
}

// NewAMSKind returns a Kind for AMS F2 sketches (median of R means of C
// estimators).
func NewAMSKind(r, c int, seed int64) *AMSKind {
	if r < 1 || c < 1 {
		panic("sketch: AMS requires r,c ≥ 1")
	}
	rng := rand.New(rand.NewSource(seed))
	k := &AMSKind{R: r, C: c, Seed: seed, a: make([]int64, r*c), b: make([]int64, r*c)}
	for j := range k.a {
		k.a[j] = rng.Int63n(cmPrime-1) + 1
		k.b[j] = rng.Int63n(cmPrime)
	}
	return k
}

// New returns an empty sketch.
func (k *AMSKind) New() stream.Summary {
	return &AMS{counters: counters{ctr: make([]int64, k.R*k.C)}, r: k.R, c: k.C, a: k.a, b: k.b}
}

// M returns the serialized size.
func (k *AMSKind) M() int { return 1 + k.R*k.C }

// FromWords reconstructs a sketch.
func (k *AMSKind) FromWords(words []int64) stream.Summary { return fromWords(k.New(), words) }

func (s *AMS) sign(j int, x int64) int64 {
	if hash61(s.a[j], s.b[j], x)&1 == 0 {
		return 1
	}
	return -1
}

// Insert processes one element.
func (s *AMS) Insert(x int64) {
	s.n++
	for j := range s.ctr {
		s.ctr[j] += s.sign(j, x)
	}
}

// EstimateF2 returns the median-of-means estimate of Σ f(x)².
func (s *AMS) EstimateF2() int64 {
	means := make([]int64, s.r)
	for i := 0; i < s.r; i++ {
		var sum int64
		for j := 0; j < s.c; j++ {
			v := s.ctr[i*s.c+j]
			sum += v * v
		}
		means[i] = sum / int64(s.c)
	}
	sort.Slice(means, func(i, j int) bool { return means[i] < means[j] })
	return means[s.r/2]
}

var _ stream.Composable = (*AMS)(nil)
var _ stream.Kind = (*AMSKind)(nil)
