package sim

import (
	"math"
	"math/rand"
	"testing"
)

// TestFaultStreamMatchesMathRand pins the replica to math/rand draw for
// draw: seeds at the edges of the seed reduction (zero, ±1, ±(2³¹−1)
// and its multiples, math/rand's zero substitute, large negatives) and
// a spread of FaultStreamSeed outputs, each drawn past the register's
// tap (273), its first wrap of the feed (334) and its length (607).
// One stream serves every seed, so each re-key also follows a used
// register, as the engine's per-shard streams do.
func TestFaultStreamMatchesMathRand(t *testing.T) {
	var fs faultStream
	check := func(seed int64, draws int) {
		want := rand.New(rand.NewSource(seed))
		fs.Seed(seed)
		for k := 1; k <= draws; k++ {
			if got, w := fs.Float64(), want.Float64(); got != w {
				t.Fatalf("seed %d, draw %d: faultStream = %v, math/rand = %v", seed, k, got, w)
			}
		}
	}
	const mod = 1<<31 - 1
	for _, s := range []int64{0, 1, -1, mod, -mod, 2 * mod, fsZero, math.MinInt64, math.MaxInt64, -987654321987654321} {
		check(s, 3*fsLen)
	}
	for i := 0; i < 2000; i++ {
		check(FaultStreamSeed(int64(i/40), i%40, i, uint32(1+i%3)), fsLen+1)
	}
}

// BenchmarkFaultStreamSeed times one re-key of the replica: the cost the
// fault layer pays per (round, shard, kind). BenchmarkRandSeed is the
// same re-key through math/rand.
func BenchmarkFaultStreamSeed(b *testing.B) {
	var fs faultStream
	for round := 0; b.Loop(); round++ {
		fs.Seed(FaultStreamSeed(1, round, 0, FaultKindLoss))
	}
}

func BenchmarkRandSeed(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	for round := 0; b.Loop(); round++ {
		r.Seed(FaultStreamSeed(1, round, 0, FaultKindLoss))
	}
}
