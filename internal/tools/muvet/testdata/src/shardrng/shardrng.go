// Seed-derivation corpus for the nodeterm analyzer, placed in the
// engine pair: the three blessed seed derivations pass, anything ad hoc
// fails — whether it keys a fresh source or re-keys a pooled one
// through Seed.
package shardrng

import "math/rand"

// ShardStreamSeed stands in for sim.ShardStreamSeed: the analyzer
// matches the callee name, so the corpus supplies a local twin.
func ShardStreamSeed(seed int64, shard int) int64 {
	return seed ^ int64(shard)*2654435761
}

// FaultStreamSeed stands in for sim.FaultStreamSeed, the fault-layer
// stream derivation blessed alongside ShardStreamSeed.
func FaultStreamSeed(seed int64, round, shard int, kind uint32) int64 {
	return seed ^ int64(round)*3 ^ int64(shard)*5 ^ int64(kind)*7
}

func adHocSeed(seed int64, shard int) *rand.Rand {
	return rand.New(rand.NewSource(seed + int64(shard))) // want `ad-hoc rand\.NewSource seed in the engine`
}

func bareSeed(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed)) // want `ad-hoc rand\.NewSource seed in the engine`
}

func blessedShardSeed(seed int64, shard int) *rand.Rand {
	return rand.New(rand.NewSource(ShardStreamSeed(seed, shard)))
}

func blessedNodeSeed(seed int64, id int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(id)))
}

func blessedFaultSeed(seed int64, round, shard int) *rand.Rand {
	return rand.New(rand.NewSource(FaultStreamSeed(seed, round, shard, 1)))
}

// faultStream stands in for the engine's fault stream: the analyzer
// matches its Seed method by the receiver's type name.
type faultStream struct{ key int64 }

func (s *faultStream) Seed(seed int64) { s.key = seed }

func adHocReKey(r *rand.Rand, seed int64) {
	r.Seed(seed + 1) // want `ad-hoc Rand\.Seed seed in the engine`
}

func adHocFaultReKey(s *faultStream, seed int64, round int) {
	s.Seed(seed ^ int64(round)) // want `ad-hoc faultStream\.Seed seed in the engine`
}

func blessedReKey(r *rand.Rand, s *faultStream, seed int64, round, shard int) {
	r.Seed(ShardStreamSeed(seed, shard))
	s.Seed(FaultStreamSeed(seed, round, shard, 2))
}

func allowedMigration(seed int64) *rand.Rand {
	//muvet:allow nodeterm(scratch stream for a local experiment, not part of any digest)
	return rand.New(rand.NewSource(seed + 99))
}
