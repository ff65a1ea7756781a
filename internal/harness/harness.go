// Package harness is the randomized differential-verification layer on
// top of internal/sim/refsim: it generates seeded, reproducible
// scenarios across every axis the μ-CONGEST engine exposes — topology
// family (drawn from the internal/topo registry), node count (including
// multi-shard sizes), memory bound μ, strict vs lenient enforcement,
// inbox order, edge capacity, seeded fault plans (message loss, node
// crash/restart, edge churn — see sim.FaultPlan), and a library of node
// behaviors (broadcast-heavy, charge-only, early-finish, mid-run node
// error, RNG-driven gossip, strict-μ pressure, restart-aware) — and
// runs each scenario on the
// reference engine and on the production engine at several worker
// counts, requiring byte-identical results: digests over outputs (the
// behaviors emit an order-sensitive fold per round, so the comparison is
// effectively round-by-round), PeakWords, violation records, message
// and drop totals, and abort identity down to the error string.
//
// On top of the exact comparison the harness checks metamorphic
// invariants that hold for any correct engine: per-round message
// conservation (sent = delivered + dropped), digest invariance across
// worker counts, and peak monotonicity in delivered words
// (PeakWords[v] ≥ the largest inbox ever handed to v).
//
// TestDifferentialEngineRandomized runs a fixed seed corpus (~200
// scenarios); FuzzEngineDifferential explores further seeds under `go
// test -fuzz`. Any future engine rewrite must keep both green.
package harness

import (
	"fmt"
	"math/rand"

	"mucongest/internal/sim"
)

// Scenario is one reproducible differential test case. All fields are
// derived deterministically from generator randomness, so a scenario
// is fully described by the seed that produced it.
type Scenario struct {
	// Seed is the engine seed used by both engines (never 0, so the
	// refsim Config default does not kick in).
	Seed int64
	// TopoSpec is the canonical topo-registry spec of the communication
	// graph; TopoSeed seeds its generator randomness.
	TopoSpec string
	TopoSeed int64
	// N is the node count of the built topology (recorded so behaviors
	// can pick valid node ids without building the graph).
	N int
	// Mu is the memory bound in words (0 = unbounded); Strict selects
	// abort-on-violation.
	Mu     int64
	Strict bool
	Order  sim.InboxOrder
	// EdgeCap is the per-edge per-round message budget (≥ 1).
	EdgeCap int
	// Compact selects the registry's compact representation
	// (topo.Spec.BuildTopology) instead of the flat *graph.Graph of
	// topo.Spec.Build. The two differ only for the families with an
	// engine-native implicit topology (grid/torus/hypercube/complete),
	// where Compact runs the implicit Degree / NeighborAt / PortOf
	// arithmetic in place of the graph's rows. The two are
	// edge-for-edge identical — CheckScenario certifies that
	// differentially by running the reference engine on both and
	// requiring byte-identical results.
	Compact bool
	// Behavior names the node program (see behaviors.go); Rounds is its
	// horizon. FailNode/FailRound parameterize the node-error behavior
	// (FailNode < 0 for the others).
	Behavior  string
	Rounds    int
	FailNode  int
	FailRound int
	// Faults is the sim.FaultPlan spec both engines run under ("" for a
	// fault-free scenario). Kept as the canonical spec string so the
	// scenario stays printable and the spec parser sits on the oracle
	// path too.
	Faults string
}

func (s Scenario) String() string {
	return fmt.Sprintf("{%s on %q n=%d compact=%v seed=%d toposeed=%d mu=%d strict=%v order=%d cap=%d rounds=%d fail=%d@%d faults=%q}",
		s.Behavior, s.TopoSpec, s.N, s.Compact, s.Seed, s.TopoSeed, s.Mu, s.Strict, s.Order, s.EdgeCap,
		s.Rounds, s.FailNode, s.FailRound, s.Faults)
}

// Generate draws one scenario from rng. Every draw is valid by
// construction: topology parameters are clamped to their families'
// constraints and behavior parameters to the topology size, so the
// fuzz target can feed arbitrary seeds straight through.
func Generate(rng *rand.Rand) Scenario {
	spec, n, compact := drawTopo(rng)
	// Beyond the complete-family draw, a third of scenarios run the
	// production engine on the compact representation of whatever family
	// was drawn; an implicit one is certified against the flat graph by
	// an extra reference run inside CheckScenario.
	if !compact {
		compact = rng.Intn(3) == 0
	}
	sc := Scenario{
		Seed:      1 + rng.Int63n(1<<62),
		TopoSpec:  spec,
		TopoSeed:  1 + rng.Int63n(1<<62),
		N:         n,
		Compact:   compact,
		Order:     sim.InboxOrder(rng.Intn(3)),
		EdgeCap:   1 + rng.Intn(2),
		Rounds:    3 + rng.Intn(8),
		FailNode:  -1,
		FailRound: 0,
	}
	// μ: unbounded a quarter of the time, otherwise tight (1..12 words)
	// so violations actually occur; strict is drawn independently —
	// strict with μ=0 pins that strict mode without a bound is a no-op.
	if rng.Intn(4) != 0 {
		sc.Mu = 1 + rng.Int63n(12)
	}
	sc.Strict = rng.Intn(2) == 0
	sc.Behavior = behaviorNames[rng.Intn(len(behaviorNames))]
	if sc.Behavior == "nodeerror" {
		sc.FailNode = rng.Intn(n)
		sc.FailRound = rng.Intn(sc.Rounds)
	}
	// Faults: ~40% of scenarios run under a fault plan, so the oracle
	// certifies engine/refsim parity under failure as a matter of course
	// rather than in a dedicated suite.
	if rng.Intn(5) < 2 {
		sc.Faults = drawFaults(rng, n)
	}
	return sc
}

// drawFaults composes a non-empty fault plan: each non-empty subset of
// {loss, crash, edgedown} is drawn uniformly, with rates high enough to
// bite within the short scenario horizons. The crash rate is scaled down
// an order of magnitude on multi-shard topologies — the run only ends
// once every node has finished an uninterrupted execution, and at large
// n an aggressive crash rate makes that horizon excessively long.
func drawFaults(rng *rand.Rand, n int) string {
	var p sim.FaultPlan
	mask := 1 + rng.Intn(7)
	if mask&1 != 0 {
		p.Loss, p.LossP = true, 0.05+0.45*rng.Float64()
	}
	if mask&2 != 0 {
		p.Crash = true
		p.CrashP = 0.02 + 0.28*rng.Float64()
		if n > sim.ShardSpan {
			p.CrashP /= 10
		}
		p.Restart = 1 + rng.Intn(4)
	}
	if mask&4 != 0 {
		p.EdgeDown, p.EdgeDownP, p.Up = true, 0.05+0.35*rng.Float64(), 1+rng.Intn(3)
	}
	return p.String()
}

// Corpus derives k scenarios from one master seed.
func Corpus(masterSeed int64, k int) []Scenario {
	rng := rand.New(rand.NewSource(masterSeed))
	out := make([]Scenario, k)
	for i := range out {
		out[i] = Generate(rng)
	}
	return out
}

// drawTopo picks a topology family and size, covering every family the
// topo registry declares (the corpus test asserts this against
// topo.FamilyNames(), so a newly registered family fails the corpus
// until it is drawn here). Most scenarios stay small (the differential
// comparison is O(n · rounds) three times over); one in eight spans
// multiple delivery shards (n > sim.ShardSpan) on a cheap family,
// exercising the per-shard RNG stream derivation; complete forces the
// compact draw half the time so the implicit all-to-all port arithmetic
// stays covered regardless of the general compact rate in Generate.
func drawTopo(rng *rand.Rand) (spec string, n int, compact bool) {
	if rng.Intn(8) == 0 {
		n = sim.ShardSpan + 1 + rng.Intn(700)
		switch rng.Intn(4) {
		case 0:
			return fmt.Sprintf("cycle:n=%d", n), n, false
		case 1:
			return fmt.Sprintf("path:n=%d", n), n, false
		case 2:
			return fmt.Sprintf("star:n=%d", n), n, false
		default:
			return fmt.Sprintf("powerlaw:n=%d,attach=%d", n, 1+rng.Intn(4)), n, false
		}
	}
	switch rng.Intn(13) {
	case 0:
		n = 3 + rng.Intn(60)
		return fmt.Sprintf("cycle:n=%d", n), n, false
	case 1:
		n = 2 + rng.Intn(60)
		return fmt.Sprintf("path:n=%d", n), n, false
	case 2:
		n = 2 + rng.Intn(60)
		return fmt.Sprintf("star:n=%d", n), n, false
	case 3:
		r, c := 2+rng.Intn(7), 2+rng.Intn(7)
		return fmt.Sprintf("grid:rows=%d,cols=%d", r, c), r * c, false
	case 4:
		r, c := 3+rng.Intn(5), 3+rng.Intn(5)
		return fmt.Sprintf("torus:rows=%d,cols=%d", r, c), r * c, false
	case 5:
		d := 2 + rng.Intn(5)
		return fmt.Sprintf("hypercube:dim=%d", d), 1 << d, false
	case 6:
		n = 4 + rng.Intn(44)
		p := 0.2 + 0.5*rng.Float64()
		return fmt.Sprintf("gnp:n=%d,p=%.3f,conn=1", n, p), n, false
	case 7:
		n = 6 + rng.Intn(50)
		attach := 1 + rng.Intn(4)
		return fmt.Sprintf("powerlaw:n=%d,attach=%d", n, attach), n, false
	case 8:
		k, size := 3+rng.Intn(4), 2+rng.Intn(5)
		return fmt.Sprintf("cycliques:k=%d,size=%d", k, size), k * size, false
	case 9:
		size := 2 + rng.Intn(22)
		p := 0.3 + 0.5*rng.Float64()
		return fmt.Sprintf("barbell:size=%d,p=%.3f", size, p), 2 * size, false
	case 10:
		n = 4 + rng.Intn(44)
		p := 0.2 + 0.5*rng.Float64()
		return fmt.Sprintf("hub:n=%d,p=%.3f", n, p), n, false
	case 11:
		n = 2 + rng.Intn(60)
		return fmt.Sprintf("complete:n=%d", n), n, rng.Intn(2) == 0
	default:
		n = 6 + rng.Intn(40)
		d := 2 + rng.Intn(3)
		if n*d%2 != 0 {
			n++
		}
		return fmt.Sprintf("regular:n=%d,d=%d", n, d), n, false
	}
}
