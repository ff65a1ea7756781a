package harness

import (
	"math/rand"
	"strings"
	"testing"

	"mucongest/internal/sim"
	"mucongest/internal/topo"
)

// corpusSeed pins the randomized corpus. Changing it re-rolls every
// scenario; the coverage assertions below keep any reroll honest.
const corpusSeed = 20260730

// corpusSize is the number of seeded scenarios the differential test
// runs; each executes on the reference engine once and on the
// production engine at workers 1 and 4.
const corpusSize = 200

// TestDifferentialEngineRandomized is the oracle gate for engine
// rewrites: 200 seeded scenarios spanning the topology registry, strict
// and lenient μ, every inbox order and multi-shard node counts, each
// cross-checked between the reference engine and the production engine
// in both execution forms (blocking and step) at workers 1 and 4 —
// digests, PeakWords, violation records and abort identity all
// byte-identical — plus the metamorphic invariants.
//
// The coverage assertions make the corpus self-describing: if a
// generator change (or a new corpusSeed) narrows what the scenarios
// exercise, the test fails even though every comparison passed. That
// includes step-mode coverage: every behavior must have run stepped at
// least once, and every behavior must have a step-form twin at all.
func TestDifferentialEngineRandomized(t *testing.T) {
	scs := Corpus(corpusSeed, corpusSize)
	families := map[string]int{}
	orders := map[sim.InboxOrder]int{}
	strict := map[bool]int{}
	behaviors := map[string]int{}
	stepped := map[string]int{}
	reprs := map[string]int{}
	multiShard, bounded, aborted, violated, compact, faulty := 0, 0, 0, 0, 0, 0
	var crashes, restarts, faultDrops int64

	for i, sc := range scs {
		out, err := CheckScenario(sc, 1, 4)
		if err != nil {
			t.Errorf("scenario %d %v: %v", i, sc, err)
			continue
		}
		fam, _, _ := strings.Cut(sc.TopoSpec, ":")
		families[fam]++
		orders[sc.Order]++
		strict[sc.Strict]++
		behaviors[sc.Behavior]++
		if out.Stepped {
			stepped[sc.Behavior]++
		}
		if sc.N > sim.ShardSpan {
			multiShard++
		}
		if sc.Mu > 0 {
			bounded++
		}
		if sc.Compact {
			compact++
		}
		reprs[out.Repr]++
		if out.Aborted {
			aborted++
		}
		if out.Violations > 0 {
			violated++
		}
		if out.Faulty {
			faulty++
		}
		crashes += out.Crashes
		restarts += out.Restarts
		faultDrops += out.FaultDrops
	}
	if t.Failed() {
		return
	}

	t.Logf("corpus: families=%v orders=%v strict=%v behaviors=%v multiShard=%d bounded=%d aborted=%d violated=%d compact=%d reprs=%v faulty=%d crashes=%d restarts=%d faultDrops=%d",
		families, orders, strict, behaviors, multiShard, bounded, aborted, violated, compact, reprs, faulty, crashes, restarts, faultDrops)
	// Every registered family must be drawn: a family added to the topo
	// registry without a drawTopo case fails here until the generator
	// (and so the oracle) covers it.
	for _, fam := range topo.FamilyNames() {
		if families[fam] == 0 {
			t.Errorf("corpus never drew registered topology family %q", fam)
		}
	}
	// Every representation class must run: the explicit baseline, the
	// compact CSR adjacency, and the implicit arithmetic topologies —
	// each compact scenario is also cross-certified against its explicit
	// twin inside CheckScenario, so nonzero counts here mean the
	// representation equivalence was actually exercised differentially.
	for _, r := range []string{"graph", "csr", "implicit"} {
		if reprs[r] == 0 {
			t.Errorf("corpus never ran a scenario on the %q representation", r)
		}
	}
	if compact == 0 {
		t.Error("corpus never drew a compact-representation scenario")
	}
	for o := sim.OrderBySender; o <= sim.OrderReversed; o++ {
		if orders[o] == 0 {
			t.Errorf("corpus never drew inbox order %d", o)
		}
	}
	if strict[true] == 0 || strict[false] == 0 {
		t.Errorf("corpus must cover both strict and lenient μ: %v", strict)
	}
	for _, b := range behaviorNames {
		if behaviors[b] == 0 {
			t.Errorf("corpus never drew behavior %q", b)
		}
		// A behavior without a step-form twin silently shrinks the step
		// runtime's differential coverage; adding one to Behaviors alone
		// must fail here until StepBehaviors gets the twin.
		if _, ok := StepBehaviors[b]; !ok {
			t.Errorf("behavior %q has no step-form twin in StepBehaviors", b)
		}
		if stepped[b] == 0 {
			t.Errorf("behavior %q never ran in step mode", b)
		}
	}
	if multiShard == 0 {
		t.Error("corpus never drew a multi-shard topology (n > sim.ShardSpan)")
	}
	if bounded == 0 || violated == 0 || aborted == 0 {
		t.Errorf("corpus must exercise bounded μ (%d), violations (%d) and aborts (%d)",
			bounded, violated, aborted)
	}
	// The fault axis must bite, not just parse: a meaningful share of
	// faulty scenarios, and real crashes, restarts and fault-induced
	// drops somewhere in the corpus — otherwise the parity claim "the
	// engines agree under failure" is vacuous.
	if faulty == 0 {
		t.Error("corpus never drew a faulty scenario")
	}
	if crashes == 0 || restarts == 0 || faultDrops == 0 {
		t.Errorf("fault plans never bit: crashes=%d restarts=%d faultDrops=%d", crashes, restarts, faultDrops)
	}
}

// FuzzEngineDifferential feeds arbitrary generator seeds through the
// scenario generator and requires the engines to stay byte-identical.
// The seed corpus keeps a handful of scenarios in the regular `go test`
// run; `go test -fuzz FuzzEngineDifferential ./internal/harness`
// explores further.
func FuzzEngineDifferential(f *testing.F) {
	for _, seed := range []int64{1, 7, 42, 1536, 99991} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		sc := Generate(rand.New(rand.NewSource(seed)))
		if _, err := CheckScenario(sc, 1, 4); err != nil {
			t.Fatalf("seed %d scenario %v: %v", seed, sc, err)
		}
	})
}

// shardScale is the shard-scale class: fixed scenarios at 8 to 24
// delivery shards of sim.ShardSpan nodes. The generated corpus never
// spans more than 3 shards, and a route group holds 2 or more shards
// only from 8 shards up (at one worker), so only this class runs the
// engine's grouped route phase against the oracle. It is a fixed list
// beside the corpus, so the corpus and its seeds stay as they are.
var shardScale = []Scenario{
	{Behavior: "gossip", TopoSpec: "cycle:n=4096", N: 4096,
		Seed: 11, TopoSeed: 1, Order: sim.OrderRandom, EdgeCap: 2, Rounds: 6, FailNode: -1},
	{Behavior: "broadcast", TopoSpec: "powerlaw:n=8192,attach=2", N: 8192, Compact: true,
		Seed: 12, TopoSeed: 2, Order: sim.OrderReversed, EdgeCap: 1, Rounds: 5, FailNode: -1,
		Mu: 8, Faults: "loss:p=0.1+edgedown:p=0.05,up=2"},
	{Behavior: "restartaware", TopoSpec: "torus:rows=64,cols=192", N: 12288, Compact: true,
		Seed: 13, TopoSeed: 3, Order: sim.OrderBySender, EdgeCap: 1, Rounds: 5, FailNode: -1,
		Faults: "crash:p=0.002,restart=2"},
	{Behavior: "strictpressure", TopoSpec: "torus:rows=64,cols=128", N: 8192, Compact: true,
		Seed: 14, TopoSeed: 4, Order: sim.OrderRandom, EdgeCap: 1, Rounds: 8, FailNode: -1,
		Mu: 6, Strict: true, Faults: "loss:p=0.2"},
}

// TestDifferentialShardScale runs the shard-scale class on the oracle at
// workers 1 and 4 and checks that it covers what it exists for: every
// scenario at 8 to 24 shards, the explicit graph and both compact
// representations, faults that bit, and a strict μ abort.
func TestDifferentialShardScale(t *testing.T) {
	reprs := map[string]bool{}
	faulty, strictAborts := 0, 0
	for _, sc := range shardScale {
		if shards := (sc.N + sim.ShardSpan - 1) / sim.ShardSpan; shards < 8 || shards > 24 {
			t.Errorf("%v spans %d shards, outside 8..24", sc, shards)
		}
		out, err := CheckScenario(sc, 1, 4)
		if err != nil {
			t.Errorf("%v: %v", sc, err)
			continue
		}
		t.Logf("%s: %+v", sc.TopoSpec, out)
		reprs[out.Repr] = true
		if out.Faulty {
			if out.FaultDrops == 0 && out.Crashes == 0 {
				t.Errorf("%v: the fault plan never bit", sc)
			}
			faulty++
		}
		if sc.Strict && out.Aborted && out.Violations > 0 {
			strictAborts++
		}
	}
	for _, r := range []string{"graph", "csr", "implicit"} {
		if !reprs[r] {
			t.Errorf("shard-scale class never ran on the %q representation", r)
		}
	}
	if faulty < 2 || strictAborts == 0 {
		t.Errorf("shard-scale class needs 2 faulty scenarios (has %d) and a strict μ abort (has %d)", faulty, strictAborts)
	}
}

// sleepers is the sleep-path class: fixed scenarios of the sleeper
// behavior, whose nodes spend most rounds inside Idle, where the engine
// completes their rounds without resuming them. It covers what can
// interrupt a sleep: crash/restart under loss, edge churn on a
// multi-shard cycle, a strict μ abort and a node-error abort. Like
// shardScale it is a fixed list beside the corpus, so the corpus and
// its seeds stay as they are.
var sleepers = []Scenario{
	{Behavior: "sleeper", TopoSpec: "torus:rows=8,cols=8", N: 64, Compact: true,
		Seed: 21, TopoSeed: 1, Order: sim.OrderBySender, EdgeCap: 1, Rounds: 6, FailNode: -1,
		Mu: 12, Faults: "loss:p=0.2+crash:p=0.05,restart=3"},
	{Behavior: "sleeper", TopoSpec: "cycle:n=1536", N: 1536,
		Seed: 22, TopoSeed: 2, Order: sim.OrderRandom, EdgeCap: 1, Rounds: 6, FailNode: -1,
		Mu: 8, Faults: "edgedown:p=0.1,up=2"},
	{Behavior: "sleeper", TopoSpec: "cycle:n=40", N: 40,
		Seed: 23, TopoSeed: 3, Order: sim.OrderReversed, EdgeCap: 1, Rounds: 8, FailNode: -1,
		Mu: 12, Strict: true},
	{Behavior: "sleeper", TopoSpec: "grid:rows=6,cols=7", N: 42,
		Seed: 24, TopoSeed: 4, Order: sim.OrderBySender, EdgeCap: 1, Rounds: 6, FailNode: 17, FailRound: 2},
}

// TestDifferentialSleepers runs the sleep-path class on the oracle at
// workers 1 and 4, in both program forms, and checks that each scenario
// did what it is there for: crashes and restarts, fault drops across
// shards, a strict μ abort and a node-error abort.
func TestDifferentialSleepers(t *testing.T) {
	var crashed, churned, strictAbort, errorAbort bool
	for _, sc := range sleepers {
		out, err := CheckScenario(sc, 1, 4)
		if err != nil {
			t.Errorf("%v: %v", sc, err)
			continue
		}
		t.Logf("%s: %+v", sc.TopoSpec, out)
		if !out.Stepped {
			t.Errorf("%v: the step twin did not run", sc)
		}
		crashed = crashed || out.Crashes > 0 && out.Restarts > 0
		churned = churned || sc.N > sim.ShardSpan && out.FaultDrops > 0
		strictAbort = strictAbort || sc.Strict && out.Aborted && out.Violations > 0
		errorAbort = errorAbort || sc.FailNode >= 0 && out.Aborted
	}
	if !crashed || !churned || !strictAbort || !errorAbort {
		t.Errorf("sleepers class coverage: crash/restart %v, multi-shard fault drops %v, strict abort %v, node-error abort %v",
			crashed, churned, strictAbort, errorAbort)
	}
}
