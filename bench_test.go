package mucongest

import (
	"io"
	"math/rand"
	"testing"

	"mucongest/internal/bench"
	"mucongest/internal/graph"
	"mucongest/internal/sim"
	"mucongest/internal/topo"
)

// One benchmark per experiment of README.md's E1–E13 map. Each iteration runs the
// whole experiment (workload generation + simulation sweep); reported
// ns/op therefore tracks the end-to-end cost of regenerating the
// corresponding paper table. Sizes are scaled down from cmd/muexp's
// defaults to keep `go test -bench=.` snappy.

func runTables(b *testing.B, f func() *bench.Table) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := f()
		t.Fprint(io.Discard)
	}
}

func BenchmarkE1_LowerBoundTightness(b *testing.B) {
	runTables(b, func() *bench.Table { return bench.E1E2(topo.MustParse("gnp:n=36,p=0.5"), 4, 1) })
}

func BenchmarkE2_CliqueListingCC(b *testing.B) {
	runTables(b, func() *bench.Table { return bench.E1E2(topo.MustParse("gnp:n=32,p=0.5"), 3, 1) })
}

func BenchmarkE3_TriangleMuCongest(b *testing.B) {
	runTables(b, func() *bench.Table { return bench.E3(topo.MustParse("gnp:n=40,p=0.5"), 1) })
}

func BenchmarkE4_PPassSimulation(b *testing.B) {
	runTables(b, func() *bench.Table { return bench.E4E5(topo.MustParse("cycliques:k=3,size=6"), 1) })
}

func BenchmarkE5_CycleOfCliques(b *testing.B) {
	runTables(b, func() *bench.Table { return bench.E4E5(topo.MustParse("cycliques:k=4,size=6"), 2) })
}

func BenchmarkE6_RandomOrderShuffle(b *testing.B) {
	runTables(b, func() *bench.Table { return bench.E6(topo.MustParse("hub:n=14,p=0.4"), 1) })
}

func BenchmarkE7_OneWayGK(b *testing.B) {
	runTables(b, func() *bench.Table { return bench.E7(topo.MustParse("gnp:n=16,p=0.15,conn=1"), 1) })
}

func BenchmarkE8_FullyMergeableMG(b *testing.B) {
	runTables(b, func() *bench.Table { return bench.E8(topo.MustParse("gnp:n=16,p=0.15,conn=1"), 1) })
}

func BenchmarkE9_ComposableCRPrecis(b *testing.B) {
	runTables(b, func() *bench.Table { return bench.E9(topo.MustParse("gnp:n=16,p=0.15,conn=1"), 1) })
}

func BenchmarkE10_MonochromaticTriangles(b *testing.B) {
	runTables(b, func() *bench.Table { return bench.E10(topo.MustParse("gnp:n=24,p=0.5"), 1) })
}

// The BenchmarkEngineRound* family isolates the engine round loop
// (staging, routing, inbox ordering, memory accounting) from any
// algorithm logic: every node broadcasts every round for a fixed number
// of rounds. ns/op and allocs/op therefore track the per-round engine
// overhead that every experiment pays.

func benchEngineRounds(b *testing.B, topo sim.Topology, rounds int, opts ...sim.Option) {
	b.Helper()
	b.ReportAllocs()
	program := bench.BroadcastProgram(rounds)
	for i := 0; i < b.N; i++ {
		e := sim.New(topo, append([]sim.Option{sim.WithSeed(1)}, opts...)...)
		if _, err := e.Run(program); err != nil {
			b.Fatal(err)
		}
	}
}

// benchEngineRoundsStep runs the identical workload in step form: the
// machines are pre-allocated outside the timer once and reset per
// iteration, so ns/op isolates the engine's round loop (bind, route,
// account, inline step dispatch) exactly as the blocking cells isolate
// theirs.
func benchEngineRoundsStep(b *testing.B, topo sim.Topology, rounds int, opts ...sim.Option) {
	b.Helper()
	b.ReportAllocs()
	prog := bench.BroadcastSteps(topo.N(), rounds)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := sim.New(topo, append([]sim.Option{sim.WithSeed(1)}, opts...)...)
		if _, err := e.RunProgram(prog); err != nil {
			b.Fatal(err)
		}
	}
}

// benchWarm times run after one untimed warm-up call: the first run at
// a given scale pays one-time growth of the shared run-scratch pools,
// and whether a cold run finds the pool filled depends on how many GC
// cycles whatever ran before triggered. The warm cells measure the
// steady-state run — reproducible enough at -benchtime 1x for the CI
// perf gate to ratio allocations tightly.
func benchWarm(b *testing.B, run func()) {
	b.Helper()
	run() // warm-up, untimed
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// benchEngineRoundsStepWarm is benchEngineRoundsStep run through
// benchWarm.
func benchEngineRoundsStepWarm(b *testing.B, topo sim.Topology, rounds int, opts ...sim.Option) {
	b.Helper()
	prog := bench.BroadcastSteps(topo.N(), rounds)
	benchWarm(b, func() {
		e := sim.New(topo, append([]sim.Option{sim.WithSeed(1)}, opts...)...)
		if _, err := e.RunProgram(prog); err != nil {
			b.Fatal(err)
		}
	})
}

func BenchmarkEngineRoundDense64(b *testing.B) {
	benchEngineRounds(b, sim.NewComplete(64), 32)
}

func BenchmarkEngineRoundSparseRing1024(b *testing.B) {
	benchEngineRounds(b, graph.Cycle(1024), 32)
}

func BenchmarkEngineRoundRandomOrder64(b *testing.B) {
	benchEngineRounds(b, sim.NewComplete(64), 32, sim.WithInboxOrder(sim.OrderRandom))
}

func BenchmarkEngineRoundReversed64(b *testing.B) {
	benchEngineRounds(b, sim.NewComplete(64), 32, sim.WithInboxOrder(sim.OrderReversed))
}

// BenchmarkEngineRoundFaults96 is the per-round cost a fault sweep pays
// at small n: 96 step-form nodes on a cycle broadcast for 20,000 rounds
// under message loss, crash/restart and edge churn at once (the plan of
// mubench's torus-1m-faults workload), warm. Every round re-keys the
// shard's crash and loss streams and hashes each message's edge, so
// ns/op divided by 20,000 is the engine's per-round cost with the whole
// fault layer on.
func BenchmarkEngineRoundFaults96(b *testing.B) {
	plan, err := sim.ParseFaults("loss:p=0.01+crash:p=0.001,restart=5+edgedown:p=0.005,up=3")
	if err != nil {
		b.Fatal(err)
	}
	benchEngineRoundsStepWarm(b, graph.Cycle(96), 20_000, sim.WithFaults(plan))
}

// BenchmarkEngineRoundBroadcastComplete512 isolates the per-message
// send path at high fan-out: 512 nodes broadcasting on the implicit
// complete topology is ~262k Send meters + routed appends per round,
// every port resolved by the topology's NeighborAt arithmetic (no
// materialized adjacency), so ns/op tracks Ctx.Broadcast/Send overhead
// directly.
func BenchmarkEngineRoundBroadcastComplete512(b *testing.B) {
	benchEngineRounds(b, sim.NewComplete(512), 4)
}

// Large-scale cells: the engine round loop at 65536 nodes, the scale the
// sharded delivery path is built for. The Workers1/Workers4/WorkersMax
// triple measures the parallel-delivery speedup directly (identical
// results, different wall-clock); torus and powerlaw cover structured
// and heavy-tailed degree distributions at the same scale. Setup
// (graph generation) happens once per benchmark, outside the timer; the
// cycle cells and the powerlaw cell run warm (see benchWarm).

var benchLargeTopo = struct {
	cycle, cycle1m, torus, powerlaw, powerlaw1m sim.Topology
}{}

func largeCycle() sim.Topology {
	if benchLargeTopo.cycle == nil {
		benchLargeTopo.cycle = graph.Cycle(65536)
	}
	return benchLargeTopo.cycle
}

func benchEngineLarge(b *testing.B, topo sim.Topology, workers int) {
	b.Helper()
	program := bench.BroadcastProgram(4)
	benchWarm(b, func() {
		e := sim.New(topo, sim.WithSeed(1), sim.WithSimWorkers(workers))
		if _, err := e.Run(program); err != nil {
			b.Fatal(err)
		}
	})
}

func BenchmarkEngineRoundCycle65536Workers1(b *testing.B) {
	benchEngineLarge(b, largeCycle(), 1)
}

func BenchmarkEngineRoundCycle65536Workers4(b *testing.B) {
	benchEngineLarge(b, largeCycle(), 4)
}

func BenchmarkEngineRoundCycle65536WorkersMax(b *testing.B) {
	benchEngineLarge(b, largeCycle(), 0) // 0 = GOMAXPROCS
}

// The Step triple is the A/B counterpart of the three cells above: the
// identical broadcast workload on the identical topology, but written
// as state machines. The blocking cells pay 65536 coroutine starts and
// a coroutine switch per node per round on top; these pay only the
// inline Step dispatch inside the delivery workers.

func benchEngineLargeStep(b *testing.B, topo sim.Topology, workers int) {
	b.Helper()
	benchEngineRoundsStepWarm(b, topo, 4, sim.WithSimWorkers(workers))
}

func BenchmarkEngineRoundCycle65536StepWorkers1(b *testing.B) {
	benchEngineLargeStep(b, largeCycle(), 1)
}

func BenchmarkEngineRoundCycle65536StepWorkers4(b *testing.B) {
	benchEngineLargeStep(b, largeCycle(), 4)
}

func BenchmarkEngineRoundCycle65536StepWorkersMax(b *testing.B) {
	benchEngineLargeStep(b, largeCycle(), 0)
}

// BenchmarkEngineRoundCycle1MStep is the step-form scale smoke: a full
// broadcast round loop over a one-million-node cycle with no per-node
// stack at all. Run with -benchtime 1x in CI;
// a single op proves a routine 1M-node run completes and bounds its
// wall-clock.
func BenchmarkEngineRoundCycle1MStep(b *testing.B) {
	if benchLargeTopo.cycle1m == nil {
		benchLargeTopo.cycle1m = graph.Cycle(1 << 20)
	}
	b.ResetTimer()
	benchEngineRoundsStep(b, benchLargeTopo.cycle1m, 2, sim.WithSimWorkers(0))
}

// BenchmarkEngineRoundBlockingIdle36 measures the sleep path: 36
// blocking nodes on the implicit complete graph call Idle(10,000), so
// each yields once and the engine completes the other 9,999 rounds
// without resuming it — the shape of the routing rounds the paper
// grid's E1/E2 cells charge. ns/op divided by 10,000 is the engine cost
// of one round in which every node sleeps.
func BenchmarkEngineRoundBlockingIdle36(b *testing.B) {
	benchBlocking36(b, func(c *sim.Ctx) { c.Idle(10_000) })
}

// BenchmarkEngineRoundBlockingTick36 measures the blocking form's
// per-round hand-off in isolation: the same 36 nodes call Tick 10,000
// times without sending, so every round resumes every coroutine — what
// E1/E2's two router barrier ticks per block still pay. ns/op divided
// by 10,000 is the engine cost of one such round.
func BenchmarkEngineRoundBlockingTick36(b *testing.B) {
	benchBlocking36(b, func(c *sim.Ctx) {
		for i := 0; i < 10_000; i++ {
			c.Tick()
		}
	})
}

// benchBlocking36 times program, a blocking program, warm on 36 nodes
// of the implicit complete graph.
func benchBlocking36(b *testing.B, program func(*sim.Ctx)) {
	b.Helper()
	topo := sim.NewComplete(36)
	benchWarm(b, func() {
		if _, err := sim.New(topo, sim.WithSeed(1)).Run(program); err != nil {
			b.Fatal(err)
		}
	})
}

func BenchmarkEngineRoundTorus65536(b *testing.B) {
	if benchLargeTopo.torus == nil {
		benchLargeTopo.torus = graph.Torus(256, 256)
	}
	b.ResetTimer()
	benchEngineRounds(b, benchLargeTopo.torus, 4, sim.WithSimWorkers(0))
}

// BenchmarkEngineRoundPowerlaw65536 drives heavy-tailed degrees at
// 65536 nodes on the flat graph, goroutine-free and warm: the
// per-round engine cost on the representation and runtime the large-n
// experiments actually use. Before the flat layout this cell ran a
// [][]int adjacency in goroutine mode, cold — 1.05 s and 112 MB per op;
// both that baseline and the one recording the flat + step + warm
// speedup are in git history.
func BenchmarkEngineRoundPowerlaw65536(b *testing.B) {
	if benchLargeTopo.powerlaw == nil {
		benchLargeTopo.powerlaw = graph.BarabasiAlbert(65536, 3, rand.New(rand.NewSource(1)))
	}
	benchEngineRoundsStepWarm(b, benchLargeTopo.powerlaw, 4, sim.WithSimWorkers(0))
}

// The 1M cells pin the large-n story end to end: a million-node
// power-law graph (built once, outside the timer) and a million-node
// implicit torus (O(1) memory, port arithmetic only) each complete a
// goroutine-free broadcast round loop. Run with -benchtime 1x in CI; a
// single op proves the representation layer serves engine rounds at
// the scale a [][]int adjacency could not hold.

func BenchmarkEngineRoundPowerlaw1MStep(b *testing.B) {
	if benchLargeTopo.powerlaw1m == nil {
		benchLargeTopo.powerlaw1m = graph.BarabasiAlbert(1<<20, 3, rand.New(rand.NewSource(1)))
	}
	benchEngineRoundsStep(b, benchLargeTopo.powerlaw1m, 2, sim.WithSimWorkers(0))
}

func BenchmarkEngineRoundTorus1MStep(b *testing.B) {
	benchEngineRoundsStep(b, sim.NewTorus(1024, 1024), 2, sim.WithSimWorkers(0))
}

// BenchmarkEngineRoundComplete65536Setup pins the implicit Complete
// topology: engine construction plus one-node port arithmetic at a
// scale where a materialized adjacency (O(n²) ints) is unbuildable.
func BenchmarkEngineRoundComplete65536Setup(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := sim.NewComplete(65536)
		e := sim.New(c, sim.WithSeed(1))
		if e.N() != 65536 || c.PortOf(0, 65535) != 65534 {
			b.Fatal("bad complete topology")
		}
	}
}

func BenchmarkE11_RoutingTradeoff(b *testing.B) {
	runTables(b, func() *bench.Table { return bench.E11E12(topo.MustParse("gnp:n=28,p=0.5"), 1) })
}

func BenchmarkE12_DecompTradeoff(b *testing.B) {
	runTables(b, func() *bench.Table { return bench.E11E12(topo.MustParse("gnp:n=32,p=0.5"), 2) })
}

func BenchmarkE13_SketchResilience(b *testing.B) {
	runTables(b, func() *bench.Table { return bench.E13(topo.MustParse("gnp:n=16,p=0.15,conn=1"), 1) })
}
