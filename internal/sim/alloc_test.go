package sim

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"

	"mucongest/internal/graph"
)

// TestSteadyStateRoundAllocFree pins the engine's steady-state round
// path to zero allocations per round: every buffer the round loop
// touches — staged outboxes, transfer buckets, inboxes, the bandwidth
// meter, the barrier — must be reused once warmed up. It measures the
// allocation *delta* between a short run and a long run of the same
// broadcast workload on a mid-size multi-shard cycle, so setup and
// warm-up allocations (coroutines, a cold scratch pool, first-round
// buffer growth) cancel out and only the per-round cost remains.
func TestSteadyStateRoundAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc accounting is meaningless under -race")
	}
	// A GC cycle mid-measurement evicts the engine's scratch pool, and
	// the following run's full re-setup (~hundreds of allocs) would land
	// in the delta as a false positive. Alloc accounting, not memory
	// behavior, is under test — so pause GC for its duration.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	topo := graph.Cycle(2048) // 4 shards: the sharded delivery path, not the n ≤ 512 degenerate case
	const n = 2048
	const base, long = 8, 40
	var runErr error
	run := func(rounds int, workers int) {
		e := New(topo, WithSeed(1), WithSimWorkers(workers))
		program := func(c *Ctx) {
			for r := 0; r < rounds; r++ {
				c.Broadcast(Msg{Kind: 1, A: int64(c.ID()), B: int64(r)})
				c.Tick()
			}
		}
		if _, err := e.Run(program); err != nil && runErr == nil {
			runErr = err
		}
	}
	// The empty-plan twin pins that merely passing WithFaults with a
	// zero FaultPlan keeps the allocation-free hot path: hasFaults stays
	// false, so no fault branch, stream or scratch is ever touched.
	runEmptyFaults := func(rounds int, workers int) {
		e := New(topo, WithSeed(1), WithSimWorkers(workers), WithFaults(FaultPlan{}))
		program := func(c *Ctx) {
			for r := 0; r < rounds; r++ {
				c.Broadcast(Msg{Kind: 1, A: int64(c.ID()), B: int64(r)})
				c.Tick()
			}
		}
		if _, err := e.Run(program); err != nil && runErr == nil {
			runErr = err
		}
	}
	// The step-form twin drives the same broadcast workload as state
	// machines: its per-round path (inline Step calls, outbox staging)
	// must be exactly as allocation-free as the blocking form's coroutine
	// resume. The machines are pre-allocated outside the measured runs,
	// mirroring how the blocking closure is shared.
	stepProgs := make([]allocBroadcastStep, n)
	runStep := func(rounds int, workers int) {
		for i := range stepProgs {
			stepProgs[i] = allocBroadcastStep{rounds: rounds}
		}
		e := New(topo, WithSeed(1), WithSimWorkers(workers))
		prog := Steps(func(c *Ctx) StepProgram { return &stepProgs[c.ID()] })
		if _, err := e.RunProgram(prog); err != nil && runErr == nil {
			runErr = err
		}
	}
	// The idle-heavy twin broadcasts every fourth round and sleeps
	// through the other three in Idle: the rounds the engine completes
	// without resuming a node, and the inboxes they discard, must be as
	// allocation-free as a resumed round.
	runIdle := func(rounds int, workers int) {
		e := New(topo, WithSeed(1), WithSimWorkers(workers))
		program := func(c *Ctx) {
			for r := 0; r < rounds; r += 4 {
				c.Broadcast(Msg{Kind: 1, A: int64(c.ID()), B: int64(r)})
				c.Idle(4)
			}
		}
		if _, err := e.Run(program); err != nil && runErr == nil {
			runErr = err
		}
	}
	for _, mode := range []struct {
		name string
		run  func(rounds, workers int)
	}{{"goroutine", run}, {"step", runStep}, {"emptyfaults", runEmptyFaults}, {"idle", runIdle}} {
		for _, workers := range []int{1, 4} {
			short := testing.AllocsPerRun(5, func() { mode.run(base, workers) })
			full := testing.AllocsPerRun(5, func() { mode.run(long, workers) })
			if runErr != nil {
				t.Fatal(runErr)
			}
			perRound := (full - short) / float64(long-base)
			// Zero, with only float headroom: a real regression (per-node or
			// per-message allocation) costs thousands per round at n=2048.
			if perRound > 0.01 {
				t.Errorf("mode=%s workers=%d: steady-state round allocates: %.2f allocs/round (short=%.0f, long=%.0f)",
					mode.name, workers, perRound, short, full)
			}
		}
	}
}

// TestColdRunAllocsPerNode pins what a cold run allocates: with the
// scratch pool drained, one step-form broadcast on 16 shards may cost at
// most 1.25 allocations per node. Messages live in per-shard arenas, so
// the per-node share is the lazily sized bandwidth meter alone; per-node
// inbox or outbox buffers would cost several more per node.
func TestColdRunAllocsPerNode(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc accounting is meaningless under -race")
	}
	const n = 16 * ShardSpan
	topos := []struct {
		name string
		topo Topology
	}{
		{"cycle", graph.CycleCSR(n)},
		{"powerlaw", graph.BarabasiAlbertCSR(n, 3, rand.New(rand.NewSource(1)))},
	}
	for _, tp := range topos {
		for _, workers := range []int{1, 4} {
			progs := make([]allocBroadcastStep, n)
			for i := range progs {
				progs[i].rounds = 2
			}
			e := New(tp.topo, WithSeed(1), WithSimWorkers(workers))
			prog := Steps(func(c *Ctx) StepProgram { return &progs[c.ID()] })
			// Two collections empty the sync.Pool (its primary and victim
			// caches), so the run below builds every buffer from scratch.
			runtime.GC()
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := e.RunProgram(prog)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			perNode := float64(after.Mallocs-before.Mallocs) / n
			t.Logf("%s workers=%d: %.3f allocs/node", tp.name, workers, perNode)
			if perNode > 1.25 {
				t.Errorf("%s workers=%d: cold run allocates %.2f times per node, want ≤ 1.25", tp.name, workers, perNode)
			}
		}
	}
}

// TestNodeRTSize pins the node runtime slot at two cache lines. The
// account and resume phases walk every slot every round; at 128 B each
// slot of a large (page-aligned) array is exactly two lines, with the
// fields a round reads in the first, while a larger slot straddles
// lines.
func TestNodeRTSize(t *testing.T) {
	if got := unsafe.Sizeof(nodeRT{}); got > 128 {
		t.Errorf("nodeRT is %d bytes, want at most 128", got)
	}
}

// allocBroadcastStep is the step-form twin of the broadcast program in
// TestSteadyStateRoundAllocFree.
type allocBroadcastStep struct{ rounds, r int }

func (s *allocBroadcastStep) Step(c *Ctx, in []Incoming) bool {
	if s.r >= s.rounds {
		return false
	}
	c.Broadcast(Msg{Kind: 1, A: int64(c.ID()), B: int64(s.r)})
	s.r++
	return true
}
