package bench

import "mucongest/internal/sim"

// The canonical engine round-loop workload, in both execution forms:
// every node broadcasts one message to every neighbor every round for a
// fixed number of rounds. It carries no algorithm logic, so a run's
// cost is pure engine overhead — staging, routing, inbox ordering,
// memory accounting, and the per-round hand-off to node programs (the
// part the two forms differ in). The root BenchmarkEngineRound* cells
// and cmd/muexp's -engine mode share these constructors so the
// benchmarked workload and the CLI-reproducible one are the same code.

// BroadcastProgram returns the blocking form of the broadcast workload
// (a func(*sim.Ctx) the engine runs as a coroutine per node).
func BroadcastProgram(rounds int) func(*sim.Ctx) {
	return func(c *sim.Ctx) {
		for r := 0; r < rounds; r++ {
			c.Broadcast(sim.Msg{Kind: 1, A: int64(c.ID()), B: int64(r)})
			c.Tick()
		}
	}
}

// broadcastStep is the step-form twin of BroadcastProgram's loop body.
type broadcastStep struct{ rounds, r int }

func (s *broadcastStep) Step(c *sim.Ctx, in []sim.Incoming) bool {
	if s.r >= s.rounds {
		// Self-reset on the terminating step so one BroadcastSteps value
		// can drive repeated runs (benchmark iterations) without
		// re-allocating n machines. The engine never steps a terminated
		// node again within a run, so this fires exactly once per run.
		s.r = 0
		return false
	}
	c.Broadcast(sim.Msg{Kind: 1, A: int64(c.ID()), B: int64(s.r)})
	s.r++
	return true
}

// BroadcastSteps returns the state-machine step form of the broadcast
// workload for an n-node topology: one pre-allocated machine per node,
// driven inline by the engine's delivery workers. The returned Program
// is reusable across runs (machines self-reset as they terminate).
func BroadcastSteps(n, rounds int) sim.Program {
	progs := make([]broadcastStep, n)
	for i := range progs {
		progs[i].rounds = rounds
	}
	return sim.Steps(func(c *sim.Ctx) sim.StepProgram { return &progs[c.ID()] })
}
