package sim_test

import (
	"fmt"

	"mucongest/internal/graph"
	"mucongest/internal/sim"
)

// The engine quickstart: every node runs an ordinary Go function,
// rounds are synchronized by Ctx.Tick, and the memory bound μ is
// enforced by the engine's word accounting. Here each node of a 4-cycle
// broadcasts its id and node 0 reports the sum of its neighbors' ids.
func ExampleEngine_Run() {
	g := graph.Cycle(4)
	engine := sim.New(g, sim.WithMu(16), sim.WithSeed(1))
	res, err := engine.Run(func(c *sim.Ctx) {
		c.Broadcast(sim.Msg{Kind: 1, A: int64(c.ID())})
		var sum int64
		for _, in := range c.Tick() {
			sum += in.Msg.A
		}
		if c.ID() == 0 {
			c.Emit(sum)
		}
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("rounds:", res.Rounds)
	fmt.Println("messages:", res.Messages)
	fmt.Println("node 0 neighbor-id sum:", res.Outputs[0][0])
	fmt.Println("μ violations:", len(res.Violations))
	// Output:
	// rounds: 1
	// messages: 8
	// node 0 neighbor-id sum: 4
	// μ violations: 0
}
