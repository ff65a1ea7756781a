// Package expander provides the decomposition-and-routing substrate of
// Appendix A: a distributed Miller–Peng–Xu low-diameter decomposition
// (the clustering primitive the paper's expander-decomposition
// algorithms build on, §A.3.1 — noted there to run in O(1)–O(log n)
// memory per node), lazy-random-walk utilities with mixing-time
// estimation, and an expander router that realizes the Lemma A.2
// round–space tradeoff: loads are produced by the real algorithm and
// converted to a round charge of L·α²·polylog(n), with per-node space
// ⌈deg(v)/α⌉·polylog(n).
package expander

import (
	"math"

	"mucongest/internal/congest"
	"mucongest/internal/sim"
)

const kindClaim int32 = congest.KindUser + 64

// MPXProgram runs the Miller–Peng–Xu random-shift clustering on the
// subgraph induced by active nodes: every active node draws an
// Exponential(β) shift; a node joins the cluster of the center
// maximizing shift − dist, realized as a BFS race with delayed starts.
// Inactive nodes emit nothing and relay nothing. Each node emits its
// cluster center id (int). Inter-cluster edges are an O(β) fraction in
// expectation and cluster diameters are O(log n / β) w.h.p. Memory:
// O(1) words per node, as the paper observes for MPX.
func MPXProgram(active func(v int) bool, beta float64, horizon int) func(sim.Node) {
	return func(c sim.Node) {
		if !active(c.ID()) {
			c.Idle(horizon)
			c.Emit(-1)
			return
		}
		c.Charge(4)
		defer c.Release(4)
		shift := int(c.Rand().ExpFloat64() / beta)
		if shift > horizon-1 {
			shift = horizon - 1
		}
		start := horizon - 1 - shift // larger shift starts earlier
		cluster := -1
		joinedAt := -1
		for r := 0; r < horizon; r++ {
			if cluster < 0 && r == start {
				cluster = c.ID() // found own cluster
				joinedAt = r
			}
			if cluster >= 0 && r == joinedAt {
				c.Broadcast(sim.Msg{Kind: kindClaim, A: int64(cluster)})
			}
			for _, m := range c.Tick() {
				if m.Msg.Kind == kindClaim && cluster < 0 {
					cl := int(m.Msg.A)
					if cluster < 0 || cl < cluster {
						cluster = cl
					}
					joinedAt = r + 1
				}
			}
		}
		if cluster < 0 {
			cluster = c.ID()
		}
		c.Emit(cluster)
	}
}

// RunMPX executes the decomposition and returns the cluster center of
// every node (-1 for inactive nodes).
func RunMPX(topo sim.Topology, active func(v int) bool, beta float64, seed int64) ([]int, *sim.Result, error) {
	n := topo.N()
	horizon := int(8*math.Log(float64(n)+2)/beta) + 4
	e := sim.New(topo, sim.WithSeed(seed))
	prog := MPXProgram(active, beta, horizon)
	res, err := e.Run(func(c *sim.Ctx) { prog(c) })
	if err != nil {
		return nil, res, err
	}
	out := make([]int, n)
	for v := 0; v < n; v++ {
		out[v] = res.Outputs[v][0].(int)
	}
	return out, res, nil
}
