// Package expander provides the decomposition-and-routing substrate of
// Appendix A: a distributed Miller–Peng–Xu low-diameter decomposition
// (the clustering primitive the paper's expander-decomposition
// algorithms build on, §A.3.1 — noted there to run in O(1)–O(log n)
// memory per node), lazy-random-walk utilities with mixing-time
// estimation, and the round and space charges of expander routing
// (Lemma A.2): NewRouter converts the loads the real algorithm produces
// into a congest.Router charge of L·α²·polylog(n) rounds, with per-node
// space ⌈deg(v)/α⌉·polylog(n).
package expander

import (
	"mucongest/internal/congest"
	"mucongest/internal/sim"
)

const kindClaim int32 = congest.KindUser + 64

// MPXRace is one node's side of the Miller–Peng–Xu random-shift
// clustering, run for horizon rounds by every node at once. An active
// node draws an Exponential(β) shift and founds its own cluster at
// round horizon−1−shift unless a claim reached it first; a node that
// joins a cluster claims it to nbrs once. The node takes the first
// claim in inbox order, so it joins the cluster of a center maximizing
// shift − dist. nbrs must be the node's neighbors in the subgraph
// being clustered. An inactive node sleeps through the race and gets
// -1. Inter-cluster edges are an O(β) fraction in expectation and
// cluster diameters are O(log n / β) w.h.p.
func MPXRace(c sim.Node, nbrs []int, active bool, beta float64, horizon int) int {
	if !active {
		c.Idle(horizon)
		return -1
	}
	shift := int(c.Rand().ExpFloat64() / beta)
	if shift > horizon-1 {
		shift = horizon - 1
	}
	start := horizon - 1 - shift // larger shift starts earlier
	cluster, joinedAt := -1, -1
	for r := 0; r < horizon; r++ {
		if cluster < 0 && r == start {
			cluster, joinedAt = c.ID(), r // found own cluster
		}
		if cluster >= 0 && r == joinedAt {
			for _, u := range nbrs {
				c.SendID(u, sim.Msg{Kind: kindClaim, A: int64(cluster)})
			}
		}
		for _, m := range c.Tick() {
			if m.Msg.Kind == kindClaim && cluster < 0 {
				cluster, joinedAt = int(m.Msg.A), r+1
			}
		}
	}
	if cluster < 0 {
		cluster = c.ID()
	}
	return cluster
}
