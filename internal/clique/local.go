package clique

import (
	"mucongest/internal/graph"
	"mucongest/internal/sim"
)

// Message kinds for the local-listing protocol.
const (
	kindQuery int32 = 100 + iota
	kindAnswer
)

// LocalListing implements Theorem B.1: every node v with
// deg(v) ≤ degBound learns all triangles it belongs to, in
// O(max active degree) rounds, using only its incident edges. All other
// nodes cooperate by answering adjacency queries. Triangles are emitted
// as Clique values by the active node with the smallest id in the
// triangle among active ids (so each triangle with at least one active
// node is emitted at least once; callers dedup).
//
// Memory: each node stores its adjacency list (deg words, an input) and
// O(1) extra words.
//
// Returns a node program to be run under sim; phases is 2·phaseCount
// rounds where phaseCount must upper-bound every active node's degree.
func LocalListing(g *graph.Graph, degBound, phaseCount int) func(sim.Node) {
	return func(c sim.Node) {
		id := c.ID()
		nbr := g.Neighbors(id)
		deg := len(nbr)
		c.Charge(int64(deg)) // the node's input adjacency
		defer c.Release(int64(deg))
		active := deg <= degBound && deg > 0
		for phase := 0; phase < phaseCount; phase++ {
			// Round A: active nodes broadcast their phase-th neighbor.
			var queried int64 = -1
			if active && phase < deg {
				queried = int64(nbr[phase])
				c.Broadcast(sim.Msg{Kind: kindQuery, A: queried})
			}
			inA := c.Tick()
			// Round B: answer each query on the edge it arrived on.
			for _, m := range inA {
				if m.Msg.Kind != kindQuery {
					continue
				}
				ans := int64(0)
				if g.HasEdge(id, int(m.Msg.A)) {
					ans = 1
				}
				c.SendID(m.From, sim.Msg{Kind: kindAnswer, A: m.Msg.A, B: ans})
			}
			inB := c.Tick()
			if queried < 0 {
				continue
			}
			u := int(queried)
			for _, m := range inB {
				if m.Msg.Kind != kindAnswer || int(m.Msg.A) != u || m.Msg.B != 1 {
					continue
				}
				w := m.From
				if u >= w {
					continue // emit each (u,w) pair once
				}
				tri := Clique{id, u, w}
				sortClique(tri)
				c.Emit(tri)
			}
		}
	}
}

func sortClique(c Clique) {
	for i := 1; i < len(c); i++ {
		for j := i; j > 0 && c[j] < c[j-1]; j-- {
			c[j], c[j-1] = c[j-1], c[j]
		}
	}
}

// CollectTriangles extracts emitted Clique values from a sim result and
// dedups them.
func CollectTriangles(res *sim.Result) []Clique {
	var out []Clique
	for _, outs := range res.Outputs {
		for _, o := range outs {
			if cl, ok := o.(Clique); ok {
				out = append(out, cl)
			}
		}
	}
	return Dedup(out)
}
