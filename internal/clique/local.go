package clique

import (
	"slices"

	"mucongest/internal/sim"
)

// Message kinds for the local-listing protocol.
const (
	kindQuery int32 = 100 + iota
	kindAnswer
)

// listLowDegree is the query protocol of Theorem B.1 over the graph
// whose rows the callers pass: nbrs is this node's sorted row and
// adjacent tests an edge from this node. A node with 1 ≤ len(nbrs) ≤
// bound is a lister. In phase i it sends its i-th neighbor u to every
// neighbor, each neighbor w answers whether w–u is an edge, and the
// lister emits every triangle {id, u, w} with u < w it learns, sorted.
// Every node answers. The protocol takes 2·phases rounds, and phases
// must be at least bound.
func listLowDegree(c sim.Node, nbrs []int, bound, phases int, adjacent func(w int) bool) {
	id := c.ID()
	lister := len(nbrs) > 0 && len(nbrs) <= bound
	for phase := 0; phase < phases; phase++ {
		// Round A: listers send their phase-th neighbor to every neighbor.
		var queried int64 = -1
		if lister && phase < len(nbrs) {
			queried = int64(nbrs[phase])
			for _, u := range nbrs {
				c.SendID(u, sim.Msg{Kind: kindQuery, A: queried})
			}
		}
		inA := c.Tick()
		// Round B: answer each query on the edge it arrived on.
		for _, m := range inA {
			if m.Msg.Kind != kindQuery {
				continue
			}
			ans := int64(0)
			if adjacent(int(m.Msg.A)) {
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
			if u < m.From { // emit each (u,w) pair once
				tri := Clique{id, u, m.From}
				slices.Sort(tri)
				c.Emit(tri)
			}
		}
	}
}

// CollectTriangles extracts the emitted Clique values from a sim result
// and returns each distinct one once, in lexicographic order. Every
// lister emits its cliques sorted ascending, so no clique is copied or
// re-sorted here: the result shares its cliques with res.Outputs.
func CollectTriangles(res *sim.Result) []Clique {
	var out []Clique
	for _, outs := range res.Outputs {
		for _, o := range outs {
			if cl, ok := o.(Clique); ok {
				out = append(out, cl)
			}
		}
	}
	slices.SortFunc(out, slices.Compare)
	return slices.CompactFunc(out, slices.Equal)
}
