// Package clique implements the paper's clique-listing algorithms: the
// local listing primitive of Theorem B.1, the deterministic k-clique
// listing in the μ-Congested-Clique via subset covers (Theorem 2.10),
// and the μ-CONGEST triangle listing of Theorem 1.2 built on clustering
// and memory-chunked edge delivery, plus a brute-force reference
// enumerator used for correctness checks and by master nodes on their
// μ-bounded edge batches.
package clique

import (
	"cmp"
	"slices"

	"mucongest/internal/graph"
)

// Clique is a sorted list of k node ids forming a clique.
type Clique []int

// ListAll enumerates every k-clique of g by ordered extension: cliques
// are grown in increasing node order, intersecting candidate sets with
// rows read through g's port view, so no neighbor slice is
// materialized. The reference algorithm for tests, and the local
// listing of ListInEdgeSet.
func ListAll(g *graph.Graph, k int) []Clique {
	if k < 1 {
		return nil
	}
	var out []Clique
	cur := make([]int, 0, k)
	var extend func(cands []int)
	extend = func(cands []int) {
		if len(cur) == k {
			cl := make(Clique, k)
			copy(cl, cur)
			out = append(out, cl)
			return
		}
		for i, v := range cands {
			cur = append(cur, v)
			if len(cur) == k {
				extend(nil)
			} else {
				extend(intersectRow(cands[i+1:], g, v))
			}
			cur = cur[:len(cur)-1]
		}
	}
	all := make([]int, g.N())
	for i := range all {
		all[i] = i
	}
	extend(all)
	return out
}

// intersectRow returns the members of the sorted slice a that are
// neighbors of v, merging a with v's ascending row port by port.
func intersectRow(a []int, g *graph.Graph, v int) []int {
	d := g.Degree(v)
	out := make([]int, 0, min(len(a), d))
	i := 0
	for p := 0; p < d && i < len(a); p++ {
		u := g.NeighborAt(v, p)
		for i < len(a) && a[i] < u {
			i++
		}
		if i < len(a) && a[i] == u {
			out = append(out, u)
			i++
		}
	}
	return out
}

// ListInEdgeSet enumerates all k-cliques of the graph induced by the
// given edge list (node ids arbitrary). Used by master nodes on their
// ≤ μ-word edge batches, which may repeat an edge in either direction
// and hold self-loops; both are ignored. A batch of fewer than C(k,2)
// entries holds fewer distinct edges than a k-clique, so it lists
// nothing without building a graph.
func ListInEdgeSet(edges [][2]int, k int) []Clique {
	if len(edges) < k*(k-1)/2 {
		return nil
	}
	// A node's batch id is its rank among the batch's distinct ids, so
	// batch cliques map back in ascending order.
	order := make([]int, 0, 2*len(edges))
	for _, e := range edges {
		order = append(order, e[0], e[1])
	}
	slices.Sort(order)
	order = slices.Compact(order)
	rank := func(id int) int {
		i, _ := slices.BinarySearch(order, id)
		return i
	}
	es := make([]graph.Edge, 0, len(edges))
	for _, e := range edges {
		if u, v := rank(e[0]), rank(e[1]); u != v {
			es = append(es, graph.Edge{U: min(u, v), V: max(u, v)})
		}
	}
	slices.SortFunc(es, func(a, b graph.Edge) int { return cmp.Or(cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V)) })
	g, err := graph.FromEdges(len(order), slices.Compact(es))
	if err != nil {
		panic(err) // unreachable: es holds distinct in-range edges without self-loops
	}
	out := ListAll(g, k)
	for _, cl := range out {
		for i, v := range cl {
			cl[i] = order[v]
		}
	}
	return out
}

// Dedup returns the set union of cliques, each sorted ascending, in
// lexicographic order.
func Dedup(cls []Clique) []Clique {
	out := make([]Clique, len(cls))
	for i, c := range cls {
		out[i] = slices.Clone(c)
		slices.Sort(out[i])
	}
	slices.SortFunc(out, slices.Compare)
	return slices.CompactFunc(out, slices.Equal)
}

// SameSet reports whether two clique collections are equal as sets.
func SameSet(a, b []Clique) bool {
	return slices.EqualFunc(Dedup(a), Dedup(b), slices.Equal)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
