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

// ListAll enumerates every k-clique of g in lexicographic order, each
// sorted ascending: the 1-cliques are g's nodes, and for k ≥ 2 it runs
// listForward over g's edges, read from its ascending rows. The
// reference algorithm for tests.
func ListAll(g *graph.Graph, k int) []Clique {
	if k == 1 {
		var out []Clique
		for v := range g.N() {
			out = append(out, Clique{v})
		}
		return out
	}
	fwd := make([][2]int, 0, g.M())
	for u := range g.N() {
		for p := range g.Degree(u) {
			if v := g.NeighborAt(u, p); v > u {
				fwd = append(fwd, [2]int{u, v})
			}
		}
	}
	return listForward(fwd, k)
}

// ListInEdgeSet enumerates all k-cliques of the graph induced by the
// given edge list (node ids arbitrary), in ListAll's order. Used by
// master nodes on their ≤ μ-word edge batches, which may repeat an edge
// in either direction and hold self-loops; both are ignored, except
// that at k = 1 every id in the batch is a clique. A batch of fewer
// than C(k,2) entries holds fewer distinct edges than a k-clique, so it
// lists nothing without sorting.
func ListInEdgeSet(edges [][2]int, k int) []Clique {
	if len(edges) < k*(k-1)/2 {
		return nil
	}
	if k == 1 {
		ids := make([]int, 0, 2*len(edges))
		for _, e := range edges {
			ids = append(ids, e[0], e[1])
		}
		slices.Sort(ids)
		var out []Clique
		for _, v := range slices.Compact(ids) {
			out = append(out, Clique{v})
		}
		return out
	}
	fwd := make([][2]int, 0, len(edges))
	for _, e := range edges {
		if e[0] != e[1] {
			fwd = append(fwd, [2]int{min(e[0], e[1]), max(e[0], e[1])})
		}
	}
	slices.SortFunc(fwd, func(a, b [2]int) int { return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1])) })
	return listForward(slices.Compact(fwd), k)
}

// listForward enumerates the k-cliques, k ≥ 2, of the graph whose edges
// are fwd: pairs {u, v} with u < v, sorted and distinct. A node's
// forward row, its edges to larger ids, is one run of fwd. Cliques grow
// in increasing node order, so they come out sorted and in
// lexicographic order: cands[d] holds the common forward neighbors of
// the clique's first d nodes, in one buffer per depth that every
// prefix of that length reuses.
func listForward(fwd [][2]int, k int) []Clique {
	if k < 2 {
		return nil
	}
	row := func(v int) [][2]int {
		lo, _ := slices.BinarySearchFunc(fwd, v, func(e [2]int, v int) int { return cmp.Compare(e[0], v) })
		hi := lo
		for hi < len(fwd) && fwd[hi][0] == v {
			hi++
		}
		return fwd[lo:hi]
	}
	var out []Clique
	cur := make(Clique, k)
	cands := make([][]int, k)
	var extend func(d int)
	extend = func(d int) {
		for i, v := range cands[d] {
			cur[d] = v
			if d+1 == k {
				out = append(out, slices.Clone(cur))
				continue
			}
			// Merge the later candidates with v's forward row.
			next, rest := cands[d+1][:0], cands[d][i+1:]
			for _, e := range row(v) {
				for len(rest) > 0 && rest[0] < e[1] {
					rest = rest[1:]
				}
				if len(rest) == 0 {
					break
				}
				if rest[0] == e[1] {
					next = append(next, e[1])
				}
			}
			cands[d+1] = next
			extend(d + 1)
		}
	}
	for lo := 0; lo < len(fwd); {
		r := row(fwd[lo][0])
		cur[0], cands[1] = fwd[lo][0], cands[1][:0]
		for _, e := range r {
			cands[1] = append(cands[1], e[1])
		}
		extend(1)
		lo += len(r)
	}
	return out
}
