package clique

import (
	"math"
	"sort"

	"mucongest/internal/congest"
	"mucongest/internal/cover"
	"mucongest/internal/graph"
	"mucongest/internal/sim"
)

// ccPlan is the deterministic global schedule of Theorem 2.10: node
// groups, master assignments, and per-master subset covers. Every node
// computes the identical plan locally from (n, k, μ), so the plan needs
// no communication — exactly as in the paper's proof.
type ccPlan struct {
	k         int
	groups    [][]int // node ids per group
	multisets [][]int // each a sorted multiset of group indices
	masters   []int   // master node per multiset
	universes [][]int // sorted union of group members per multiset
	// sets[t] is multiset t's subset cover, one bitset over node ids per
	// set, words words each (see set).
	sets   [][]uint64
	words  int
	blocks int
}

// set returns set blk of multiset t's subset cover as a bitset over
// node ids, or nil when that cover has fewer sets.
func (p *ccPlan) set(t, blk int) bitset {
	s := p.sets[t]
	if lo := blk * p.words; lo < len(s) {
		return s[lo : lo+p.words]
	}
	return nil
}

// bitset is a set of node ids: v is a member iff bit v%64 of word v/64
// is set.
type bitset []uint64

func (b bitset) has(v int) bool { return b[v>>6]&(1<<(v&63)) != 0 }

func newCCPlan(n, k int, mu int64) *ccPlan {
	gc := int(math.Floor(math.Pow(float64(n), 1/float64(k))))
	if gc < 1 {
		gc = 1
	}
	gs := (n + gc - 1) / gc
	p := &ccPlan{k: k}
	for j := 0; j < gc; j++ {
		lo, hi := j*gs, (j+1)*gs
		if hi > n {
			hi = n
		}
		grp := make([]int, 0, hi-lo)
		for v := lo; v < hi; v++ {
			grp = append(grp, v)
		}
		if len(grp) > 0 {
			p.groups = append(p.groups, grp)
		}
	}
	gc = len(p.groups)
	// Enumerate multisets of k group indices.
	idx := make([]int, k)
	var rec func(pos, start int)
	rec = func(pos, start int) {
		if pos == k {
			ms := make([]int, k)
			copy(ms, idx)
			p.multisets = append(p.multisets, ms)
			return
		}
		for j := start; j < gc; j++ {
			idx[pos] = j
			rec(pos+1, j)
		}
	}
	rec(0, 0)
	b := int(math.Floor(math.Sqrt(float64(mu))))
	if b < k {
		b = k
	}
	p.words = max(1, (n+63)/64)
	for t, ms := range p.multisets {
		p.masters = append(p.masters, t%n)
		// ms is sorted, so a repeated group index follows its first.
		var uni []int
		for i, j := range ms {
			if i == 0 || j != ms[i-1] {
				uni = append(uni, p.groups[j]...)
			}
		}
		sort.Ints(uni)
		p.universes = append(p.universes, uni)
		cov := cover.New(len(uni), b, k)
		bits := make([]uint64, len(cov)*p.words)
		for i, set := range cov {
			row := bits[i*p.words:]
			for _, li := range set {
				v := uni[li]
				row[v>>6] |= 1 << (v & 63)
			}
		}
		p.sets = append(p.sets, bits)
		p.blocks = max(p.blocks, len(cov))
	}
	return p
}

// CongestedCliqueKCliques implements Theorem 2.10: deterministic
// k-clique listing in the μ-Congested-Clique in O(n^(k-2)/μ^(k/2-1))
// rounds for n ≤ μ ≤ n^(2-2/k). The returned program must be run on a
// sim.Engine over sim.NewComplete(g.N()); each node's input is its
// incident edges of g. All nodes share router (created once per run).
//
// Schedule: in block i, the master of every group-multiset receives all
// edges inside the i-th set of its subset cover (at most ~μ edge words)
// via Lenzen routing, lists the k-cliques in that batch, emits them,
// and frees the batch.
func CongestedCliqueKCliques(g *graph.Graph, k int, mu int64, router *congest.Router) func(sim.Node) {
	plan := newCCPlan(g.N(), k, mu)
	return func(c sim.Node) {
		id := c.ID()
		nbr := g.Neighbors(id)
		c.Charge(int64(len(nbr))) // input adjacency
		defer c.Release(int64(len(nbr)))

		// Both buffers are reused across blocks: Route is done with out
		// when it returns, and the batch is listed before the next block.
		var out []congest.Packet
		var edges [][2]int
		for blk := 0; blk < plan.blocks; blk++ {
			out = out[:0]
			for t := range plan.sets {
				s := plan.set(t, blk)
				if s == nil || !s.has(id) {
					continue
				}
				dst := plan.masters[t]
				for _, w := range nbr {
					if w > id && s.has(w) {
						out = append(out, congest.Packet{Dst: dst, A: int64(id), B: int64(w)})
					}
				}
			}
			edges = listBatch(c, router.Route(c, out), k, edges)
		}
	}
}

// listBatch is a master's turn after a routed block, in E1/E2 and E3
// alike: it holds the received edge batch (2 words per edge, ≤ O(μ))
// while it lists the batch's k-cliques and emits them. edges is the
// caller's buffer, reused across blocks and returned.
func listBatch(c sim.Node, recv []congest.Packet, k int, edges [][2]int) [][2]int {
	if len(recv) == 0 {
		return edges
	}
	c.Charge(int64(2 * len(recv)))
	edges = edges[:0]
	for _, p := range recv {
		edges = append(edges, [2]int{int(p.A), int(p.B)})
	}
	for _, cl := range ListInEdgeSet(edges, k) {
		c.Emit(cl)
	}
	c.Release(int64(2 * len(recv)))
	return edges
}

// PredictedCCRounds returns the Theorem 2.10 bound n^(k-2)/μ^(k/2-1),
// the theory column of experiment E2.
func PredictedCCRounds(n int, k int, mu int64) float64 {
	return math.Pow(float64(n), float64(k-2)) / math.Pow(float64(mu), float64(k)/2-1)
}
