package mergesim

import (
	"mucongest/internal/graph"
	"mucongest/internal/sim"
	"mucongest/internal/stream"
)

// BFSTree is the spanning tree LossyTreeProgram runs on: the BFS tree
// of g (n ≥ 1) from node 0, children in id order, with each node's
// depth and parent (-1 for the root and for nodes 0 cannot reach) and
// the tree's depth.
func BFSTree(g *graph.Graph) (depth, parent []int, children [][]int, maxDepth int) {
	n := g.N()
	depth, parent, children = make([]int, n), make([]int, n), make([][]int, n)
	for v := range depth {
		depth[v], parent[v] = -1, -1
	}
	depth[0] = 0
	for queue := []int{0}; len(queue) > 0; queue = queue[1:] {
		v := queue[0]
		for _, u := range g.Neighbors(v) {
			if depth[u] < 0 {
				depth[u], parent[u] = depth[v]+1, v
				children[v] = append(children[v], u)
				maxDepth = max(maxDepth, depth[u])
				queue = append(queue, u)
			}
		}
	}
	return depth, parent, children, maxDepth
}

// LossyTreeProgram returns experiment E13's loss-swept aggregation:
// every node inserts its local items, waits for its children's wave,
// merges the complete child summaries in child order, and ships its own
// M words to its parent in its level's wave round (run it with edge cap
// M: one wave round per level). All nodes tick in lockstep for exactly
// maxDepth rounds so every message finds a live destination; only the
// fault layer drops words, and a child whose M words did not all arrive
// is discarded with its whole subtree.
//
// depth, parent and children describe a spanning tree rooted at node 0
// of depth maxDepth, as BFSTree returns. The root stores its merged
// summary in sums[0].
func LossyTreeProgram(kind stream.Kind, items [][]int64, depth, parent []int,
	children [][]int, maxDepth int, sums []stream.Summary) func(sim.Node) {
	M := kind.M()
	return func(c sim.Node) {
		id := c.ID()
		own := kind.New()
		stream.InsertAll(own, items[id])
		c.Charge(int64(M))
		kids := children[id]
		bufs := make([][]int64, len(kids))
		cnt := make([]int, len(kids))
		slot := make(map[int]int, len(kids))
		for i, u := range kids {
			slot[u] = i
		}
		merge := func() {
			for i := range kids {
				if cnt[i] == M {
					own.(stream.OneWayMergeable).MergeFrom(bufs[i])
				}
				c.Release(int64(cnt[i]))
			}
		}
		sendRound := maxDepth - depth[id]
		for r := 0; r < maxDepth; r++ {
			if r == sendRound && id != 0 {
				merge()
				p := c.PortOf(parent[id])
				for i, w := range own.Words() {
					c.Send(p, sim.Msg{Kind: 13, A: int64(i), B: w})
				}
			}
			for _, in := range c.Tick() {
				i := slot[in.From]
				if bufs[i] == nil {
					bufs[i] = make([]int64, M)
				}
				bufs[i][in.Msg.A] = in.Msg.B
				cnt[i]++
				c.Charge(1)
			}
		}
		if id == 0 {
			merge()
			sums[0] = kind.FromWords(append([]int64(nil), own.Words()...))
		}
	}
}
