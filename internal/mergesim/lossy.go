package mergesim

import (
	"mucongest/internal/sim"
	"mucongest/internal/stream"
)

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
// of depth maxDepth. The root stores its merged summary in sums[0].
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
