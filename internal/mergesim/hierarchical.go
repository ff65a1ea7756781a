package mergesim

import (
	"sort"

	"mucongest/internal/congest"
	"mucongest/internal/sim"
	"mucongest/internal/stream"
)

// Roles sent in merge directives.
const (
	roleSend     = 1 // stream your summary; the parent relays it to a sibling
	roleRecv     = 2 // expect a relayed summary and merge it
	roleSendToMe = 3 // stream your summary directly to the parent
)

// pairIterations returns the number of pair-halving iterations needed
// to reduce deltaMax summaries to at most group survivors.
func pairIterations(deltaMax int, group int64) int {
	if group < 1 {
		group = 1
	}
	it := 0
	k := int64(deltaMax)
	for k > group {
		k = (k + 1) / 2
		it++
	}
	return it
}

// FullyProgram returns the Theorem 1.7 node program: level-synchronous
// hierarchical merging of a fully-mergeable summary up the BFS tree.
// At each tree level, children summaries are pairwise merged — the
// sender streams its M words through the parent to a sibling, exactly
// the paper's "use u to forward summaries between matched subtrees" —
// until at most g = max(1, μ/(2M)) summaries remain; those stream to
// the parent in parallel and are folded in. Each level therefore costs
// O(M·log(Δ/g) + M) rounds, the theorem's per-level term. The paper
// recurses on information centroids (log|I| levels); we recurse on BFS
// levels — identical on the low-diameter workloads benched (documented
// deviation). mu ≤ 0 means g = 1.
func FullyProgram(items [][]int64, kind stream.Kind, deltaMax int, mu int64) func(sim.Node) {
	M, maxDepth := kind.M(), len(items)
	group := int64(1)
	if mu > 0 {
		group = mu / int64(2*M)
		if group < 1 {
			group = 1
		}
	}
	iters := pairIterations(deltaMax, group)
	return func(c sim.Node) {
		tr := congest.BuildBFSTree(c, root, maxDepth)
		depth := int(congest.MaxAll(c, tr, maxDepth, int64(tr.Depth)))

		summary := kind.New().(stream.FullyMergeable)
		c.Charge(int64(M))
		defer c.Release(int64(M))
		for _, x := range items[c.ID()] {
			summary.Insert(x)
		}
		active := append([]int(nil), tr.Children...)
		sort.Ints(active)

		for level := depth - 1; level >= 0; level-- {
			amParent := tr.Depth == level
			amChild := tr.Depth == level+1

			for it := 0; it < iters; it++ {
				// Directive round.
				relay := make(map[int]int) // sender -> receiver
				if amParent && int64(len(active)) > group {
					var survivors []int
					for i := 0; i+1 < len(active); i += 2 {
						recv, send := active[i], active[i+1]
						relay[send] = recv
						c.SendID(send, sim.Msg{Kind: kindRole, A: roleSend})
						c.SendID(recv, sim.Msg{Kind: kindRole, A: roleRecv})
					}
					if len(active)%2 == 1 {
						survivors = append([]int(nil), active[len(active)-1])
					}
					for i := 0; i+1 < len(active); i += 2 {
						survivors = append(survivors, active[i])
					}
					sort.Ints(survivors)
					active = survivors
				}
				role := 0
				for _, m := range c.Tick() {
					if m.Msg.Kind == kindRole && m.From == tr.Parent {
						role = int(m.Msg.A)
					}
				}
				// M+2 streaming sub-rounds with relay lag 1.
				var myWords, buf []int64
				if amChild && role == roleSend {
					myWords = summary.Words()
				}
				if amChild && role == roleRecv {
					buf = make([]int64, M)
					c.Charge(int64(M))
				}
				for r := 0; r < M+2; r++ {
					if myWords != nil && r < M {
						c.SendID(tr.Parent, sim.Msg{Kind: kindMergeWord, A: int64(r), B: myWords[r]})
					}
					for _, m := range c.Tick() {
						if m.Msg.Kind != kindMergeWord {
							continue
						}
						if amParent {
							if to, ok := relay[m.From]; ok {
								c.SendID(to, sim.Msg{Kind: kindMergeWord, A: m.Msg.A, B: m.Msg.B})
							}
						} else if buf != nil && m.From == tr.Parent {
							buf[m.Msg.A] = m.Msg.B
						}
					}
				}
				if buf != nil {
					summary.MergeFrom(buf)
					c.Release(int64(M))
				}
			}

			// Final stage: remaining ≤ g children stream to the parent.
			if amParent {
				for _, ch := range active {
					c.SendID(ch, sim.Msg{Kind: kindRole, A: roleSendToMe})
				}
			}
			role := 0
			for _, m := range c.Tick() {
				if m.Msg.Kind == kindRole && m.From == tr.Parent {
					role = int(m.Msg.A)
				}
			}
			var myWords []int64
			if amChild && role == roleSendToMe {
				myWords = summary.Words()
			}
			var bufs map[int][]int64
			if amParent && len(active) > 0 {
				bufs = make(map[int][]int64, len(active))
				c.Charge(int64(len(active) * M))
			}
			for r := 0; r < M+1; r++ {
				if myWords != nil && r < M {
					c.SendID(tr.Parent, sim.Msg{Kind: kindMergeWord, A: int64(r), B: myWords[r]})
				}
				for _, m := range c.Tick() {
					if m.Msg.Kind != kindMergeWord || bufs == nil {
						continue
					}
					if bufs[m.From] == nil {
						bufs[m.From] = make([]int64, M)
					}
					bufs[m.From][m.Msg.A] = m.Msg.B
				}
			}
			if bufs != nil {
				for _, ch := range active {
					if b := bufs[ch]; b != nil {
						summary.MergeFrom(b)
					}
				}
				c.Release(int64(len(active) * M))
				active = nil
			}
		}
		if c.ID() == root {
			c.Emit(summary.Words())
		}
	}
}

// ComposableProgram returns the Theorem 1.8 node program: the same
// level-synchronous recursion, but every level merges ALL children
// summaries in a single streaming stage — children transmit their i-th
// word simultaneously and the parent folds them with ComposeWord using
// only M memory (Definition 3.3) — collapsing each level to M+O(1)
// rounds.
func ComposableProgram(items [][]int64, kind stream.Kind) func(sim.Node) {
	M, maxDepth := kind.M(), len(items)
	return func(c sim.Node) {
		tr := congest.BuildBFSTree(c, root, maxDepth)
		depth := int(congest.MaxAll(c, tr, maxDepth, int64(tr.Depth)))

		summary := kind.New().(stream.Composable)
		c.Charge(int64(M))
		defer c.Release(int64(M))
		for _, x := range items[c.ID()] {
			summary.Insert(x)
		}

		for level := depth - 1; level >= 0; level-- {
			amParent := tr.Depth == level
			amChild := tr.Depth == level+1
			var myWords []int64
			if amChild {
				myWords = summary.Words()
			}
			for r := 0; r < M+1; r++ {
				if amChild && r < M {
					c.SendID(tr.Parent, sim.Msg{Kind: kindMergeWord, A: int64(r), B: myWords[r]})
				}
				for _, m := range c.Tick() {
					if amParent && m.Msg.Kind == kindMergeWord {
						summary.ComposeWord(int(m.Msg.A), m.Msg.B)
					}
				}
			}
		}
		if c.ID() == root {
			c.Emit(summary.Words())
		}
	}
}
