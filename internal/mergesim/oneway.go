// Package mergesim implements Section 3.1: network-wide simulation of
// mergeable streaming algorithms in μ-CONGEST.
//
//   - One-way mergeable (Theorem 1.6): the tree is cut into O(√(|I|/M))
//     clusters of ≈ s = √(|I|·M) information each; every cluster leader
//     summarizes its cluster's items (A2), and all summaries converge to
//     the root, which folds them one-way (A1) into the main summary.
//   - Fully mergeable (Theorem 1.7): level-synchronous hierarchical
//     pairwise merging up the BFS tree, with the final per-node stage
//     collecting up to μ/(2M) summaries at once — realizing the
//     M·log(Δ/(μ/M)) per-level cost. (Documented deviation from the paper:
//     the paper recurses on information-centroids for log|I| depth; we
//     recurse on BFS levels, identical on the low-diameter workloads.)
//   - Composable (Theorem 1.8): same levels, but children stream their
//     serialized words in parallel and the parent folds word-by-word
//     (Definition 3.3), collapsing each level to M+O(1) rounds.
//   - Loss-swept tree (experiment E13, LossyTreeProgram): one
//     level-synchronous wave of whole summaries up a BFS tree, where a
//     child's summary counts only if all of its M words arrived.
//
// Every program is a func(sim.Node), so it runs on the production
// engine and on the reference engine alike.
package mergesim

import (
	"math"

	"mucongest/internal/congest"
	"mucongest/internal/sim"
	"mucongest/internal/stream"
)

// root is the node every program of this package roots its BFS tree
// at, and whose output a Run function reads.
const root = 0

const (
	kindSumWord int32 = congest.KindUser + 32 + iota
	kindSumDone
	kindWeight
	kindCluster
	kindRole
	kindMergeWord
	kindLossyWord // LossyTreeProgram: word A of the sender's summary is B
)

// OneWayProgram returns the Theorem 1.6 node program. items[v] is node
// v's input multiset I_v; kind supplies the one-way mergeable summary.
// The root (node 0) emits the final summary's serialized words.
func OneWayProgram(items [][]int64, kind stream.Kind) func(sim.Node) {
	maxDepth := len(items)
	return func(c sim.Node) {
		tr := congest.BuildBFSTree(c, root, maxDepth)
		mine := items[c.ID()]
		tv := int64(len(mine))

		// Subtree weights and |I|.
		W := congest.Convergecast(c, tr, maxDepth, []int64{tv}, congest.OpSum)[0]
		// Learn children's subtree weights (one extra round).
		if tr.Parent >= 0 {
			c.SendID(tr.Parent, sim.Msg{Kind: kindWeight, A: W})
		}
		childW := make(map[int]int64, len(tr.Children))
		for _, m := range c.Tick() {
			if m.Msg.Kind == kindWeight {
				childW[m.From] = m.Msg.A
			}
		}
		totalI := congest.BroadcastDown(c, tr, maxDepth, 1, []int64{W})[0]
		M := int64(kind.M())
		s := int64(math.Sqrt(float64(totalI) * float64(M)))
		if s < 1 {
			s = 1
		}

		// Leaders: minimal subtrees of weight ≥ s, plus the root.
		isLeader := c.ID() == root
		if W >= s {
			heavyChild := false
			for _, w := range childW {
				if w >= s {
					heavyChild = true
				}
			}
			if !heavyChild {
				isLeader = true
			}
		}
		// Cluster flood: each node learns its leader (depth-pipelined).
		myLeader := -1
		if isLeader {
			myLeader = c.ID()
		}
		for r := 0; r < maxDepth+2; r++ {
			if myLeader >= 0 && r == tr.Depth {
				for _, ch := range tr.Children {
					c.SendID(ch, sim.Msg{Kind: kindCluster, A: int64(myLeader)})
				}
			}
			for _, m := range c.Tick() {
				if m.Msg.Kind == kindCluster && myLeader < 0 {
					myLeader = int(m.Msg.A)
				}
			}
		}

		// Stream items to leaders (A2 at each leader). A leader inserts
		// its own items first; the others send theirs up.
		var summary stream.Summary
		var absorb func(sim.Msg)
		var up []sim.Msg
		if isLeader {
			summary = kind.New()
			c.Charge(M)
			defer c.Release(M)
			stream.InsertAll(summary, mine)
			absorb = func(m sim.Msg) { summary.Insert(m.A) }
		} else {
			up = make([]sim.Msg, len(mine))
			for i, x := range mine {
				up[i].A = x
			}
		}
		congest.Gather(c, tr, maxDepth, up, absorb, false)

		// Converge leader summaries to the root; fold one-way (A1).
		mainWords := gatherSummaries(c, tr, maxDepth, isLeader, summary, kind)
		if c.ID() == root {
			c.Emit(mainWords)
		}
	}
}

// gatherSummaries streams every leader's serialized summary up the tree
// (FIFO relays, words tagged with the leader id); the root reassembles
// arriving summaries and folds each completed one into the main summary
// via the one-way merge. Returns the main summary's words at the root.
func gatherSummaries(c sim.Node, tr *congest.Tree, maxDepth int,
	isLeader bool, summary stream.Summary, kind stream.Kind) []int64 {

	type word struct{ leader, idx, val int64 }
	var queue []word
	M := kind.M()
	if isLeader && c.ID() != root {
		ws := summary.Words()
		for i, w := range ws {
			queue = append(queue, word{int64(c.ID()), int64(i), w})
		}
	}
	var main stream.OneWayMergeable
	partial := map[int64][]int64{}
	gotWords := map[int64]int{}
	if c.ID() == root {
		if summary == nil {
			summary = kind.New()
		}
		main = summary.(stream.OneWayMergeable)
	}
	c.Charge(int64(len(queue) + 8))
	defer c.Release(int64(len(queue) + 8))
	childDone := make(map[int]bool, len(tr.Children))
	doneSent := false

	for {
		if tr.Parent >= 0 {
			switch {
			case len(queue) > 0:
				w := queue[0]
				queue = queue[1:]
				c.SendID(tr.Parent, sim.Msg{Kind: kindSumWord, A: w.leader, B: w.idx, C: w.val})
			case !doneSent && len(childDone) == len(tr.Children):
				doneSent = true
				c.SendID(tr.Parent, sim.Msg{Kind: kindSumDone})
			}
		}
		if c.ID() == root && len(childDone) == len(tr.Children) {
			congest.FinishCountdown(c, tr, maxDepth+1)
			return main.Words()
		}
		for _, m := range c.Tick() {
			switch m.Msg.Kind {
			case kindSumWord:
				if c.ID() == root {
					l := m.Msg.A
					if partial[l] == nil {
						partial[l] = make([]int64, M)
						c.Charge(int64(M))
					}
					partial[l][m.Msg.B] = m.Msg.C
					gotWords[l]++
					if gotWords[l] == M {
						main.MergeFrom(partial[l])
						delete(partial, l)
						delete(gotWords, l)
						c.Release(int64(M))
					}
				} else {
					queue = append(queue, word{m.Msg.A, m.Msg.B, m.Msg.C})
				}
			case kindSumDone:
				childDone[m.From] = true
			case congest.KindFinish:
				congest.FinishCountdown(c, tr, int(m.Msg.A))
				return nil
			}
		}
	}
}
