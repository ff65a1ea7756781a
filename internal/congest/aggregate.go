package congest

import "mucongest/internal/sim"

// AggOp is a commutative, associative combiner for Convergecast.
type AggOp func(a, b int64) int64

// Standard combiners.
func OpSum(a, b int64) int64 { return a + b }
func OpMax(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
func OpMin(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// Convergecast implements Lemma B.4: every node starts with x = len(vals)
// values; after maxDepth + x rounds each node knows, for every index i,
// the combination (under op) of value i over its own subtree — the root
// therefore knows the global aggregates. The pipeline is fully
// scheduled: a node at depth d sends index i exactly at local round
// (maxDepth - d) + i, so per-child buffering is unnecessary and the
// node's working memory stays at O(x) words (the accumulator), matching
// the lemma's "at most x ≤ μ additional" bound.
//
// All nodes must pass the same x, op and maxDepth (an upper bound on
// the tree depth used when it was built).
func Convergecast(c sim.Node, t *Tree, maxDepth int, vals []int64, op AggOp) []int64 {
	x := len(vals)
	acc := make([]int64, x)
	copy(acc, vals)
	c.Charge(int64(x))
	defer c.Release(int64(x))
	horizon := maxDepth + x
	for r := 0; r < horizon; r++ {
		if t.Joined() && t.Parent >= 0 {
			if i := r - (maxDepth - t.Depth); i >= 0 && i < x {
				c.SendID(t.Parent, sim.Msg{Kind: kindAgg, A: int64(i), B: acc[i]})
			}
		}
		in := c.Tick()
		for _, m := range in {
			if m.Msg.Kind == kindAgg {
				i := int(m.Msg.A)
				acc[i] = op(acc[i], m.Msg.B)
			}
		}
	}
	return acc
}

// BroadcastDown pipelines x values from the root to every node in
// maxDepth + x rounds (Lemma B.4's downward counterpart). Only the
// root's vals argument is consulted; every node returns the x values.
// Memory: O(x) words.
func BroadcastDown(c sim.Node, t *Tree, maxDepth, x int, vals []int64) []int64 {
	out := make([]int64, x)
	if c.ID() == t.Root {
		copy(out, vals)
	}
	c.Charge(int64(x))
	defer c.Release(int64(x))
	horizon := maxDepth + x
	for r := 0; r < horizon; r++ {
		if t.Joined() {
			if i := r - t.Depth; i >= 0 && i < x {
				for _, ch := range t.Children {
					c.SendID(ch, sim.Msg{Kind: kindDown, A: int64(i), B: out[i]})
				}
			}
		}
		in := c.Tick()
		for _, m := range in {
			if m.Msg.Kind == kindDown && m.From == t.Parent {
				out[m.Msg.A] = m.Msg.B
			}
		}
	}
	return out
}

// AggregateAll combines one value per node under op and makes the
// global result known to every node: a convergecast followed by a
// broadcast, 2·(maxDepth+1) rounds.
func AggregateAll(c sim.Node, t *Tree, maxDepth int, val int64, op AggOp) int64 {
	up := Convergecast(c, t, maxDepth, []int64{val}, op)
	down := BroadcastDown(c, t, maxDepth, 1, up)
	return down[0]
}

// SumAll returns the network-wide sum of val at every node.
func SumAll(c sim.Node, t *Tree, maxDepth int, val int64) int64 {
	return AggregateAll(c, t, maxDepth, val, OpSum)
}

// MaxAll returns the network-wide maximum of val at every node.
func MaxAll(c sim.Node, t *Tree, maxDepth int, val int64) int64 {
	return AggregateAll(c, t, maxDepth, val, OpMax)
}

// MinAll returns the network-wide minimum of val at every node.
func MinAll(c sim.Node, t *Tree, maxDepth int, val int64) int64 {
	return AggregateAll(c, t, maxDepth, val, OpMin)
}
