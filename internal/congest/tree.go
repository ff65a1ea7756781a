// Package congest implements the standard CONGEST building blocks the
// paper relies on, as synchronous subroutines over sim.Node: BFS-tree
// construction, the FINISH countdown that ends a data-dependent tree
// protocol on one global round, the credit-window gather that starts
// Section 3's simulations, pipelined convergecast aggregation (Lemma
// B.4), pipelined broadcast, global aggregate helpers, the degree-class
// relabeling of Lemma B.5, and the one Router behind the paper's two
// routing lemmas (Lenzen routing, Lemma 2.9, and expander routing,
// Lemma A.2), whose constructors live in clique and expander.
//
// Calling convention: these are SPMD subroutines — every node of the
// engine must call the same function at the same logical point of its
// program with consistent arguments, as all nodes advance in lockstep.
// Each subroutine runs for a fixed number of rounds derived from the
// caller-supplied depth bound, so all nodes leave the subroutine
// simultaneously.
package congest

import (
	"fmt"
	"slices"

	"mucongest/internal/sim"
)

// Message kinds used by this package. Other packages should use kinds
// ≥ KindUser to avoid collision inside composite programs.
const (
	kindJoin int32 = iota + 1
	kindChildAck
	kindAgg
	kindDown
	// KindFinish is FinishCountdown's message; A carries the ttl.
	KindFinish
	kindItem       // Gather: one payload, one hop up
	kindItemDone   // Gather: the sender's subtree has drained
	kindCredit     // Gather: room for one more kindItem
	kindDeal       // Gather: a payload the root deals to a child
	kindDealCredit // kindDeal that also grants a credit
	// KindUser is the first message kind available to client packages.
	KindUser int32 = 64
)

// Tree is a rooted spanning tree from the local node's point of view.
type Tree struct {
	Root     int
	Parent   int // -1 at the root (or if the node never joined)
	Depth    int // -1 if the node never joined
	Children []int
}

// Joined reports whether this node is part of the tree.
func (t *Tree) Joined() bool { return t.Depth >= 0 }

// FinishCountdown ends a subroutine whose length depends on the data:
// it forwards FINISH with ttl−1 to the node's tree children and idles
// ttl rounds, so every node leaves on the same global round as the
// root. The root starts it with ttl = maxDepth+1 once the tree has
// drained; a node that receives a KindFinish message calls it with the
// message's A.
func FinishCountdown(c sim.Node, tr *Tree, ttl int) {
	if ttl <= 0 {
		return
	}
	for _, ch := range tr.Children {
		c.SendID(ch, sim.Msg{Kind: KindFinish, A: int64(ttl - 1)})
	}
	c.Idle(ttl)
}

// BuildBFSTree constructs a BFS tree rooted at root. maxDepth must be
// an upper bound on the eccentricity of root (n-1 is always safe; tight
// bounds keep the round count at O(D)). The subroutine takes exactly
// 2·(maxDepth+2) rounds: JOIN and CHILD-ACK messages alternate so that a
// node's broadcast and its ack never contend for the same edge in the
// same round. Ties are broken toward the smallest parent id, making the
// tree deterministic. Memory: O(deg) words for the children list.
func BuildBFSTree(c sim.Node, root, maxDepth int) *Tree {
	t := &Tree{Root: root, Parent: -1, Depth: -1}
	if c.ID() == root {
		t.Depth = 0
	}
	justJoined := t.Depth == 0
	pendingAck := -1
	c.Charge(int64(c.Degree())) // children list worst case
	for r := 0; r < maxDepth+2; r++ {
		// Phase A: newly joined nodes announce their depth.
		if justJoined {
			c.Broadcast(sim.Msg{Kind: kindJoin, A: int64(t.Depth)})
			justJoined = false
		}
		inA := c.Tick()
		if !t.Joined() {
			best := -1
			bestDepth := 0
			for _, m := range inA {
				if m.Msg.Kind != kindJoin {
					continue
				}
				if best == -1 || m.From < best {
					best = m.From
					bestDepth = int(m.Msg.A)
				}
			}
			if best >= 0 {
				t.Parent = best
				t.Depth = bestDepth + 1
				justJoined = true
				pendingAck = best
			}
		}
		// Phase B: acknowledge the chosen parent.
		if pendingAck >= 0 {
			c.SendID(pendingAck, sim.Msg{Kind: kindChildAck})
			pendingAck = -1
		}
		inB := c.Tick()
		for _, m := range inB {
			if m.Msg.Kind == kindChildAck {
				t.Children = append(t.Children, m.From)
			}
		}
	}
	return t
}

// creditWindow is the number of Gather messages a child may have in
// flight toward its parent.
const creditWindow = 2

// Gather pipelines every node's up messages to the tree root under
// credit flow control: a child may have creditWindow messages in
// flight, and a relay grants credits only while its queue is shorter
// than 2·|children|+4, so it holds O(deg) words beyond its own up. It
// charges len(up)+2·|children|+8 words while it runs. Section 3's
// simulations (E4–E7) all start with it.
//
// The payload rides in A, B and C; Gather owns Kind. A node with
// absorb set is an absorber: it hands its own up, and every message
// that reaches it, to absorb and forwards nothing. Other nodes relay
// toward the root, which always absorbs (its absorb may be nil). A node
// reports DONE to its parent once its queue is empty and every child
// has reported; the root then starts FinishCountdown(maxDepth+1), so
// every node returns on the same round.
//
// With deal set, the root also deals each absorbed message to its
// children round-robin from one cursor, one per child per round, and a
// credit the child is owed rides on the dealt message. Each node
// returns what was dealt to it (the Theorem 1.3 edge cache). All nodes
// must pass the same maxDepth and deal. A node outside the tree panics.
func Gather(c sim.Node, t *Tree, maxDepth int, up []sim.Msg, absorb func(sim.Msg), deal bool) []sim.Msg {
	if !t.Joined() {
		panic(fmt.Sprintf("congest: Gather: node %d is not in the tree rooted at %d", c.ID(), t.Root))
	}
	kids := t.Children
	charged := int64(len(up) + 2*len(kids) + 8)
	c.Charge(charged)
	defer c.Release(charged)

	root := t.Parent < 0
	if root && absorb == nil {
		absorb = func(sim.Msg) {}
	}
	deal = deal && root
	// queue is what this node has yet to send: arrivals to relay up,
	// or at a dealing root, absorbed messages to deal down.
	keep := absorb == nil || deal
	var queue, dealt []sim.Msg
	if keep {
		queue = slices.Clip(up) // appends must not write into the caller's slice
	}
	if absorb != nil {
		for _, m := range up {
			absorb(m)
		}
	}
	// Per-child state by position in kids; at maps a port to it.
	type child struct {
		owed       int // credits granted and not yet used
		want, done bool
	}
	state := make([]child, len(kids))
	at := make([]int, c.Degree())
	for i, ch := range kids {
		at[c.PortOf(ch)] = i
	}
	credits, drained, doneSent, next := 0, 0, false, 0
	for {
		// The root finishes at the start of a round, so FINISH never
		// shares an edge with the last dealt message.
		if root && drained == len(kids) && len(queue) == 0 {
			FinishCountdown(c, t, maxDepth+1)
			return dealt
		}
		if !root {
			switch {
			case len(queue) > 0 && credits > 0:
				credits--
				m := queue[0]
				queue = queue[1:]
				m.Kind = kindItem
				c.SendID(t.Parent, m)
			case len(queue) == 0 && !doneSent && drained == len(kids):
				doneSent = true
				c.SendID(t.Parent, sim.Msg{Kind: kindItemDone})
			}
		}
		// Each child gets at most one message a round: a dealt payload,
		// which carries the credit the child is owed, or a bare credit.
		space := len(kids)
		if absorb == nil {
			space = 2*len(kids) + 4 - len(queue)
		}
		for i := range state {
			s := &state[i]
			s.want = space > 0 && !s.done && s.owed < creditWindow
			if s.want {
				space--
			}
		}
		for i := 0; deal && i < len(kids) && len(queue) > 0; i++ {
			k := next % len(kids)
			next++
			m := queue[0]
			queue = queue[1:]
			m.Kind = kindDeal
			if s := &state[k]; s.want {
				m.Kind = kindDealCredit
				s.owed++
				s.want = false
			}
			c.SendID(kids[k], m)
		}
		for i, ch := range kids {
			if state[i].want {
				state[i].owed++
				c.SendID(ch, sim.Msg{Kind: kindCredit})
			}
		}
		for _, m := range c.Tick() {
			switch m.Msg.Kind {
			case kindItem:
				state[at[c.PortOf(m.From)]].owed--
				if absorb != nil {
					absorb(m.Msg)
				}
				if keep {
					queue = append(queue, m.Msg)
				}
			case kindItemDone:
				state[at[c.PortOf(m.From)]].done = true
				drained++
			case kindCredit:
				credits++
			case kindDealCredit:
				credits++
				dealt = append(dealt, m.Msg)
			case kindDeal:
				dealt = append(dealt, m.Msg)
			case KindFinish:
				FinishCountdown(c, t, int(m.Msg.A))
				return dealt
			}
		}
	}
}
