package congest

import (
	"sort"

	"mucongest/internal/sim"
)

// Packet is one routed message: a destination and an O(log n)-bit
// payload.
type Packet struct {
	Dst     int
	A, B, C int64
}

// Router delivers a routing instance whose round count a lemma of the
// paper bounds: Lenzen routing in the Congested Clique (Lemma 2.9,
// clique.NewOracleRouter) or expander routing (Lemma A.2,
// expander.NewRouter). The lemma proves a schedule of that length
// exists; rather than re-implement the distributed scheduler, the
// router computes the delivery centrally (a documented substitution)
// and charges the lemma's rounds for the realized loads, which the
// genuine algorithm produces.
//
// Route is an SPMD subroutine: every node must call it at the same
// logical point. Memory for the received batch is charged to the
// receiving node by the caller.
type Router struct {
	// rounds converts the realized per-node sent and received packet
	// counts into the lemma's round charge; hold is the words node v
	// holds while it sleeps those rounds.
	rounds func(sent, recv []int) int
	hold   func(v int) int64

	// Node v writes only deposits[v], before the first agreement tick,
	// and reads received[v] and charge after the second; node 0
	// schedules in between. The engine's round barrier orders every
	// access, so no lock is needed.
	deposits [][]Packet
	received [][]Packet
	charge   int
}

// NewRouter returns a router for n nodes. rounds is the lemma's round
// charge for the realized loads (0 for a silent instance); hold, if not
// nil, is the per-node space the routing structure occupies.
func NewRouter(n int, rounds func(sent, recv []int) int, hold func(v int) int64) *Router {
	if hold == nil {
		hold = func(int) int64 { return 0 }
	}
	return &Router{
		rounds:   rounds,
		hold:     hold,
		deposits: make([][]Packet, n),
		received: make([][]Packet, n),
	}
}

// Route delivers every node's out packets and returns the packets
// addressed to this node, sorted by (source, A, B). It costs two
// agreement ticks plus the charged rounds, which the node sleeps while
// holding the router's words.
func (r *Router) Route(c sim.Node, out []Packet) []Packet {
	id := c.ID()
	r.deposits[id] = out
	c.Tick() // barrier: all deposits visible afterwards
	if id == 0 {
		r.schedule()
	}
	c.Tick() // barrier: schedule visible to all
	words := r.hold(id)
	c.Charge(words)
	c.Idle(r.charge)
	c.Release(words)
	return r.received[id]
}

// schedule groups the deposited packets by destination in deterministic
// (source, payload) order and computes the round charge from the
// realized loads.
func (r *Router) schedule() {
	n := len(r.deposits)
	sent := make([]int, n)
	recv := make([]int, n)
	type tagged struct {
		src int
		p   Packet
	}
	byDst := make([][]tagged, n)
	for src, d := range r.deposits {
		sent[src] = len(d)
		for _, p := range d {
			recv[p.Dst]++
			byDst[p.Dst] = append(byDst[p.Dst], tagged{src, p})
		}
		r.deposits[src] = nil
	}
	for v := range byDst {
		sort.Slice(byDst[v], func(i, j int) bool {
			a, b := byDst[v][i], byDst[v][j]
			if a.src != b.src {
				return a.src < b.src
			}
			if a.p.A != b.p.A {
				return a.p.A < b.p.A
			}
			return a.p.B < b.p.B
		})
		r.received[v] = nil
		for _, tg := range byDst[v] {
			r.received[v] = append(r.received[v], tg.p)
		}
	}
	r.charge = r.rounds(sent, recv)
}
