package congest

import (
	"sync/atomic"

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
	// holds from the round after the deposit barrier through its sleep.
	rounds func(sent, recv []int) int
	hold   func(v int) int64

	// Node v writes only deposits[v], then counts itself in arrived.
	// The node whose count completes the instance resets arrived and
	// schedules before its tick: the atomic orders every deposit before
	// its reads, and the round barrier orders the schedule before every
	// node reads charge and its bucket byDst[v]. Node v reads its bucket
	// until its next deposit, and the next schedule waits for every
	// node's next deposit, so no lock is needed.
	arrived  atomic.Int64
	deposits [][]Packet
	charge   int

	// Scratch of schedule, reused by every instance: the per-node
	// loads and, per destination, its packets in delivery order.
	sent, recv []int
	byDst      [][]Packet
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
		sent:     make([]int, n),
		recv:     make([]int, n),
		byDst:    make([][]Packet, n),
	}
}

// Route delivers every node's out packets and returns the packets
// addressed to this node in inbox order: by ascending source, each
// source's packets in the order it deposited them. It takes 2 + charge
// rounds: the agreement tick, then one sleep of 1 + charge rounds during
// which the node holds the router's words. out is free again when Route
// returns. The returned batch is the router's: like an inbox, it is
// valid until this node's next Route call, and its capacity ends at its
// length, so an append copies it.
//
//muvet:hotpath
func (r *Router) Route(c sim.Node, out []Packet) []Packet {
	id := c.ID()
	r.deposits[id] = out
	if r.arrived.Add(1) == int64(len(r.deposits)) {
		r.arrived.Store(0)
		r.schedule()
	}
	c.Tick() // barrier: the schedule is visible to all
	words := r.hold(id)
	c.Charge(words)
	c.Idle(1 + r.charge)
	c.Release(words)
	in := r.byDst[id]
	return in[:len(in):len(in)]
}

// schedule groups the deposited packets by destination, walking the
// sources in ascending id, and computes the round charge from the
// realized loads.
//
//muvet:hotpath
func (r *Router) schedule() {
	clear(r.recv)
	for v := range r.byDst {
		r.byDst[v] = r.byDst[v][:0]
	}
	for src, d := range r.deposits {
		r.sent[src] = len(d)
		for _, p := range d {
			r.recv[p.Dst]++
			r.byDst[p.Dst] = append(r.byDst[p.Dst], p)
		}
		r.deposits[src] = nil
	}
	r.charge = r.rounds(r.sent, r.recv)
}
