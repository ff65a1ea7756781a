package expander

import (
	"math"
	"sort"
	"sync"

	"mucongest/internal/graph"
	"mucongest/internal/sim"
)

// Packet is one routed message within a cluster.
type Packet struct {
	Dst     int
	A, B, C int64
}

// Router realizes expander routing with the Lemma A.2 round–space
// tradeoff. The real algorithm decides who sends what to whom (the
// loads); the router converts the realized loads into the round charge
// the lemma guarantees,
//
//	T = ⌈L⌉ · α² · c·log²n,   L = max_v (sent_v + received_v)/deg(v),
//
// and delivers the messages. Per Lemma A.2 the corresponding space is
// ⌈deg(v)/α⌉·2^O(√log n); the router charges ⌈deg(v)/α⌉·⌈log₂ n⌉ words
// for the embedding plus the caller-visible message buffers. As with
// clique.OracleRouter, computing the schedule centrally (rather than
// re-implementing the Ghaffari–Kuhn–Su hierarchy) is a documented
// substitution: the lemma proves a schedule of this length exists, and
// the loads that drive the charge come from the genuine algorithm.
type Router struct {
	g     *graph.Graph
	alpha int
	clog  int

	mu       sync.Mutex
	deposits [][]Packet
	received [][]Packet
	rounds   int
}

// NewRouter builds a router over g with tradeoff parameter α ≥ 1.
func NewRouter(g *graph.Graph, alpha int) *Router {
	if alpha < 1 {
		alpha = 1
	}
	n := g.N()
	clog := int(math.Ceil(math.Log2(float64(n + 2))))
	return &Router{
		g:        g,
		alpha:    alpha,
		clog:     clog,
		deposits: make([][]Packet, n),
		received: make([][]Packet, n),
	}
}

// EmbeddingWords returns the per-node space charge of the α-sampled
// embedding, ⌈deg(v)/α⌉·⌈log₂ n⌉ (Lemma A.2).
func (r *Router) EmbeddingWords(v int) int64 {
	d := r.g.Degree(v)
	return int64((d+r.alpha-1)/r.alpha) * int64(r.clog)
}

// Route delivers every node's packets, charging the Lemma A.2 rounds
// for the realized load plus the embedding space. SPMD: all nodes must
// call it together.
func (r *Router) Route(c sim.Node, out []Packet) []Packet {
	r.mu.Lock()
	r.deposits[c.ID()] = out
	r.mu.Unlock()
	c.Tick()
	if c.ID() == 0 {
		r.schedule()
	}
	c.Tick()
	emb := r.EmbeddingWords(c.ID())
	c.Charge(emb)
	c.Idle(r.rounds)
	c.Release(emb)
	return r.received[c.ID()]
}

func (r *Router) schedule() {
	n := r.g.N()
	sent := make([]int, n)
	recv := make([]int, n)
	for v := range r.received {
		r.received[v] = nil
	}
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
	load := 0.0
	for v := 0; v < n; v++ {
		deg := r.g.Degree(v)
		if deg == 0 {
			continue
		}
		l := float64(sent[v]+recv[v]) / float64(deg)
		if l > load {
			load = l
		}
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
		for _, tg := range byDst[v] {
			r.received[v] = append(r.received[v], tg.p)
		}
	}
	if load == 0 {
		r.rounds = 0
		return
	}
	r.rounds = int(math.Ceil(load)) * r.alpha * r.alpha * r.clog * r.clog
}
