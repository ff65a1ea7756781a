package clique

import (
	"math"
	"slices"

	"mucongest/internal/congest"
	"mucongest/internal/expander"
	"mucongest/internal/graph"
	"mucongest/internal/sim"
)

// MuTriangleConfig parameterizes the Theorem 1.2 listing.
type MuTriangleConfig struct {
	G     *graph.Graph
	Mu    int64
	Alpha int // Lemma A.2 round–space tradeoff parameter (≥1)
}

// The listing's fixed parameters: the MPX decomposition's β and the
// multiplier x of the low-degree threshold x·n^(1/3).
const (
	mpxBeta    = 0.4
	lowDegreeX = 2
)

// muPlan is the shared oracle state of the listing driver: the active
// edge set, the per-iteration clustering and the listing schedule. The
// active edges are a mask over g's ports: the edge on port p of node v
// is active iff active[off[v]+p], where off is the prefix sum of g's
// degrees, so every row the plan hands out is a sorted CSR row with its
// inactive ports skipped. deg counts each node's active ports; a
// removed node is one with none. sched holds one universe per cluster
// with edges, numbered in ascending order of the clusters' centers: its
// groups are the buckets and its listers the dominant degree class, so
// its sets are the bucket triples. Node 0 mutates the plan between
// engine barriers; the one other write is every node's own clusterOf
// slot. Every quantity is computable in the model — centralizing it is
// a bookkeeping convenience, while all listing traffic is routed (and
// charged) by expander.NewRouter's router.
type muPlan struct {
	g      *graph.Graph
	off    []int  // off[v] is v's first slot in active; len n+1
	active []bool // port mask, one slot per port
	deg    []int  // active ports per node
	edges  int    // active edges

	clusterOf []int     // per node; -1 inactive
	sched     *schedule // rebuilt every iteration
}

func newMuPlan(g *graph.Graph) *muPlan {
	n := g.N()
	p := &muPlan{
		g:         g,
		off:       make([]int, n+1),
		active:    slices.Repeat([]bool{true}, 2*g.M()),
		deg:       make([]int, n),
		edges:     g.M(),
		clusterOf: make([]int, n),
	}
	for v := range n {
		p.deg[v] = g.Degree(v)
		p.off[v+1] = p.off[v] + p.deg[v]
	}
	return p
}

// ports returns v's slots of the port mask, indexed by port.
func (p *muPlan) ports(v int) []bool { return p.active[p.off[v]:p.off[v+1]] }

// appendRow appends v's active neighbors to dst in ascending order.
func (p *muPlan) appendRow(dst []int, v int) []int {
	for port, on := range p.ports(v) {
		if on {
			dst = append(dst, p.g.NeighborAt(v, port))
		}
	}
	return dst
}

// adjacent reports whether the edge {v, w} is active.
func (p *muPlan) adjacent(v, w int) bool {
	port := p.g.PortOf(v, w)
	return port >= 0 && p.ports(v)[port]
}

// drop deactivates the active edge on v's port at both of its ends.
func (p *muPlan) drop(v, port int) {
	u := p.g.NeighborAt(v, port)
	p.ports(v)[port] = false
	p.ports(u)[p.g.PortOf(u, v)] = false
	p.deg[v]--
	p.deg[u]--
	p.edges--
}

// removeNode drops every active edge of v.
func (p *muPlan) removeNode(v int) {
	for port, on := range p.ports(v) {
		if on {
			p.drop(v, port)
		}
	}
}

// MuCongestTriangles implements Theorem 1.2's architecture: iterate
// {list-and-remove low-degree nodes (Theorem B.1); cluster the rest
// (MPX low-diameter decomposition, the §A.3.1 primitive); within each
// cluster partition the universe V_i ∪ V'_i into s = √(m̃/μ) buckets,
// assign every bucket triple to a listing node of the dominant degree
// class, and deliver each triple's ≤ O(μ) edges through the expander
// router (Lemma A.2 charge); remove intra-cluster edges and recurse}.
// All triangles are emitted as Clique values; dedupe with
// CollectTriangles.
func MuCongestTriangles(cfg MuTriangleConfig, router *congest.Router) func(sim.Node) {
	g := cfg.G
	n := g.N()
	if cfg.Alpha < 1 {
		cfg.Alpha = 1
	}
	plan := newMuPlan(g)
	tau := max(2, int(math.Ceil(lowDegreeX*math.Pow(float64(n), 1.0/3))))
	mpxHorizon := int(8*math.Log(float64(n)+2)/mpxBeta) + 4
	maxIter := 4*int(math.Log2(float64(g.M()+2))) + 8

	return func(c sim.Node) {
		id := c.ID()
		c.Charge(int64(g.Degree(id)))
		defer c.Release(int64(g.Degree(id)))

		// row is reused: the Theorem B.1 protocol, the MPX race and
		// phase C are each done with it when they return.
		var row []int
		for iter := 0; iter < maxIter; iter++ {
			if plan.edges == 0 {
				return
			}
			// Phase A: low-degree nodes list their triangles (Thm B.1)
			// over the active subgraph.
			row = plan.appendRow(row[:0], id)
			listLowDegree(c, row, tau, tau, func(w int) bool { return plan.adjacent(id, w) })
			// Barrier: node 0 removes the listed nodes.
			c.Tick()
			if id == 0 {
				// Snapshot first: only nodes that were low-degree during
				// phase A (and hence listed their triangles) may go.
				// Removing as we scan would cascade onto nodes whose
				// degree only dropped below τ mid-loop.
				var toRemove []int
				for v, d := range plan.deg {
					if d > 0 && d <= tau {
						toRemove = append(toRemove, v)
					}
				}
				for _, v := range toRemove {
					plan.removeNode(v)
				}
			}
			c.Tick()
			if plan.edges == 0 {
				return
			}
			// Phase B: MPX clustering of the remaining graph. Each node
			// writes only its own slot; node 0 reads them after the tick.
			row = plan.appendRow(row[:0], id)
			plan.clusterOf[id] = expander.MPXRace(c, row, len(row) > 0, mpxBeta, mpxHorizon)
			c.Tick()
			if id == 0 {
				buildListingPlan(plan, cfg.Mu, c.Rand())
			}
			c.Tick()
			// Phase C: chunked triple delivery and listing.
			row = plan.appendRow(row[:0], id)
			plan.sched.run(c, router, row, 3)
			// Barrier: node 0 removes intra-cluster edges.
			c.Tick()
			if id == 0 {
				for v, cl := range plan.clusterOf {
					for port, on := range plan.ports(v) {
						if u := g.NeighborAt(v, port); on && u > v && cl >= 0 && plan.clusterOf[u] == cl {
							plan.drop(v, port)
						}
					}
				}
			}
			c.Tick()
		}
	}
}

// buildListingPlan (node 0, between barriers) adds each cluster with
// edges to a new schedule: its buckets, drawn over its universe in
// ascending node order, and its degree-class listers.
func buildListingPlan(plan *muPlan, mu int64, rng interface{ Intn(int) int }) {
	n := len(plan.deg)
	members := make([][]int, n) // cluster center -> its nodes, ascending
	for v, cl := range plan.clusterOf {
		if cl >= 0 {
			members[cl] = append(members[cl], v)
		}
	}
	plan.sched = newSchedule(n)
	var uni []int
	for _, mem := range members {
		// Universe: members plus boundary; m̃ = edges incident to the cluster.
		uni = append(uni[:0], mem...)
		mTilde := 0
		for _, v := range mem {
			uni = plan.appendRow(uni, v)
			mTilde += plan.deg[v]
		}
		// Edges inside counted twice, boundary once; close enough for s.
		mTilde = (mTilde + 1) / 2
		if mTilde == 0 {
			continue
		}
		slices.Sort(uni)
		uni = slices.Compact(uni)
		// Listing set: dominant degree class among members (Lemma B.5
		// bucketing — at least a 1/log n fraction of the bandwidth),
		// the lowest class on a tie.
		var classDeg [64]int
		for _, v := range mem {
			classDeg[congest.DegreeClass(plan.deg[v])] += plan.deg[v]
		}
		best := 0
		for cls, w := range classDeg {
			if w > classDeg[best] {
				best = cls
			}
		}
		var listers []int
		for _, v := range mem {
			if congest.DegreeClass(plan.deg[v]) == best {
				listers = append(listers, v)
			}
		}
		s := int(math.Ceil(math.Sqrt(float64(2*mTilde) / float64(max(1, mu)))))
		// Lower-bound s by |U|^(1/3), the A-set regime of Appendix B
		// (m̃/n^(2/3) ≤ μ): without it the bucket count degenerates and
		// the chunks concentrate on one listing node, losing both the
		// parallelism and the 1/√μ round scaling.
		s = max(s, 1, int(math.Ceil(math.Cbrt(float64(len(uni))))))
		buckets := make([][]int, s)
		for _, v := range uni {
			b := rng.Intn(s)
			buckets[b] = append(buckets[b], v)
		}
		// Its sets are the bucket triples, dealt round-robin to listers.
		plan.sched.add(listers, buckets, 3)
	}
}

// RunMuCongestTriangles executes the listing and returns the deduped
// triangles plus run statistics.
func RunMuCongestTriangles(cfg MuTriangleConfig, opts ...sim.Option) ([]Clique, *sim.Result, error) {
	router := expander.NewRouter(cfg.G, cfg.Alpha)
	e := sim.New(cfg.G, opts...)
	prog := MuCongestTriangles(cfg, router)
	res, err := e.Run(func(c *sim.Ctx) { prog(c) })
	if err != nil {
		return nil, res, err
	}
	return CollectTriangles(res), res, nil
}
