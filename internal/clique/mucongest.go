package clique

import (
	"math"
	"sort"
	"sync"

	"mucongest/internal/expander"
	"mucongest/internal/graph"
	"mucongest/internal/sim"
)

// Message kinds for the μ-CONGEST triangle listing.
const (
	kindMPXClaim int32 = 140 + iota
	kindTriQuery
	kindTriAnswer
)

// MuTriangleConfig parameterizes the Theorem 1.2 listing.
type MuTriangleConfig struct {
	G     *graph.Graph
	Mu    int64
	Alpha int     // Lemma A.2 round–space tradeoff parameter (≥1)
	Beta  float64 // MPX decomposition parameter (default 0.4)
	X     float64 // low-degree threshold multiplier x·n^(1/3) (default 2)
}

// muPlan is the shared oracle state of the listing driver: the evolving
// active edge set, the per-iteration clustering and the bucket/triple
// assignments. All mutations happen at node 0 between engine barriers
// (the same pattern as clique.OracleRouter); every quantity is
// computable in the model — centralizing it is a bookkeeping
// convenience, while all listing traffic is routed (and charged) by
// expander.Router.
type muPlan struct {
	mu      sync.Mutex
	adj     []map[int]bool // active adjacency
	edges   int
	removed []bool
	tau     int

	clusterOf []int // per node; -1 inactive
	// Per-cluster listing plan, rebuilt every iteration.
	bucketOf  []map[int]int // cluster ordinal -> node -> bucket
	sPerC     []int         // buckets per cluster
	triples   [][][3]int    // cluster ordinal -> its full triple list
	listers   [][]int       // cluster ordinal -> listing nodes
	blocks    int
	clusterIx map[int]int // cluster center -> ordinal
	nodeCls   [][]int     // node -> cluster ordinals whose universe contains it
}

func newMuPlan(g *graph.Graph) *muPlan {
	p := &muPlan{
		adj:     make([]map[int]bool, g.N()),
		removed: make([]bool, g.N()),
	}
	for v := 0; v < g.N(); v++ {
		p.adj[v] = make(map[int]bool, g.Degree(v))
		for _, u := range g.Neighbors(v) {
			p.adj[v][u] = true
		}
		p.edges += g.Degree(v)
	}
	p.edges /= 2
	return p
}

func (p *muPlan) activeDeg(v int) int {
	if p.removed[v] {
		return 0
	}
	return len(p.adj[v])
}

func (p *muPlan) removeNode(v int) {
	for u := range p.adj[v] {
		delete(p.adj[u], v)
		p.edges--
	}
	p.adj[v] = map[int]bool{}
	p.removed[v] = true
}

func (p *muPlan) removeEdge(u, v int) {
	if p.adj[u][v] {
		delete(p.adj[u], v)
		delete(p.adj[v], u)
		p.edges--
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
func MuCongestTriangles(cfg MuTriangleConfig, router *expander.Router) func(sim.Node) {
	g := cfg.G
	n := g.N()
	if cfg.Beta <= 0 {
		cfg.Beta = 0.4
	}
	if cfg.X <= 0 {
		cfg.X = 2
	}
	if cfg.Alpha < 1 {
		cfg.Alpha = 1
	}
	plan := newMuPlan(g)
	tau := int(math.Ceil(cfg.X * math.Pow(float64(n), 1.0/3)))
	if tau < 2 {
		tau = 2
	}
	plan.tau = tau
	mpxHorizon := int(8*math.Log(float64(n)+2)/cfg.Beta) + 4
	maxIter := 4*int(math.Log2(float64(g.M()+2))) + 8

	return func(c sim.Node) {
		id := c.ID()
		c.Charge(int64(g.Degree(id)))
		defer c.Release(int64(g.Degree(id)))

		for iter := 0; iter < maxIter; iter++ {
			if plan.edges == 0 {
				return
			}
			// Phase A: low-degree nodes list their triangles (Thm B.1).
			lowDegreeListing(c, plan, tau)
			// Barrier: node 0 removes the listed nodes.
			c.Tick()
			if id == 0 {
				// Snapshot first: only nodes that were low-degree during
				// phase A (and hence listed their triangles) may go.
				// Removing as we scan would cascade onto nodes whose
				// degree only dropped below τ mid-loop.
				var toRemove []int
				for v := 0; v < n; v++ {
					if !plan.removed[v] && plan.activeDeg(v) <= tau {
						toRemove = append(toRemove, v)
					}
				}
				for _, v := range toRemove {
					if debugNodeRemovalHook != nil {
						debugNodeRemovalHook(plan, v)
					}
					plan.removeNode(v)
				}
			}
			c.Tick()
			if plan.edges == 0 {
				return
			}
			// Phase B: MPX clustering of the remaining graph.
			runMPXPhase(c, plan, cfg.Beta, mpxHorizon)
			c.Tick()
			if id == 0 {
				buildListingPlan(plan, cfg.Mu, c.Rand())
				if debugPlanHook != nil {
					debugPlanHook(plan)
				}
			}
			c.Tick()
			// Phase C: chunked triple delivery and listing.
			for blk := 0; blk < plan.blocks; blk++ {
				out := packetsFor(plan, id, blk)
				recv := router.Route(c, out)
				if len(recv) > 0 {
					c.Charge(int64(2 * len(recv)))
					edges := make([][2]int, len(recv))
					for i, p := range recv {
						edges[i] = [2]int{int(p.A), int(p.B)}
					}
					for _, tri := range ListInEdgeSet(edges, 3) {
						c.Emit(tri)
					}
					c.Release(int64(2 * len(recv)))
				}
			}
			// Barrier: node 0 removes intra-cluster edges.
			c.Tick()
			if id == 0 {
				for v := 0; v < n; v++ {
					for u := range plan.adj[v] {
						if v < u && plan.clusterOf[v] >= 0 && plan.clusterOf[v] == plan.clusterOf[u] {
							if debugRemovalHook != nil {
								debugRemovalHook(plan, v, u)
							}
							plan.removeEdge(v, u)
						}
					}
				}
			}
			c.Tick()
		}
	}
}

// lowDegreeListing is Theorem B.1 restricted to the active subgraph:
// nodes with active degree ≤ tau query their neighbors about mutual
// active edges and emit every triangle they belong to, in 2·tau rounds.
func lowDegreeListing(c sim.Node, plan *muPlan, tau int) {
	id := c.ID()
	var nbrs []int
	for u := range plan.adj[id] {
		nbrs = append(nbrs, u)
	}
	sort.Ints(nbrs)
	amLister := !plan.removed[id] && len(nbrs) > 0 && len(nbrs) <= tau
	for phase := 0; phase < tau; phase++ {
		var queried int64 = -1
		if amLister && phase < len(nbrs) {
			queried = int64(nbrs[phase])
			for _, u := range nbrs {
				c.SendID(u, sim.Msg{Kind: kindTriQuery, A: queried})
			}
		}
		inA := c.Tick()
		for _, m := range inA {
			if m.Msg.Kind != kindTriQuery {
				continue
			}
			ans := int64(0)
			if plan.adj[id][int(m.Msg.A)] {
				ans = 1
			}
			c.SendID(m.From, sim.Msg{Kind: kindTriAnswer, A: m.Msg.A, B: ans})
		}
		inB := c.Tick()
		if queried < 0 {
			continue
		}
		u := int(queried)
		for _, m := range inB {
			if m.Msg.Kind != kindTriAnswer || int(m.Msg.A) != u || m.Msg.B != 1 {
				continue
			}
			if u < m.From {
				tri := Clique{id, u, m.From}
				sortClique(tri)
				c.Emit(tri)
			}
		}
	}
}

// runMPXPhase runs the random-shift clustering over active nodes and
// deposits the result into the shared plan.
func runMPXPhase(c sim.Node, plan *muPlan, beta float64, horizon int) {
	id := c.ID()
	active := !plan.removed[id] && len(plan.adj[id]) > 0
	cluster := -1
	if active {
		shift := int(c.Rand().ExpFloat64() / beta)
		if shift > horizon-1 {
			shift = horizon - 1
		}
		start := horizon - 1 - shift
		joinedAt := -1
		for r := 0; r < horizon; r++ {
			if cluster < 0 && r == start {
				cluster = id
				joinedAt = r
			}
			if cluster >= 0 && r == joinedAt {
				for u := range plan.adj[id] {
					c.SendID(u, sim.Msg{Kind: kindMPXClaim, A: int64(cluster)})
				}
			}
			for _, m := range c.Tick() {
				if m.Msg.Kind == kindMPXClaim && cluster < 0 {
					cluster = int(m.Msg.A)
					joinedAt = r + 1
				}
			}
		}
		if cluster < 0 {
			cluster = id
		}
	} else {
		c.Idle(horizon)
	}
	plan.mu.Lock()
	if plan.clusterOf == nil || len(plan.clusterOf) != c.N() {
		plan.clusterOf = make([]int, c.N())
	}
	plan.clusterOf[id] = cluster
	plan.mu.Unlock()
}

// buildListingPlan (node 0, between barriers) derives buckets, degree-
// class listing sets and triple assignments per cluster.
func buildListingPlan(plan *muPlan, mu int64, rng interface{ Intn(int) int }) {
	n := len(plan.adj)
	members := map[int][]int{}
	for v := 0; v < n; v++ {
		if cl := plan.clusterOf[v]; cl >= 0 && !plan.removed[v] {
			members[cl] = append(members[cl], v)
		}
	}
	plan.clusterIx = map[int]int{}
	plan.bucketOf = nil
	plan.sPerC = nil
	plan.listers = nil
	plan.nodeCls = make([][]int, n)
	var allTriples [][][3]int
	plan.blocks = 0
	centers := make([]int, 0, len(members))
	for cl := range members {
		centers = append(centers, cl)
	}
	sort.Ints(centers)
	for _, cl := range centers {
		mem := members[cl]
		// Universe: members plus boundary; m̃ = edges incident to the cluster.
		uni := map[int]bool{}
		mTilde := 0
		for _, v := range mem {
			uni[v] = true
		}
		for _, v := range mem {
			for u := range plan.adj[v] {
				uni[u] = true
				mTilde++
			}
		}
		// Edges inside counted twice, boundary once; close enough for s.
		mTilde = (mTilde + 1) / 2
		if mTilde == 0 {
			continue
		}
		ord := len(plan.sPerC)
		plan.clusterIx[cl] = ord
		// Listing set: dominant degree class among members (Lemma B.5
		// bucketing — at least a 1/log n fraction of the bandwidth).
		classDeg := map[int]int{}
		for _, v := range mem {
			classDeg[degClass(plan.activeDeg(v))] += plan.activeDeg(v)
		}
		bestClass, bestW := 0, -1
		for cls, w := range classDeg {
			if w > bestW || (w == bestW && cls < bestClass) {
				bestClass, bestW = cls, w
			}
		}
		var listers []int
		for _, v := range mem {
			if degClass(plan.activeDeg(v)) == bestClass {
				listers = append(listers, v)
			}
		}
		sort.Ints(listers)
		s := int(math.Ceil(math.Sqrt(float64(2*mTilde) / float64(max64(1, mu)))))
		if s < 1 {
			s = 1
		}
		// Lower-bound s by |U|^(1/3), the A-set regime of Appendix B
		// (m̃/n^(2/3) ≤ μ): without it the bucket count degenerates and
		// the chunks concentrate on one listing node, losing both the
		// parallelism and the 1/√μ round scaling.
		if floor := int(math.Ceil(math.Cbrt(float64(len(uni))))); s < floor {
			s = floor
		}
		buckets := make(map[int]int, len(uni))
		uniSorted := make([]int, 0, len(uni))
		for v := range uni {
			uniSorted = append(uniSorted, v)
		}
		sort.Ints(uniSorted)
		for _, v := range uniSorted {
			buckets[v] = rng.Intn(s)
			plan.nodeCls[v] = append(plan.nodeCls[v], ord)
		}
		// All bucket triples (multisets), assigned round-robin.
		var triples [][3]int
		for a := 0; a < s; a++ {
			for b := a; b < s; b++ {
				for cc := b; cc < s; cc++ {
					triples = append(triples, [3]int{a, b, cc})
				}
			}
		}
		blocks := (len(triples) + len(listers) - 1) / len(listers)
		if blocks > plan.blocks {
			plan.blocks = blocks
		}
		plan.sPerC = append(plan.sPerC, s)
		plan.bucketOf = append(plan.bucketOf, buckets)
		plan.listers = append(plan.listers, listers)
		allTriples = append(allTriples, triples)
	}
	plan.triples = allTriples
}

// packetsFor computes the edges node id must ship in the given block:
// for every cluster whose universe contains it, every owned active edge
// whose endpoints' buckets both lie in a triple assigned this block.
func packetsFor(plan *muPlan, id, blk int) []expander.Packet {
	var out []expander.Packet
	for _, ord := range plan.nodeCls[id] {
		buckets := plan.bucketOf[ord]
		listers := plan.listers[ord]
		triples := plan.triples[ord]
		lo := blk * len(listers)
		hi := lo + len(listers)
		if hi > len(triples) {
			hi = len(triples)
		}
		for ti := lo; ti < hi; ti++ {
			tri := triples[ti]
			lister := listers[ti-lo]
			bu, okU := buckets[id]
			if !okU || !inTriple(tri, bu) {
				continue
			}
			for w := range plan.adj[id] {
				if w < id {
					continue // owner = smaller endpoint
				}
				bw, okW := buckets[w]
				if !okW || !inTriple(tri, bw) {
					continue
				}
				out = append(out, expander.Packet{Dst: lister, A: int64(id), B: int64(w)})
			}
		}
	}
	return out
}

func inTriple(t [3]int, b int) bool { return t[0] == b || t[1] == b || t[2] == b }

func degClass(d int) int {
	c := 0
	for d > 1 {
		d >>= 1
		c++
	}
	return c
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
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

// debugRemovalHook, when non-nil, observes every intra-cluster edge
// removal with the plan state still intact (test instrumentation).
var debugRemovalHook func(p *muPlan, v, u int)

// debugNodeRemovalHook, when non-nil, observes every low-degree node
// removal with the plan state still intact (test instrumentation).
var debugNodeRemovalHook func(p *muPlan, v int)

// debugPlanHook, when non-nil, observes the freshly built listing plan
// (test instrumentation).
var debugPlanHook func(p *muPlan)
