package expander

import (
	"math"
	"math/rand"
	"testing"

	"mucongest/internal/congest"
	"mucongest/internal/graph"
	"mucongest/internal/sim"
)

func TestMPXClustersValid(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g, err := graph.GnpConnected(60, 0.15, rng)
	if err != nil {
		t.Fatal(err)
	}
	clusters, res, err := RunMPX(g, func(int) bool { return true }, 0.4, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Every node clustered; every cluster center is in its own cluster.
	for v, cl := range clusters {
		if cl < 0 {
			t.Fatalf("node %d unclustered", v)
		}
		if clusters[cl] != cl {
			t.Fatalf("center %d of node %d not in own cluster", cl, v)
		}
	}
	if res.Rounds <= 0 {
		t.Fatal("no rounds")
	}
	// Cut fraction should be bounded away from 1 (β-ish in expectation).
	cut := 0
	for _, e := range g.Edges() {
		if clusters[e.U] != clusters[e.V] {
			cut++
		}
	}
	if float64(cut) > 0.85*float64(g.M()) {
		t.Fatalf("MPX cut %d of %d edges", cut, g.M())
	}
}

func TestMPXInactiveNodes(t *testing.T) {
	g := graph.Cycle(12)
	clusters, _, err := RunMPX(g, func(v int) bool { return v%2 == 0 }, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	for v, cl := range clusters {
		if v%2 == 1 && cl != -1 {
			t.Fatalf("inactive node %d got cluster %d", v, cl)
		}
		// Even nodes on a cycle with odd nodes inactive are isolated in
		// the active subgraph: singleton clusters.
		if v%2 == 0 && cl != v {
			t.Fatalf("isolated active node %d joined %d", v, cl)
		}
	}
}

func TestMixingTimeOrdersGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	exp, err := graph.RandomRegular(40, 8, rng)
	if err != nil {
		t.Fatal(err)
	}
	barbell := graph.BarbellExpanders(20, 0.6, rng)
	te := MixingTime(exp, 100000)
	tb := MixingTime(barbell, 100000)
	if te >= tb {
		t.Fatalf("expander τmix %d should beat barbell %d", te, tb)
	}
}

func TestConductance(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	barbell := graph.BarbellExpanders(15, 0.6, rng)
	phi := Conductance(barbell, func(v int) bool { return v < 15 })
	if phi > 0.05 {
		t.Fatalf("barbell half-cut conductance %f too high", phi)
	}
	clique := graph.Gnp(20, 1.0, rng)
	phiK := Conductance(clique, func(v int) bool { return v < 10 })
	if phiK < 0.4 {
		t.Fatalf("clique half-cut conductance %f too low", phiK)
	}
}

func TestRouterDeliversAndCharges(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g, err := graph.GnpConnected(20, 0.4, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, alpha := range []int{1, 3} {
		r := NewRouter(g, alpha)
		e := sim.New(g)
		res, err := e.Run(func(c *sim.Ctx) {
			out := []congest.Packet{{Dst: (c.ID() + 1) % g.N(), A: int64(c.ID())}}
			in := r.Route(c, out)
			if len(in) != 1 || int(in[0].A) != (c.ID()+g.N()-1)%g.N() {
				c.Emit("bad")
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < g.N(); v++ {
			if len(res.Outputs[v]) != 0 {
				t.Fatalf("α=%d: delivery failed at %d", alpha, v)
			}
		}
		if res.Rounds < 3 {
			t.Fatalf("α=%d: no routing charge", alpha)
		}
	}
}

func TestRouterAlphaTradeoffCharges(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g, err := graph.GnpConnected(24, 0.4, rng)
	if err != nil {
		t.Fatal(err)
	}
	rounds := map[int]int{}
	words := map[int]int64{}
	for _, alpha := range []int{1, 4} {
		r := NewRouter(g, alpha)
		e := sim.New(g)
		res, err := e.Run(func(c *sim.Ctx) {
			var out []congest.Packet
			for i := 0; i < 3*c.Degree(); i++ {
				out = append(out, congest.Packet{Dst: (c.ID() + i) % g.N(), A: int64(i)})
			}
			r.Route(c, out)
		})
		if err != nil {
			t.Fatal(err)
		}
		rounds[alpha] = res.Rounds
		words[alpha] = res.MaxPeakWords()
	}
	// Lemma A.2: α trades rounds (×α²) for space (÷α).
	if rounds[4] <= rounds[1] {
		t.Fatalf("α=4 rounds %d should exceed α=1 rounds %d", rounds[4], rounds[1])
	}
	if words[4] >= words[1] {
		t.Fatalf("α=4 peak %d should undercut α=1 peak %d", words[4], words[1])
	}
}

func TestEmbeddingWordsFormula(t *testing.T) {
	g := graph.Star(17)
	hub := EmbeddingWords(g, 4, 0)
	leaf := EmbeddingWords(g, 4, 1)
	if hub <= leaf {
		t.Fatal("hub embedding must exceed leaf's")
	}
	if EmbeddingWords(g, 1, 0) <= hub {
		t.Fatal("α must shrink the embedding")
	}
}

// TestMixingTimeDegenerateGraphs pins the walk on the smallest inputs:
// a single node mixes instantly, and the 2-node path — the smallest
// graph with an actual walk — must converge in a handful of lazy steps
// without dividing by zero or overrunning maxT.
func TestMixingTimeDegenerateGraphs(t *testing.T) {
	if got := MixingTime(graph.Path(1), 100); got != 0 {
		t.Fatalf("single node τmix = %d, want 0", got)
	}
	two := graph.Path(2)
	got := MixingTime(two, 100)
	if got < 1 || got > 16 {
		t.Fatalf("2-node path τmix = %d, want a small positive count", got)
	}
	// The lazy walk is aperiodic even on bipartite graphs: the bound
	// must hold with room to spare on a 2-cycle-like instance.
	if capped := MixingTime(two, got); capped != got {
		t.Fatalf("τmix changed under exact cap: %d vs %d", capped, got)
	}
}

// TestConductanceTwoNodes pins the 2-node cut: the single bridge edge
// against volume 1 on each side gives Φ = 1, and the empty/full splits
// give 0.
func TestConductanceTwoNodes(t *testing.T) {
	two := graph.Path(2)
	if phi := Conductance(two, func(v int) bool { return v == 0 }); phi != 1 {
		t.Fatalf("2-node half-cut Φ = %v, want 1", phi)
	}
	if phi := Conductance(two, func(v int) bool { return false }); phi != 0 {
		t.Fatalf("empty-set Φ = %v, want 0", phi)
	}
	if phi := Conductance(two, func(v int) bool { return true }); phi != 0 {
		t.Fatalf("full-set Φ = %v, want 0", phi)
	}
}

// TestMPXTwoNodes runs the clustering protocol on the smallest
// connected graph: both nodes must land in one cluster centered at one
// of them (singleton clusters would leave the bridge cut, which MPX
// only does with probability β per endpoint).
func TestMPXTwoNodes(t *testing.T) {
	g := graph.Path(2)
	clusters, res, err := RunMPX(g, func(int) bool { return true }, 0.01, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds <= 0 {
		t.Fatal("no rounds")
	}
	for v, cl := range clusters {
		if cl < 0 {
			t.Fatalf("node %d unclustered", v)
		}
		if clusters[cl] != cl {
			t.Fatalf("center %d of node %d not in own cluster", cl, v)
		}
	}
}

// TestMPXRaceOnActiveSubgraph runs the race the way the μ-CONGEST
// listing does: half the nodes are inactive, and every active node
// passes only its active neighbors. Inactive nodes must get -1; every
// center must be an active node that centers its own cluster and lies
// in the same component of the active subgraph; and claims travel only
// on active edges, so the run sends at most one message per directed
// active edge. Broadcasting to every neighbor would exceed that.
func TestMPXRaceOnActiveSubgraph(t *testing.T) {
	g, err := graph.GnpConnected(40, 0.12, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	active := func(v int) bool { return v%2 == 0 }
	rows := make([][]int, g.N())
	directed := 0
	for v := range rows {
		for _, u := range g.Neighbors(v) {
			if active(v) && active(u) {
				rows[v] = append(rows[v], u)
			}
		}
		directed += len(rows[v])
	}
	comp := components(rows, active)
	horizon := int(8*math.Log(float64(g.N())+2)/0.4) + 4
	for seed := int64(1); seed <= 3; seed++ {
		res, err := sim.New(g, sim.WithSeed(seed)).Run(func(c *sim.Ctx) {
			c.Emit(MPXRace(c, rows[c.ID()], active(c.ID()), 0.4, horizon))
		})
		if err != nil {
			t.Fatal(err)
		}
		clusters := make([]int, g.N())
		for v := range clusters {
			clusters[v] = res.Outputs[v][0].(int)
		}
		for v, cl := range clusters {
			switch {
			case !active(v):
				if cl != -1 {
					t.Fatalf("seed=%d: inactive node %d got cluster %d", seed, v, cl)
				}
			case cl < 0 || !active(cl) || clusters[cl] != cl:
				t.Fatalf("seed=%d: node %d joined %d, which is not an active center", seed, v, cl)
			case comp[cl] != comp[v]:
				t.Fatalf("seed=%d: node %d joined center %d of another active component", seed, v, cl)
			}
		}
		if res.Messages > int64(directed) {
			t.Fatalf("seed=%d: %d claims over %d directed active edges", seed, res.Messages, directed)
		}
	}
}

// components labels every active node with the smallest id of its
// component in the graph given by rows.
func components(rows [][]int, active func(int) bool) []int {
	comp := make([]int, len(rows))
	for v := range comp {
		comp[v] = -1
	}
	for s := range rows {
		if !active(s) || comp[s] >= 0 {
			continue
		}
		comp[s] = s
		for queue := []int{s}; len(queue) > 0; queue = queue[1:] {
			for _, u := range rows[queue[0]] {
				if comp[u] < 0 {
					comp[u] = s
					queue = append(queue, u)
				}
			}
		}
	}
	return comp
}

// MPXProgram runs MPXRace on the subgraph induced by active nodes. Each
// node emits its cluster center id (int), -1 if inactive. Claims go to
// every neighbor; an inactive one sleeps and ignores them. Memory: O(1)
// words per node, as the paper observes for MPX.
func MPXProgram(active func(v int) bool, beta float64, horizon int) func(sim.Node) {
	return func(c sim.Node) {
		act := active(c.ID())
		if act {
			c.Charge(4)
			defer c.Release(4)
		}
		c.Emit(MPXRace(c, c.Neighbors(), act, beta, horizon))
	}
}

// RunMPX executes the decomposition and returns the cluster center of
// every node (-1 for inactive nodes).
func RunMPX(topo sim.Topology, active func(v int) bool, beta float64, seed int64) ([]int, *sim.Result, error) {
	n := topo.N()
	horizon := int(8*math.Log(float64(n)+2)/beta) + 4
	e := sim.New(topo, sim.WithSeed(seed))
	prog := MPXProgram(active, beta, horizon)
	res, err := e.Run(func(c *sim.Ctx) { prog(c) })
	if err != nil {
		return nil, res, err
	}
	out := make([]int, n)
	for v := 0; v < n; v++ {
		out[v] = res.Outputs[v][0].(int)
	}
	return out, res, nil
}

// Conductance returns Φ(S) for a node set S of g: cut(S, V∖S) divided
// by min(vol(S), vol(V∖S)).
func Conductance(g *graph.Graph, inS func(v int) bool) float64 {
	cut, volS, volT := 0, 0, 0
	for v := 0; v < g.N(); v++ {
		d := g.Degree(v)
		if inS(v) {
			volS += d
		} else {
			volT += d
		}
		for _, u := range g.Neighbors(v) {
			if v < u && inS(v) != inS(u) {
				cut++
			}
		}
	}
	m := volS
	if volT < m {
		m = volT
	}
	if m == 0 {
		return 0
	}
	return float64(cut) / float64(m)
}
