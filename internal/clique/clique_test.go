package clique

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mucongest/internal/cover"
	"mucongest/internal/graph"
	"mucongest/internal/lowerbound"
	"mucongest/internal/sim"
)

func TestListAllSmall(t *testing.T) {
	// K4 has 4 triangles and 1 4-clique.
	g, _ := graph.FromEdges(4, []graph.Edge{
		{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3},
		{U: 1, V: 2}, {U: 1, V: 3}, {U: 2, V: 3},
	})
	if tri := ListAll(g, 3); len(tri) != 4 {
		t.Fatalf("triangles in K4: %d", len(tri))
	}
	if k4 := ListAll(g, 4); len(k4) != 1 {
		t.Fatalf("4-cliques in K4: %d", len(k4))
	}
	if k5 := ListAll(g, 5); len(k5) != 0 {
		t.Fatalf("5-cliques in K4: %d", len(k5))
	}
}

func TestListInEdgeSetMatchesListAll(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := graph.Gnp(14, 0.5, rng)
	var edges [][2]int
	for _, e := range g.Edges() {
		edges = append(edges, [2]int{e.U, e.V})
	}
	for k := 3; k <= 4; k++ {
		a := ListAll(g, k)
		b := ListInEdgeSet(edges, k)
		if !SameSet(a, b) {
			t.Fatalf("k=%d: edge-set listing differs (%d vs %d)", k, len(a), len(b))
		}
	}
}

func TestDedupAndSameSet(t *testing.T) {
	a := []Clique{{1, 2, 3}, {3, 2, 1}, {4, 5, 6}}
	d := Dedup(a)
	if len(d) != 2 {
		t.Fatalf("dedup -> %d", len(d))
	}
	if !SameSet(a, []Clique{{4, 5, 6}, {1, 2, 3}}) {
		t.Fatal("SameSet false negative")
	}
	if SameSet(a, []Clique{{1, 2, 3}}) {
		t.Fatal("SameSet false positive")
	}
}

func TestLocalListingCompleteOnLowDegree(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := graph.Gnp(24, 0.3, rng)
	// Bound above Δ: every node active, so ALL triangles must be found.
	bound := g.MaxDegree()
	e := sim.New(g)
	prog := LocalListing(g, bound, bound)
	res, err := e.Run(func(c *sim.Ctx) { prog(c) })
	if err != nil {
		t.Fatal(err)
	}
	got := CollectTriangles(res)
	want := ListAll(g, 3)
	if !SameSet(got, want) {
		t.Fatalf("local listing found %d triangles, want %d", len(got), len(want))
	}
}

func TestLocalListingPartialCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := graph.Gnp(30, 0.4, rng)
	bound := 8
	e := sim.New(g)
	prog := LocalListing(g, bound, bound)
	res, err := e.Run(func(c *sim.Ctx) { prog(c) })
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, cl := range CollectTriangles(res) {
		got[cl.Key()] = true
	}
	// Every triangle containing an active (deg ≤ bound) node must appear.
	for _, tri := range ListAll(g, 3) {
		hasActive := false
		for _, v := range tri {
			if g.Degree(v) <= bound {
				hasActive = true
			}
		}
		if hasActive && !got[tri.Key()] {
			t.Fatalf("missed triangle %v with active node", tri)
		}
	}
}

func TestLocalListingRoundsLinearInBound(t *testing.T) {
	g := graph.Star(40) // hub has degree 39, leaves degree 1
	e := sim.New(g)
	prog := LocalListing(g, 1, 1)
	res, err := e.Run(func(c *sim.Ctx) { prog(c) })
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds > 4 {
		t.Fatalf("low-degree listing used %d rounds", res.Rounds)
	}
}

func TestOracleRouterDelivers(t *testing.T) {
	n := 10
	router := NewOracleRouter(n)
	e := sim.New(sim.NewComplete(n))
	res, err := e.Run(func(c *sim.Ctx) {
		// Everyone sends its id to node (id+1) mod n, 5 copies.
		var out []Packet
		for i := 0; i < 5; i++ {
			out = append(out, Packet{Dst: (c.ID() + 1) % n, A: int64(c.ID()), B: int64(i)})
		}
		in := router.Route(c, out)
		if len(in) != 5 {
			c.Emit(-1)
			return
		}
		for _, p := range in {
			if int(p.A) != (c.ID()+n-1)%n {
				c.Emit(-2)
				return
			}
		}
		c.Emit(int64(len(in)))
	})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < n; v++ {
		if res.Outputs[v][0].(int64) != 5 {
			t.Fatalf("node %d: %v", v, res.Outputs[v][0])
		}
	}
}

func TestOracleRouterRoundCharge(t *testing.T) {
	n := 8
	router := NewOracleRouter(n)
	e := sim.New(sim.NewComplete(n))
	// Each node sends 2 messages to every other node: maxIn = maxOut =
	// 2(n-1), so routing costs ⌈2(n-1)/(n-1)⌉+1 = 3 rounds + 2 barriers.
	res, err := e.Run(func(c *sim.Ctx) {
		var out []Packet
		for rep := 0; rep < 2; rep++ {
			for d := 0; d < n; d++ {
				if d != c.ID() {
					out = append(out, Packet{Dst: d, A: int64(rep)})
				}
			}
		}
		router.Route(c, out)
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 2 + 2 + 1
	if res.Rounds != want {
		t.Fatalf("rounds %d want %d", res.Rounds, want)
	}
}

func runCC(t *testing.T, g *graph.Graph, k int, mu int64) ([]Clique, *sim.Result) {
	t.Helper()
	router := NewOracleRouter(g.N())
	e := sim.New(sim.NewComplete(g.N()), sim.WithMu(mu*4)) // O(μ) slack
	prog := CongestedCliqueKCliques(g, k, mu, router)
	res, err := e.Run(func(c *sim.Ctx) { prog(c) })
	if err != nil {
		t.Fatal(err)
	}
	return CollectTriangles(res), res
}

func TestCongestedCliqueTrianglesComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{16, 27} {
		g := graph.Gnp(n, 0.5, rng)
		mu := int64(n) * 2
		got, _ := runCC(t, g, 3, mu)
		want := ListAll(g, 3)
		if !SameSet(got, want) {
			t.Fatalf("n=%d: CC listing %d triangles want %d", n, len(got), len(want))
		}
	}
}

func TestCongestedClique4Cliques(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := graph.Gnp(16, 0.6, rng)
	got, _ := runCC(t, g, 4, 32)
	want := ListAll(g, 4)
	if !SameSet(got, want) {
		t.Fatalf("4-cliques: %d want %d", len(got), len(want))
	}
}

func TestCongestedCliqueMemoryScalesWithMu(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := graph.Gnp(32, 0.5, rng)
	_, resSmall := runCC(t, g, 3, 32)
	_, resBig := runCC(t, g, 3, 512)
	if resSmall.MaxPeakWords() >= resBig.MaxPeakWords() {
		t.Fatalf("peak memory should grow with μ: %d vs %d",
			resSmall.MaxPeakWords(), resBig.MaxPeakWords())
	}
	if len(resSmall.Violations) > 0 || len(resBig.Violations) > 0 {
		t.Fatalf("μ violations: %v %v", resSmall.Violations, resBig.Violations)
	}
}

func TestCongestedCliqueRoundsDecreaseWithMu(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := graph.Gnp(48, 0.5, rng)
	_, r1 := runCC(t, g, 3, 48)
	_, r2 := runCC(t, g, 3, 48*8)
	if r2.Rounds >= r1.Rounds {
		t.Fatalf("rounds must drop as μ grows: μ=n %d vs μ=8n %d", r1.Rounds, r2.Rounds)
	}
}

// TestCongestedCliqueRoundsPerBlock asserts the round count E1/E2
// measures: rounds follow the subset-cover construction, not the
// asymptotic shape n^(k-2)/μ^(k/2-1) of Theorem 2.10, which the default
// scales are too small to show.
//
// The schedule runs one OracleRouter.Route per cover block, and the
// plan's block count is cover.Size of its largest multiset universe
// with sets of at most b = max(k, ⌊√μ⌋) nodes (k groups of ⌊b/k⌋).
// Route costs 2 agreement ticks, plus ⌈L/(n−1)⌉+1 idle rounds when the
// block's load L (the larger of the most packets one node sends and
// the most one node receives) is positive. So every block costs
// between 2 and 3 + ⌈L̂/(n−1)⌉ rounds for any bound L̂ ≥ L. In a block,
// a node sends each multiset whose set holds it at most its b−1 set
// neighbors, and the multisets whose universes hold a node's group
// number Tv = C(gc+k−2, k−1) over gc node groups; a master receives at
// most the b(b−1)/2 edges of each of its ⌈T/n⌉ multisets' sets, with
// T = C(gc+k−1, k). Hence L̂ = max(Tv·(b−1), ⌈T/n⌉·b(b−1)/2).
func TestCongestedCliqueRoundsPerBlock(t *testing.T) {
	for _, c := range []struct{ k, n int }{{3, 24}, {4, 16}} {
		k, n := c.k, c.n
		maxMu := int64(math.Pow(float64(n), 2-2/float64(k)))
		for mu := int64(n); mu <= maxMu; mu *= 2 {
			plan := newCCPlan(n, k, mu)
			b := max(k, int(math.Sqrt(float64(mu))))
			blocks := 0
			for _, uni := range plan.universes {
				blocks = max(blocks, cover.Size(len(uni), b, k))
			}
			gc := len(plan.groups)
			T, Tv := multichoose(gc, k), multichoose(gc, k-1)
			loadBound := max(Tv*(b-1), (T+n-1)/n*b*(b-1)/2)
			hi := 3 + (loadBound+n-2)/(n-1)
			for seed := int64(1); seed <= 3; seed++ {
				g := graph.Gnp(n, 0.5, rand.New(rand.NewSource(seed)))
				prog := CongestedCliqueKCliques(g, k, mu, NewOracleRouter(n))
				res, err := sim.New(sim.NewComplete(n), sim.WithSeed(seed)).Run(func(c *sim.Ctx) { prog(c) })
				if err != nil {
					t.Fatal(err)
				}
				if got, want := CollectTriangles(res), ListAll(g, k); !SameSet(got, want) {
					t.Fatalf("k=%d n=%d μ=%d seed=%d: listed %d cliques, want %d", k, n, mu, seed, len(got), len(want))
				}
				perBlock := float64(res.Rounds) / float64(blocks)
				if perBlock < 2 || perBlock > float64(hi) {
					t.Errorf("k=%d n=%d μ=%d seed=%d: %d rounds over %d blocks = %.2f per block, want within [2, %d] (L̂=%d)",
						k, n, mu, seed, res.Rounds, blocks, perBlock, hi, loadBound)
				}
			}
		}
	}
}

// TestCongestedCliqueSingleNode runs the listing and the router on one
// node, which has no links: the router's round count must not divide by
// n−1 = 0. The listing finds nothing, a self-addressed packet arrives,
// and both runs end without a node error.
func TestCongestedCliqueSingleNode(t *testing.T) {
	g := graph.New(1)
	for k := 3; k <= 4; k++ {
		prog := CongestedCliqueKCliques(g, k, 1, NewOracleRouter(1))
		res, err := sim.New(sim.NewComplete(1)).Run(func(c *sim.Ctx) { prog(c) })
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if got := CollectTriangles(res); len(got) != 0 {
			t.Errorf("k=%d: listed %v on an edgeless graph", k, got)
		}
	}
	router := NewOracleRouter(1)
	var got []Packet
	res, err := sim.New(sim.NewComplete(1)).Run(func(c *sim.Ctx) {
		got = router.Route(c, []Packet{{Dst: 0, A: 7}})
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].A != 7 {
		t.Errorf("self-addressed packet: received %v", got)
	}
	// Two agreement ticks, then the clamped divisor makes a load of L
	// cost L rounds: here 1.
	if res.Rounds != 3 {
		t.Errorf("rounds = %d, want 3", res.Rounds)
	}
}

// multichoose is the number of size-r multisets over g elements.
func multichoose(g, r int) int {
	num := 1
	for i := 0; i < r; i++ {
		num = num * (g + i) / (i + 1)
	}
	return num
}

func TestCliqueCountBoundLemma21(t *testing.T) {
	// Lemma 2.1: a graph with m edges has O(m^(k/2)) k-cliques.
	f := func(seed int64, nRaw, pRaw uint8) bool {
		n := int(nRaw%16) + 6
		p := 0.2 + float64(pRaw%60)/100
		g := graph.Gnp(n, p, rand.New(rand.NewSource(seed)))
		m := float64(g.M())
		for k := 3; k <= 4; k++ {
			cnt := float64(len(ListAll(g, k)))
			if cnt > lowerbound.KCliqueMax(m, k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
