package streamsim

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"mucongest/internal/graph"
	"mucongest/internal/sim"
)

func labeledEdges(g *graph.Graph, rng *rand.Rand, lo, hi int64) map[[2]int]int64 {
	labels := make(map[[2]int]int64, g.M())
	for _, e := range g.Edges() {
		labels[[2]int{e.U, e.V}] = lo + rng.Int63n(hi-lo+1)
	}
	return labels
}

func TestMultipassSelectStandalone(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]int64, 500)
	for i := range vals {
		vals[i] = rng.Int63n(1000)
	}
	sorted := append([]int64(nil), vals...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, k := range []int64{1, 100, 250, 500} {
		b := 10
		p := PassesNeeded(1000, b)
		s := NewMultipassSelect(k, 0, 999, b, p)
		for pass := 0; pass < p; pass++ {
			s.StartPass(pass)
			for _, v := range vals {
				s.Edge(0, 1, v)
			}
			s.EndPass()
		}
		if got := s.Result()[0]; got != sorted[k-1] {
			t.Fatalf("rank %d: got %d want %d", k, got, sorted[k-1])
		}
	}
}

func TestPPassNaiveAndCachedAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := graph.HubAndBlob(24, 0.4, rng)
	labels := labeledEdges(g, rng, 0, 255)
	m := int64(g.M())
	b := 4
	p := PassesNeeded(256, b)
	mk := func() Client { return NewMultipassSelect((m+1)/2, 0, 255, b, p) }

	want := exactRankOf(labels, (m+1)/2)
	naive, resN, err := RunPPass(g, labels, mk, false)
	if err != nil {
		t.Fatal(err)
	}
	cached, resC, err := RunPPass(g, labels, mk, true)
	if err != nil {
		t.Fatal(err)
	}
	if naive[0] != want || cached[0] != want {
		t.Fatalf("median: naive %d cached %d want %d", naive[0], cached[0], want)
	}
	if resN.Rounds <= 0 || resC.Rounds <= 0 {
		t.Fatal("no rounds recorded")
	}
}

func exactRankOf(labels map[[2]int]int64, k int64) int64 {
	var vals []int64
	for _, v := range labels {
		vals = append(vals, v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	return vals[k-1]
}

func TestCachedBeatsNaiveOnCycleOfCliques(t *testing.T) {
	// Theorem 1.3 vs 1.4: on the cycle-of-cliques, recollection costs
	// Θ(m) per pass through the two bridge links, while replay costs
	// O(n) per pass. With enough passes cached must win decisively.
	g := graph.CycleOfCliques(4, 8)
	rng := rand.New(rand.NewSource(3))
	labels := labeledEdges(g, rng, 0, 63)
	p := 6
	mk := func() Client { return NewMultipassSelect(1, 0, 63, 2, p) }
	_, resN, err := RunPPass(g, labels, mk, false)
	if err != nil {
		t.Fatal(err)
	}
	_, resC, err := RunPPass(g, labels, mk, true)
	if err != nil {
		t.Fatal(err)
	}
	if resC.Rounds >= resN.Rounds {
		t.Fatalf("cached (%d rounds) must beat naive (%d rounds) at p=%d",
			resC.Rounds, resN.Rounds, p)
	}
}

func TestNaiveRoundsScaleLinearlyInPasses(t *testing.T) {
	g := graph.CycleOfCliques(3, 6)
	rng := rand.New(rand.NewSource(4))
	labels := labeledEdges(g, rng, 0, 15)
	rounds := func(p int) int {
		mk := func() Client { return NewMultipassSelect(1, 0, 15, 2, p) }
		_, res, err := RunPPass(g, labels, mk, false)
		if err != nil {
			t.Fatal(err)
		}
		return res.Rounds
	}
	r2, r8 := rounds(2), rounds(8)
	// Naive: rounds ≈ tree + p·collect. Growth factor ≈ 4 for p 2→8.
	growth := float64(r8) / float64(r2)
	if growth < 2.2 {
		t.Fatalf("naive growth %0.2f too flat (r2=%d r8=%d)", growth, r2, r8)
	}
	// Cached: replay passes are cheap; growth far below naive's.
	roundsC := func(p int) int {
		mk := func() Client { return NewMultipassSelect(1, 0, 15, 2, p) }
		_, res, err := RunPPass(g, labels, mk, true)
		if err != nil {
			t.Fatal(err)
		}
		return res.Rounds
	}
	c2, c8 := roundsC(2), roundsC(8)
	growthC := float64(c8) / float64(c2)
	if growthC >= growth {
		t.Fatalf("cached growth %0.2f should undercut naive growth %0.2f", growthC, growth)
	}
}

func TestGreedyMatchingClient(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := graph.HubAndBlob(20, 0.3, rng)
	mk := func() Client { return NewGreedyMatching(g.N()) }
	out, _, err := RunPPass(g, nil, mk, true)
	if err != nil {
		t.Fatal(err)
	}
	size := out[0]
	if size < 1 {
		t.Fatal("empty matching on a dense graph")
	}
	// Validate it is a matching over real edges.
	used := map[int64]bool{}
	for i := int64(0); i < size; i++ {
		u, w := out[1+2*i], out[2+2*i]
		if !g.HasEdge(int(u), int(w)) {
			t.Fatalf("matched non-edge %d-%d", u, w)
		}
		if used[u] || used[w] {
			t.Fatalf("node reused in matching")
		}
		used[u] = true
		used[w] = true
	}
	// Maximality: no remaining edge with both endpoints free.
	for _, e := range g.Edges() {
		if !used[int64(e.U)] && !used[int64(e.V)] {
			t.Fatalf("matching not maximal: edge %d-%d free", e.U, e.V)
		}
	}
}

func TestRandomOrderDeliversAllEdgesEachPass(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := graph.HubAndBlob(14, 0.5, rng)
	labels := make(map[[2]int]int64)
	for i, e := range g.Edges() {
		labels[[2]int{e.U, e.V}] = int64(i + 1) // unique labels
	}
	// mkClient runs at every node (each needs Passes()), so the factory
	// must be pure — the sink's result arrives via Emit.
	p := 3
	mk := func() Client { return NewRecorder(p) }
	sinkOut, _, err := RunRandomOrder(g, labels, mk)
	if err != nil {
		t.Fatal(err)
	}
	if len(sinkOut) != g.M() {
		t.Fatalf("final pass delivered %d edges want %d", len(sinkOut), g.M())
	}
	seen := map[int64]bool{}
	for _, l := range sinkOut {
		if seen[l] {
			t.Fatalf("label %d duplicated", l)
		}
		seen[l] = true
	}
	for i := 1; i <= g.M(); i++ {
		if !seen[int64(i)] {
			t.Fatalf("label %d missing", i)
		}
	}
}

func TestRandomOrderUniformity(t *testing.T) {
	// χ² test: the label appearing at stream position 0 must be uniform
	// over all m labels across independent seeds.
	g := graph.Star(5) // sink 0 with 4 neighbors; 4 edges
	labels := make(map[[2]int]int64)
	for i, e := range g.Edges() {
		labels[[2]int{e.U, e.V}] = int64(i + 1)
	}
	m := g.M()
	trials := 400
	firstCount := make(map[int64]int)
	posSum := make(map[int64]float64)
	for s := 0; s < trials; s++ {
		mk := func() Client { return NewRecorder(1) }
		out, _, err := RunRandomOrder(g, labels, mk, sim.WithSeed(int64(1000+s)))
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != m {
			t.Fatalf("trial %d delivered %d labels", s, len(out))
		}
		firstCount[out[0]]++
		for pos, l := range out {
			posSum[l] += float64(pos)
		}
	}
	// χ² over first positions: df = m-1 = 3; reject above ~16 (p≈0.001).
	expected := float64(trials) / float64(m)
	chi2 := 0.0
	for l := int64(1); l <= int64(m); l++ {
		d := float64(firstCount[l]) - expected
		chi2 += d * d / expected
	}
	if chi2 > 16.3 {
		t.Fatalf("first-position χ² = %0.1f (counts %v): order not uniform", chi2, firstCount)
	}
	// Mean position of every label should be near (m-1)/2 = 1.5.
	for l := int64(1); l <= int64(m); l++ {
		mean := posSum[l] / float64(trials)
		if math.Abs(mean-1.5) > 0.3 {
			t.Fatalf("label %d mean position %0.2f, want ≈1.5", l, mean)
		}
	}
}

func TestRandomOrderRoundsLinear(t *testing.T) {
	// Theorem 1.5: O(n(Δ+p)) rounds. Doubling p must add only ~linear
	// replay cost, far below a full reshuffle per pass.
	rng := rand.New(rand.NewSource(7))
	g := graph.HubAndBlob(20, 0.4, rng)
	labels := labeledEdges(g, rng, 1, 100)
	rounds := func(p int) int {
		mk := func() Client { return NewRecorder(p) }
		_, res, err := RunRandomOrder(g, labels, mk)
		if err != nil {
			t.Fatal(err)
		}
		return res.Rounds
	}
	r1, r5 := rounds(1), rounds(5)
	perPass := (r5 - r1) / 4
	if perPass > 3*g.N() {
		t.Fatalf("replay pass costs %d rounds, want O(n)=%d", perPass, g.N())
	}
}

func TestEdgeOwnerAndOwnedEdges(t *testing.T) {
	g, _ := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 3}})
	if EdgeOwner(graph.Edge{U: 2, V: 1}) != 1 {
		t.Fatal("owner")
	}
	own0 := OwnedEdges(g, 0, nil)
	if len(own0) != 2 {
		t.Fatalf("node 0 owns %d edges", len(own0))
	}
	own2 := OwnedEdges(g, 2, nil)
	if len(own2) != 0 {
		t.Fatalf("node 2 owns %d edges", len(own2))
	}
}

// TestPPassOutsideTreeFails runs the p-pass program on a disconnected
// graph: the nodes the sink's tree never reaches fail with Gather's
// named error instead of sending to node -1.
func TestPPassOutsideTreeFails(t *testing.T) {
	g, err := graph.FromEdges(5, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 3, V: 4}})
	if err != nil {
		t.Fatal(err)
	}
	mk := func() Client { return NewMultipassSelect(1, 0, 7, 2, 2) }
	prog := PPassProgram(g, nil, mk, false)
	_, err = sim.New(g, sim.WithMaxRounds(10000)).Run(func(c *sim.Ctx) { prog(c) })
	if err == nil || !strings.Contains(err.Error(), "congest: Gather: node 3 is not in the tree rooted at 1") {
		t.Fatalf("p-pass outside the tree: err = %v, want node 3's named error", err)
	}
}

func TestMaxDegreeNode(t *testing.T) {
	g := graph.Star(6)
	if MaxDegreeNode(g) != 0 {
		t.Fatal("star hub")
	}
}

// PassesNeeded returns the number of passes MultipassSelect needs for a
// label span with B buckets: ⌈log_B(span)⌉.
func PassesNeeded(span int64, b int) int {
	p := int(math.Ceil(math.Log(float64(span)) / math.Log(float64(b))))
	if p < 1 {
		p = 1
	}
	return p
}

// GreedyMatching is a one-pass semi-streaming maximal matching: an edge
// joins the matching when both endpoints are free. M = O(n).
type GreedyMatching struct {
	n       int
	matched []bool
	pairs   []int64
}

// NewGreedyMatching builds a matcher over n nodes.
func NewGreedyMatching(n int) *GreedyMatching {
	return &GreedyMatching{n: n, matched: make([]bool, n)}
}

// Passes returns 1.
func (gm *GreedyMatching) Passes() int { return 1 }

// StartPass resets state.
func (gm *GreedyMatching) StartPass(int) {
	for i := range gm.matched {
		gm.matched[i] = false
	}
	gm.pairs = gm.pairs[:0]
}

// EndPass is a no-op for the single-pass matcher.
func (gm *GreedyMatching) EndPass() {}

// Edge greedily matches.
func (gm *GreedyMatching) Edge(u, w int, _ int64) {
	if u < 0 || w < 0 || gm.matched[u] || gm.matched[w] {
		return
	}
	gm.matched[u] = true
	gm.matched[w] = true
	gm.pairs = append(gm.pairs, int64(u), int64(w))
}

// Result returns [size, u1, w1, u2, w2, ...].
func (gm *GreedyMatching) Result() []int64 {
	out := make([]int64, 0, 1+len(gm.pairs))
	out = append(out, int64(len(gm.pairs)/2))
	return append(out, gm.pairs...)
}

// MemoryWords returns O(n).
func (gm *GreedyMatching) MemoryWords() int64 { return int64(gm.n) + 8 }

// EdgeOwner returns the node responsible for streaming edge e (its
// smaller endpoint), so each edge enters the stream exactly once.
func EdgeOwner(e graph.Edge) int {
	if e.U < e.V {
		return e.U
	}
	return e.V
}
