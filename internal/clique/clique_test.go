package clique

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"mucongest/internal/congest"
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
	// The 1-cliques are the nodes, an isolated one included.
	h, _ := graph.FromEdges(3, []graph.Edge{{U: 0, V: 2}})
	if k1 := ListAll(h, 1); fmt.Sprint(k1) != "[[0] [1] [2]]" {
		t.Fatalf("1-cliques of a 3-node graph: %v", k1)
	}
	// In an edge batch they are the batch's ids, a self-loop's too.
	if k1 := ListInEdgeSet([][2]int{{9, 2}, {5, 5}, {2, 9}}, 1); fmt.Sprint(k1) != "[[2] [5] [9]]" {
		t.Fatalf("1-cliques of a batch: %v", k1)
	}
}

// messyBatch returns g's edges in the shape a master receives from
// several multisets: every edge twice, once reversed, plus a self-loop,
// with ids offset by off.
func messyBatch(g *graph.Graph, off int) [][2]int {
	var messy [][2]int
	for _, e := range g.Edges() {
		messy = append(messy, [2]int{off + e.V, off + e.U}, [2]int{off + e.U, off + e.V})
	}
	return append(messy, [2]int{off + 3, off + 3})
}

// TestListInEdgeSetMatchesListAll feeds ListInEdgeSet two batches of
// one graph's edges: each edge once in order, and messyBatch's shape
// with ids offset by 1000. Both must list exactly ListAll's list, in
// its lexicographic order, each clique once and in ascending id order.
func TestListInEdgeSetMatchesListAll(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := graph.Gnp(14, 0.5, rng)
	const off = 1000
	var plain [][2]int
	for _, e := range g.Edges() {
		plain = append(plain, [2]int{e.U, e.V})
	}
	for _, batch := range []struct {
		name  string
		edges [][2]int
		off   int
	}{{"plain", plain, 0}, {"messy", messyBatch(g, off), off}} {
		for k := 2; k <= 4; k++ {
			var want []Clique
			for _, cl := range ListAll(g, k) {
				for i := range cl {
					cl[i] += batch.off
				}
				want = append(want, cl)
			}
			got := ListInEdgeSet(batch.edges, k)
			if !slices.EqualFunc(got, want, slices.Equal) {
				t.Fatalf("%s k=%d: edge-set listing differs from ListAll's list (%d vs %d cliques)", batch.name, k, len(got), len(want))
			}
			for _, cl := range got {
				if !sort.IntsAreSorted(cl) {
					t.Fatalf("%s k=%d: clique %v not in ascending order", batch.name, k, cl)
				}
			}
		}
	}
	// Batch-size rows around C(k,2), the edges of one K_k: one entry
	// fewer lists nothing; exactly its edges list exactly it; C(k,2)
	// entries over fewer distinct edges (the last one a repeat of the
	// first, reversed, or a self-loop) list nothing through the full
	// path.
	for k := 2; k <= 4; k++ {
		ids := []int{40, 7, 93, 12}[:k]
		var kk [][2]int
		for i := range ids {
			for _, w := range ids[i+1:] {
				kk = append(kk, [2]int{w, ids[i]})
			}
		}
		last := len(kk) - 1
		if got := ListInEdgeSet(kk[:last], k); got != nil {
			t.Errorf("k=%d: %d entries listed %v", k, last, got)
		}
		if got, want := ListInEdgeSet(kk, k), slices.Sorted(slices.Values(ids)); len(got) != 1 || !slices.Equal(got[0], want) {
			t.Errorf("k=%d: the edges of one K_k listed %v, want [%v]", k, got, want)
		}
		lastEntries := [][2]int{{ids[0], ids[0]}}
		if last > 0 {
			lastEntries = append(lastEntries, [2]int{kk[0][1], kk[0][0]})
		}
		for _, e := range lastEntries {
			fewer := append(slices.Clone(kk[:last]), e)
			if got := ListInEdgeSet(fewer, k); got != nil {
				t.Errorf("k=%d: %v listed %v", k, fewer, got)
			}
		}
	}
}

// TestListInEdgeSetAllocs pins what ListInEdgeSet allocates on
// messyBatch of G(20, 1/2) (95 edges, 191 entries): one clique each,
// plus the lister's buffers. Those are the forward edge list, the clique
// being grown and the depth table (3), the doublings of the output slice
// (at most bits.Len(cliques)+1) and of the k−1 candidate buffers, each
// at most as long as a row (at most bits.Len(Δ)+1 each).
func TestListInEdgeSetAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	g := graph.Gnp(20, 0.5, rand.New(rand.NewSource(1)))
	batch := messyBatch(g, 1000)
	if len(batch) != 191 {
		t.Fatalf("batch of %d entries, want 191", len(batch))
	}
	for k := 3; k <= 4; k++ {
		cliques := len(ListAll(g, k))
		buffers := 3 + bits.Len(uint(cliques)) + 1 + (k-1)*(bits.Len(uint(g.MaxDegree()))+1)
		allocs := testing.AllocsPerRun(20, func() { ListInEdgeSet(batch, k) })
		if allocs > float64(cliques+buffers) {
			t.Errorf("k=%d: %.0f allocations for %d cliques, want at most %d beyond one per clique", k, allocs, cliques, buffers)
		}
	}
}

// TestDedupMatchesMapReference feeds Dedup random cliques of mixed
// lengths, with repeats and permuted members, and compares the result
// with a set built in a map: each distinct member set once, sorted, in
// lexicographic order with a proper prefix first. The input must not
// change.
func TestDedupMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		var cls []Clique
		for i := rng.Intn(40); i > 0; i-- {
			if len(cls) > 0 && rng.Intn(3) == 0 {
				cl := slices.Clone(cls[rng.Intn(len(cls))])
				rng.Shuffle(len(cl), func(i, j int) { cl[i], cl[j] = cl[j], cl[i] })
				cls = append(cls, cl)
				continue
			}
			cls = append(cls, rng.Perm(6)[:1+rng.Intn(4)])
		}
		before := fmt.Sprint(cls)
		set := map[string]Clique{}
		for _, cl := range cls {
			s := slices.Sorted(slices.Values(cl))
			set[fmt.Sprint(s)] = s
		}
		var want []Clique
		for _, cl := range set {
			want = append(want, cl)
		}
		sort.Slice(want, func(i, j int) bool {
			a, b := want[i], want[j]
			for x := 0; x < len(a) && x < len(b); x++ {
				if a[x] != b[x] {
					return a[x] < b[x]
				}
			}
			return len(a) < len(b)
		})
		got := Dedup(cls)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("trial %d: Dedup(%v) = %v, want %v", trial, cls, got, want)
		}
		if fmt.Sprint(cls) != before {
			t.Fatalf("trial %d: Dedup changed its input to %v", trial, cls)
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
	// A proper prefix sorts first, and mixed lengths never index past
	// the shorter clique.
	if d := Dedup([]Clique{{1, 2, 3}, {2, 1}}); fmt.Sprint(d) != "[[1 2] [1 2 3]]" {
		t.Fatalf("mixed lengths: %v", d)
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
		got[fmt.Sprint(cl)] = true
	}
	// Every triangle containing an active (deg ≤ bound) node must appear.
	for _, tri := range ListAll(g, 3) {
		hasActive := false
		for _, v := range tri {
			if g.Degree(v) <= bound {
				hasActive = true
			}
		}
		if hasActive && !got[fmt.Sprint(tri)] {
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
		var out []congest.Packet
		for i := 0; i < 5; i++ {
			out = append(out, congest.Packet{Dst: (c.ID() + 1) % n, A: int64(c.ID()), B: int64(i)})
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
	// 2(n-1), so routing charges ⌈2(n-1)/(n-1)⌉+1 = 3 rounds on top of
	// Route's 2: the agreement tick and the first round of its sleep.
	res, err := e.Run(func(c *sim.Ctx) {
		var out []congest.Packet
		for rep := 0; rep < 2; rep++ {
			for d := 0; d < n; d++ {
				if d != c.ID() {
					out = append(out, congest.Packet{Dst: d, A: int64(rep)})
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
// The schedule runs one NewOracleRouter Route per cover block, and the
// plan's block count, derived here from (n, k, μ) alone, is cover.Size
// of its largest multiset universe with sets of at most
// b = max(k, ⌊√μ⌋) nodes (k groups of ⌊b/k⌋). The nodes fall into
// gc = ⌈n/s⌉ groups of at most s = ⌈n/⌊n^(1/k)⌋⌉ consecutive ids, all
// but the last full, so the largest universe joins k full groups, or
// all n nodes when gc ≤ k: min(n, k·s) nodes. Route costs 2 rounds (the agreement tick and the first round of its
// sleep), plus ⌈L/(n−1)⌉+1 charged rounds when the block's load L (the
// larger of the most packets one node sends and the most one node
// receives) is positive. So every block costs between 2 and
// 3 + ⌈L̂/(n−1)⌉ rounds for any bound L̂ ≥ L. In a block,
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
			b := max(k, int(math.Sqrt(float64(mu))))
			root := max(1, int(math.Pow(float64(n), 1/float64(k))))
			size := (n + root - 1) / root
			gc := (n + size - 1) / size
			blocks := cover.Size(min(n, k*size), b, k)
			if got := newCCPlan(n, k, mu).blocks; got != blocks {
				t.Fatalf("k=%d n=%d μ=%d: the plan has %d blocks, want %d", k, n, mu, got, blocks)
			}
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
	g := graph.Path(1)
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
	var got []congest.Packet
	res, err := sim.New(sim.NewComplete(1)).Run(func(c *sim.Ctx) {
		got = router.Route(c, []congest.Packet{{Dst: 0, A: 7}})
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].A != 7 {
		t.Errorf("self-addressed packet: received %v", got)
	}
	// Route's 2 rounds, then the clamped divisor makes a load of L cost
	// L more: here 1.
	if res.Rounds != 3 {
		t.Errorf("rounds = %d, want 3", res.Rounds)
	}
}

// TestCongestedCliquePinned pins the Theorem 2.10 listing's schedule on
// G(n, 1/2) for k ∈ {3, 4}, node groups of equal and unequal sizes,
// seeds 1–3 and μ ∈ {n, 2n, 4n}: rounds, a digest of every node's peak
// words, and a digest of every block's per-node sent and received
// packet counts, which the router's charge function hashes. E1/E2
// records count no messages, because the router exchanges centrally,
// so a plan change that moves a packet to another node or block shows
// here first. The cliques must equal ListAll's. At k = 4 and these n,
// μ = 2n would repeat μ = n's schedule (both give inner groups of
// ⌊⌊√μ⌋/4⌋ = 1 node), so k = 4 runs μ ∈ {n, 4n}.
func TestCongestedCliquePinned(t *testing.T) {
	for _, pin := range []struct {
		k, n            int
		seed            int64
		muPerN          int64
		rounds          int
		peakWordsDigest uint64
		loadsDigest     uint64
	}{
		{3, 23, 1, 1, 8268, 0x275549c6545ba38c, 0x9ce41ac82854e6d3},
		{3, 23, 1, 2, 1426, 0x14773aa694ae3248, 0xce5b3add389ea1c9},
		{3, 23, 1, 4, 476, 0x7ceab1d1c0408d03, 0xa12c713ee1107c1},
		{3, 23, 2, 1, 8464, 0x8bf10e6b07464336, 0x9bc6934fa67f7657},
		{3, 23, 2, 2, 1444, 0x95eca1f7922528b, 0x7aa613c6d9e43f2e},
		{3, 23, 2, 4, 483, 0x6f91660a4d10d217, 0x6db168fc7b2358cd},
		{3, 23, 3, 1, 8366, 0xdd0deca47722619a, 0x7fd0b71b833f6843},
		{3, 23, 3, 2, 1432, 0x290031a9a60edaa8, 0x70c61ab37708a374},
		{3, 23, 3, 4, 484, 0x1d06f949716e8e1c, 0xee3f75cf9d16c750},
		{3, 32, 1, 1, 22368, 0xb563eecdc1d783f0, 0xc7dbb07ee6fe15fa},
		{3, 32, 1, 2, 3252, 0x6715dc72d51818a7, 0x65f12dfa50f2608b},
		{3, 32, 1, 4, 1142, 0x3f42660377fb728, 0x7bb7c6cca0615fde},
		{3, 32, 2, 1, 22530, 0xce064acf505e2a69, 0x7f356359151459ba},
		{3, 32, 2, 2, 3248, 0x815dd5c2b5a407d5, 0x9468b175276d9cc0},
		{3, 32, 2, 4, 1141, 0x34be5ccd6722ddec, 0x78167c78a4f962d9},
		{3, 32, 3, 1, 22370, 0xbcdbf05fa9b4d56b, 0xff98db81b4801b4b},
		{3, 32, 3, 2, 3252, 0xda076aef9cfd6aee, 0xad8e71fc88c23412},
		{3, 32, 3, 4, 1144, 0x28232af378b8ac9a, 0x2ffffc68bdfdec55},
		{4, 17, 1, 1, 18346, 0x235c6a8601277944, 0x61bf07cd6f833613},
		{4, 17, 1, 4, 1985, 0xb4aa1615d9a186fa, 0x4d3a4721112bca13},
		{4, 17, 2, 1, 18640, 0x80bb7a4f240c1557, 0xcf1af13911987d31},
		{4, 17, 2, 4, 1999, 0xcf97db0bfd148a03, 0xe4f894501797e34c},
		{4, 17, 3, 1, 18156, 0x7f90996c1c00fc5e, 0xf2af873f7acb975f},
		{4, 17, 3, 4, 1946, 0x712eca6b2ca3deb3, 0x99f1c405992aedef},
		{4, 20, 1, 1, 33842, 0x6bedae561746f174, 0x91823afea52a8f07},
		{4, 20, 1, 4, 2854, 0x53a4f7abe745c0da, 0xb8d54d0b6d38825e},
		{4, 20, 2, 1, 34188, 0x476063f73165fb4e, 0xdab7a163ed969189},
		{4, 20, 2, 4, 2870, 0xf253be2b0b8f0984, 0x54e78ba7ba2f5ade},
		{4, 20, 3, 1, 33898, 0x82d06eb44d2b4742, 0x46047b4a278d4fcd},
		{4, 20, 3, 4, 2846, 0xea82d577ece513e9, 0xf1fb4630ad44f5cb},
	} {
		n := pin.n
		g := graph.Gnp(n, 0.5, rand.New(rand.NewSource(pin.seed)))
		mu := pin.muPerN * int64(n)
		// NewOracleRouter's Lemma 2.9 charge, hashing the loads first.
		loads := fnv.New64a()
		router := congest.NewRouter(n, func(sent, recv []int) int {
			fmt.Fprint(loads, sent, recv)
			load := max(slices.Max(sent), slices.Max(recv))
			if load == 0 {
				return 0
			}
			return (load+n-2)/max(1, n-1) + 1
		}, nil)
		prog := CongestedCliqueKCliques(g, pin.k, mu, router)
		res, err := sim.New(sim.NewComplete(n), sim.WithSeed(pin.seed)).Run(func(c *sim.Ctx) { prog(c) })
		if err != nil {
			t.Fatal(err)
		}
		peaks := fnv.New64a()
		fmt.Fprint(peaks, res.PeakWords)
		if res.Rounds != pin.rounds || peaks.Sum64() != pin.peakWordsDigest || loads.Sum64() != pin.loadsDigest {
			t.Errorf("k=%d n=%d seed %d μ=%d: rounds %d, peak-words digest %#x, loads digest %#x; want %d, %#x, %#x",
				pin.k, n, pin.seed, mu, res.Rounds, peaks.Sum64(), loads.Sum64(), pin.rounds, pin.peakWordsDigest, pin.loadsDigest)
		}
		if got, want := CollectTriangles(res), ListAll(g, pin.k); !slices.EqualFunc(got, want, slices.Equal) {
			t.Errorf("k=%d n=%d seed %d μ=%d: listed %d cliques, want ListAll's %d", pin.k, n, pin.seed, mu, len(got), len(want))
		}
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

// TestLowDegreeListingReducedView runs the Theorem B.1 protocol the way
// the μ-CONGEST listing does: on the network g, over rows and an
// adjacency test that hide some of g's edges. Every lister (1 ≤ reduced
// degree ≤ bound) must emit exactly the triangles of the reduced graph
// that contain it, each once, and every other node nothing.
func TestLowDegreeListingReducedView(t *testing.T) {
	g := graph.Gnp(24, 0.45, rand.New(rand.NewSource(8)))
	var kept []graph.Edge
	for _, e := range g.Edges() {
		if (e.U+e.V)%3 != 0 {
			kept = append(kept, e)
		}
	}
	h, err := graph.FromEdges(g.N(), kept)
	if err != nil {
		t.Fatal(err)
	}
	if h.M() == g.M() {
		t.Fatal("the reduced view hides no edge")
	}
	const bound = 5
	res, err := sim.New(g).Run(func(c *sim.Ctx) {
		id := c.ID()
		listLowDegree(c, h.Neighbors(id), bound, bound, func(w int) bool { return h.HasEdge(id, w) })
	})
	if err != nil {
		t.Fatal(err)
	}
	name := func(cl Clique) string {
		cl = slices.Clone(cl)
		slices.Sort(cl)
		return fmt.Sprint(cl)
	}
	listers := 0
	for v, outs := range res.Outputs {
		var got, want []string
		for _, o := range outs {
			got = append(got, name(o.(Clique)))
		}
		if d := h.Degree(v); d >= 1 && d <= bound {
			listers++
			for _, tri := range ListAll(h, 3) {
				if slices.Contains(tri, v) {
					want = append(want, name(tri))
				}
			}
		}
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Errorf("node %d (reduced degree %d): emitted %v, want %v", v, h.Degree(v), got, want)
		}
	}
	if listers == 0 || listers == g.N() {
		t.Fatalf("%d of %d nodes list; the bound separates nothing", listers, g.N())
	}
}

// LocalListing implements Theorem B.1: every node v with
// deg(v) ≤ degBound learns all triangles it belongs to, in
// O(max active degree) rounds, using only its incident edges. All other
// nodes cooperate by answering adjacency queries. Each triangle is
// emitted as a Clique value by every active node in it (callers dedup).
//
// Memory: each node stores its adjacency list (deg words, an input) and
// O(1) extra words.
//
// Returns a node program to be run under sim; phases is 2·phaseCount
// rounds where phaseCount must upper-bound every active node's degree.
func LocalListing(g *graph.Graph, degBound, phaseCount int) func(sim.Node) {
	return func(c sim.Node) {
		id, nbrs := c.ID(), c.Neighbors()
		c.Charge(int64(len(nbrs))) // the node's input adjacency
		defer c.Release(int64(len(nbrs)))
		listLowDegree(c, nbrs, degBound, phaseCount,
			func(w int) bool { return g.HasEdge(id, w) })
	}
}

// Dedup returns the set union of cliques, each sorted ascending, in
// lexicographic order.
func Dedup(cls []Clique) []Clique {
	out := make([]Clique, len(cls))
	for i, c := range cls {
		out[i] = slices.Clone(c)
		slices.Sort(out[i])
	}
	slices.SortFunc(out, slices.Compare)
	return slices.CompactFunc(out, slices.Equal)
}

// SameSet reports whether two clique collections are equal as sets.
func SameSet(a, b []Clique) bool {
	return slices.EqualFunc(Dedup(a), Dedup(b), slices.Equal)
}
