package bench

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"mucongest/internal/clique"
	"mucongest/internal/graph"
	"mucongest/internal/lowerbound"
	"mucongest/internal/mergesim"
	"mucongest/internal/sim"
	"mucongest/internal/sketch"
	"mucongest/internal/stream"
	"mucongest/internal/streamsim"
	"mucongest/internal/topo"
	"mucongest/internal/trianglestats"
)

// Every runner takes the workload-graph topology as a topo.Spec (its
// default lives in Specs; cmd/muexp's -topo flag substitutes any other
// family), builds the graph from it deterministically, and emits one
// structured Record per simulated execution alongside the rendered
// table row.

// buildGraph builds tp with the runner's rng, panicking on an invalid
// spec — specs reach runners validated (from Specs or a parsed -topo).
func buildGraph(exp string, tp topo.Spec, rng *rand.Rand) *graph.Graph {
	g, err := tp.Build(rng)
	if err != nil {
		panic(fmt.Sprintf("bench: %s: %v", exp, err))
	}
	return g
}

// mustConnected rejects topologies the experiment's aggregation
// protocols cannot run on.
func mustConnected(exp string, tp topo.Spec, g *graph.Graph) {
	if !g.Connected() {
		panic(fmt.Sprintf("bench: %s needs a connected topology, but %s produced a "+
			"disconnected graph (use conn=1 or a deterministic family)", exp, tp))
	}
}

// E1E2 runs k-clique listing in the μ-Congested-Clique over a μ sweep
// (Theorem 2.10 upper bound, Theorem 1.1 lower bound). One table for
// both experiments: measured rounds between the two theory columns.
// The input graph comes from tp; communication is all-to-all
// regardless (the Congested-Clique model).
func E1E2(tp topo.Spec, k int, seed int64) *Table {
	rng := rand.New(rand.NewSource(seed))
	g := buildGraph("E1/E2", tp, rng)
	n := g.N()
	t := &Table{
		ID:     "E1/E2",
		Title:  fmt.Sprintf("%d-clique listing in μ-Congested-Clique, n=%d, %s", k, n, tp),
		Claim:  "Θ(n^(k-2)/μ^(k/2-1)) rounds (Thm 1.1 LB, Thm 2.10 UB)",
		Header: []string{"mu", "rounds", "LB(Thm1.1)", "UB(Thm2.10)", "rounds/UB", "cliques", "peakWords"},
	}
	want := len(clique.ListAll(g, k))
	maxMu := int64(math.Pow(float64(n), 2-2/float64(k)))
	for mu := int64(n); mu <= maxMu; mu *= 2 {
		router := clique.NewOracleRouter(n)
		e := sim.New(sim.NewComplete(n), sim.WithSeed(seed))
		start := time.Now()
		prog := clique.CongestedCliqueKCliques(g, k, mu, router)
		res, err := e.Run(func(c *sim.Ctx) { prog(c) })
		if err != nil {
			panic(err)
		}
		got := len(clique.CollectTriangles(res))
		ub := clique.PredictedCCRounds(n, k, mu)
		lb := lowerbound.KCliqueListingRounds(float64(n), k, float64(mu), float64(n))
		t.AddRow(mu, res.Rounds, lb, ub, float64(res.Rounds)/ub,
			fmt.Sprintf("%d/%d", got, want), res.MaxPeakWords())
		t.AddRecord(recordOf("E1/E2", tp, mu, P("k", k, "mu", mu), res, time.Since(start)))
	}
	t.Notes = append(t.Notes,
		"each subset-cover block costs 2 router rounds (an agreement tick and the first "+
			"round of the routing sleep) plus ⌈L/(n-1)⌉+1 charged rounds, so 2 ≤ rounds/blocks "+
			"≤ 3+⌈L̂/(n-1)⌉ for the block-load bound L̂ (asserted by "+
			"clique.TestCongestedCliqueRoundsPerBlock)",
		"rounds/UB is for display: at this n the cover's ⌊√μ/k⌋-node groups are too "+
			"small for Thm 2.10's asymptotic shape to show")
	return t
}

// E3 sweeps μ for the μ-CONGEST triangle listing (Theorem 1.2).
func E3(tp topo.Spec, seed int64) *Table {
	rng := rand.New(rand.NewSource(seed))
	g := buildGraph("E3", tp, rng)
	n := g.N()
	t := &Table{
		ID:     "E3",
		Title:  fmt.Sprintf("triangle listing in μ-CONGEST, n=%d, %s", n, tp),
		Claim:  "n^(1+o(1))/√μ rounds (Thm 1.2); Ω(n/√μ) (Thm 1.1)",
		Header: []string{"mu", "rounds", "rounds*sqrt(mu)/n", "triangles", "peakWords"},
	}
	want := len(clique.ListAll(g, 3))
	// Sweep from μ = Δ (the model's base assumption) to n^(4/3): below
	// ~2m̃/|U|^(2/3) the √(m̃/μ) bucket term governs; above it the
	// A-regime floor |U|^(1/3) takes over and rounds flatten.
	maxMu := int64(math.Pow(float64(n), 4.0/3))
	// An edgeless override graph has Δ=0, which would loop at μ=0 forever.
	startMu := int64(g.MaxDegree())
	if startMu < 1 {
		startMu = 1
	}
	for mu := startMu; mu <= maxMu; mu *= 2 {
		start := time.Now()
		tris, res, err := clique.RunMuCongestTriangles(
			clique.MuTriangleConfig{G: g, Mu: mu}, sim.WithSeed(seed))
		if err != nil {
			panic(err)
		}
		norm := float64(res.Rounds) * math.Sqrt(float64(mu)) / float64(n)
		t.AddRow(mu, res.Rounds, norm,
			fmt.Sprintf("%d/%d", len(tris), want), res.MaxPeakWords())
		t.AddRecord(recordOf("E3", tp, mu, P("mu", mu), res, time.Since(start)))
	}
	t.Notes = append(t.Notes,
		"rounds·√μ/n is for display: it stays flat only if rounds fall as 1/√μ, and at "+
			"this n they need not, since every node waits through the routed blocks of the "+
			"cluster with the most bucket triples per lister, whose bucket count the "+
			"|U|^(1/3) floor can set")
	return t
}

// E4E5 compares naive vs cached p-pass simulation, by default on the
// cycle-of-cliques (Theorems 1.3 and 1.4).
func E4E5(tp topo.Spec, seed int64) *Table {
	rng := rand.New(rand.NewSource(seed))
	g := buildGraph("E4/E5", tp, rng)
	mustConnected("E4/E5", tp, g)
	n, delta := g.N(), g.MaxDegree()
	t := &Table{
		ID:    "E4/E5",
		Title: fmt.Sprintf("p-pass simulation, %s n=%d Δ=%d", tp, n, delta),
		Claim: "naive Ω(n·Δ·p) when μ≤n/4 (Thm 1.4) vs cached O(n(Δ+p)) (Thm 1.3)",
		Header: []string{"p", "naive", "cached", "speedup",
			"theoryNaive", "theoryCached"},
	}
	labels := map[[2]int]int64{}
	for _, e := range g.Edges() {
		labels[[2]int{e.U, e.V}] = rng.Int63n(64)
	}
	for _, p := range []int{1, 2, 4, 8} {
		mk := func() streamsim.Client { return streamsim.NewMultipassSelect(1, 0, 63, 2, p) }
		start := time.Now()
		_, resN, err := streamsim.RunPPass(g, labels, mk, false, sim.WithSeed(seed))
		if err != nil {
			panic(err)
		}
		t.AddRecord(recordOf("E4/E5", tp, 0, P("p", p, "mode", "naive"), resN, time.Since(start)))
		start = time.Now()
		_, resC, err := streamsim.RunPPass(g, labels, mk, true, sim.WithSeed(seed))
		if err != nil {
			panic(err)
		}
		t.AddRecord(recordOf("E4/E5", tp, 0, P("p", p, "mode", "cached"), resC, time.Since(start)))
		t.AddRow(p, resN.Rounds, resC.Rounds,
			float64(resN.Rounds)/float64(resC.Rounds),
			lowerbound.StreamingSimulationRounds(float64(n), float64(delta), float64(p)),
			lowerbound.CachedSimulationRounds(float64(n), float64(delta), float64(p)))
	}
	t.Notes = append(t.Notes,
		"speedup must grow with p: caching wins exactly as Thm 1.3 predicts",
		"naive grows ∝p (the Thm 1.4 bottleneck through the two bridge edges)")
	return t
}

// E6 measures the random-order shuffle (Theorem 1.5): rounds vs the
// O(n(Δ+p)) budget plus a first-position uniformity χ².
func E6(tp topo.Spec, seed int64) *Table {
	rng := rand.New(rand.NewSource(seed))
	g := buildGraph("E6", tp, rng)
	mustConnected("E6", tp, g)
	n, delta := g.N(), g.MaxDegree()
	t := &Table{
		ID:     "E6",
		Title:  fmt.Sprintf("random-order stream (Thm 1.5), %s n=%d Δ=%d", tp, n, delta),
		Claim:  "O(n(Δ+p)) rounds, μ = M+n+Δ²; output order uniform",
		Header: []string{"p", "rounds", "theory n(Δ+p)", "ratio"},
	}
	labels := map[[2]int]int64{}
	for i, e := range g.Edges() {
		labels[[2]int{e.U, e.V}] = int64(i + 1)
	}
	for _, p := range []int{1, 2, 4} {
		mk := func() streamsim.Client { return streamsim.NewRecorder(p) }
		start := time.Now()
		_, res, err := streamsim.RunRandomOrder(g, labels, mk, sim.WithSeed(seed))
		if err != nil {
			panic(err)
		}
		theory := float64(n) * float64(delta+p)
		t.AddRow(p, res.Rounds, theory, float64(res.Rounds)/theory)
		t.AddRecord(recordOf("E6", tp, 0, P("p", p), res, time.Since(start)))
	}
	// Uniformity: χ² of the first stream position over a small star.
	star := graph.Star(5)
	slabels := map[[2]int]int64{}
	for i, e := range star.Edges() {
		slabels[[2]int{e.U, e.V}] = int64(i + 1)
	}
	trials := 200
	first := map[int64]int{}
	for s := 0; s < trials; s++ {
		out, _, err := streamsim.RunRandomOrder(star, slabels,
			func() streamsim.Client { return streamsim.NewRecorder(1) },
			sim.WithSeed(seed+int64(s)))
		if err != nil {
			panic(err)
		}
		first[out[0]]++
	}
	chi2 := 0.0
	expect := float64(trials) / 4
	for l := int64(1); l <= 4; l++ {
		d := float64(first[l]) - expect
		chi2 += d * d / expect
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("first-position χ²(df=3) = %.2f over %d trials (uniform if ≲ 11.3)", chi2, trials))
	return t
}

// E7 sweeps |I| for the one-way mergeable GK simulation (Theorem 1.6).
func E7(tp topo.Spec, seed int64) *Table {
	rng := rand.New(rand.NewSource(seed))
	g := buildGraph("E7", tp, rng)
	mustConnected("E7", tp, g)
	n, D := g.N(), g.Diameter()
	eps := 0.1
	t := &Table{
		ID:     "E7",
		Title:  fmt.Sprintf("one-way mergeable GK quantiles (Thm 1.6), %s n=%d D=%d ε=%.2f", tp, n, D, eps),
		Claim:  "O(min{nM, √(|I|M)} + D) rounds; quantile error ≤ ε·m",
		Header: []string{"|I|", "rounds", "theory", "ratio", "medianErr/m"},
	}
	for _, per := range []int{8, 32, 128} {
		items := make([][]int64, n)
		var all []int64
		for v := range items {
			for i := 0; i < per; i++ {
				x := rng.Int63n(100000)
				items[v] = append(items[v], x)
				all = append(all, x)
			}
		}
		total := int64(len(all))
		kind := sketch.NewGKKind(eps, total)
		start := time.Now()
		sum, res, err := mergesim.RunOneWay(g, items, kind, sim.WithSeed(seed))
		if err != nil {
			panic(err)
		}
		gk := sum.(*sketch.GK)
		med := gk.Query(0.5)
		var below int64
		for _, x := range all {
			if x < med {
				below++
			}
		}
		rankErr := math.Abs(float64(below)-0.5*float64(total)) / float64(total)
		theory := lowerbound.OneWayMergeRounds(float64(n), float64(kind.M()), float64(total), float64(D))
		t.AddRow(total, res.Rounds, theory, float64(res.Rounds)/theory, rankErr)
		t.AddRecord(recordOf("E7", tp, 0, P("items", total), res, time.Since(start)))
	}
	t.Notes = append(t.Notes, "ratio steady across the |I| sweep ⇒ √(|I|·M) scaling")
	return t
}

// E8 sweeps μ for the fully-mergeable MG simulation (Theorem 1.7) and
// checks the heavy-hitter pipeline with exact refinement.
func E8(tp topo.Spec, seed int64) *Table {
	rng := rand.New(rand.NewSource(seed))
	g := buildGraph("E8", tp, rng)
	mustConnected("E8", tp, g)
	n, D, delta := g.N(), g.Diameter(), g.MaxDegree()
	k := 9
	kind := sketch.NewMGKind(k)
	M := kind.M()
	t := &Table{
		ID:     "E8",
		Title:  fmt.Sprintf("fully-mergeable Misra–Gries (Thm 1.7), %s n=%d Δ=%d D=%d k=%d", tp, n, delta, D, k),
		Claim:  "O(log(min{nM,|I|})·(M·log(Δ/(μ/M))+D)) rounds; error ≤ m/(k+1)",
		Header: []string{"mu", "rounds", "theory", "maxErr", "bound m/(k+1)"},
	}
	items := make([][]int64, n)
	z := rand.NewZipf(rng, 1.25, 1, 29)
	var m int64
	exact := map[int64]int64{}
	for v := range items {
		for i := 0; i < 50; i++ {
			x := int64(z.Uint64()) + 1
			items[v] = append(items[v], x)
			exact[x]++
			m++
		}
	}
	for _, mu := range []int64{0, int64(4 * M), int64(16 * M)} {
		start := time.Now()
		sum, res, err := mergesim.RunFully(g, items, kind, mu, sim.WithSeed(seed))
		if err != nil {
			panic(err)
		}
		mg := sum.(*sketch.MG)
		var maxErr int64
		for x := int64(1); x <= 30; x++ {
			if d := exact[x] - mg.Estimate(x); d > maxErr {
				maxErr = d
			}
		}
		muEff := mu
		if muEff == 0 {
			muEff = int64(2 * M)
		}
		theory := lowerbound.FullyMergeRounds(float64(n), float64(M), float64(m),
			float64(D), float64(delta), float64(muEff))
		t.AddRow(mu, res.Rounds, theory, maxErr, m/int64(k+1))
		t.AddRecord(recordOf("E8", tp, mu, P("k", k, "mu", mu), res, time.Since(start)))
	}
	t.Notes = append(t.Notes, "rounds drop as μ grows (merge groups of μ/2M summaries)")
	return t
}

// E9 runs the composable CR-Precis entropy estimation (Theorem 1.8).
func E9(tp topo.Spec, seed int64) *Table {
	rng := rand.New(rand.NewSource(seed))
	g := buildGraph("E9", tp, rng)
	mustConnected("E9", tp, g)
	n, D := g.N(), g.Diameter()
	t := &Table{
		ID:     "E9",
		Title:  fmt.Sprintf("composable CR-Precis entropy (Thm 1.8), %s n=%d D=%d", tp, n, D),
		Claim:  "O(log(min{nM,|I|})·(M+D)) rounds; Ĥ sandwiched around H",
		Header: []string{"rows t", "M", "rounds", "theory", "H", "Ĥ", "Ĥ/H"},
	}
	universe := int64(64)
	items := make([][]int64, n)
	var m int64
	ex := sketch.NewExactKind(int(universe)).New().(*sketch.Exact)
	z := rand.NewZipf(rng, 1.2, 1, uint64(universe-1))
	for v := range items {
		for i := 0; i < 60; i++ {
			x := int64(z.Uint64()) + 1
			items[v] = append(items[v], x)
			ex.Insert(x)
			m++
		}
	}
	uni := make([]int64, universe)
	for i := range uni {
		uni[i] = int64(i) + 1
	}
	H := ex.Entropy()
	for _, rows := range []int{2, 4, 8} {
		kind := sketch.NewCRPrecisKind(67, rows)
		start := time.Now()
		sum, res, err := mergesim.RunComposable(g, items, kind, sim.WithSeed(seed))
		if err != nil {
			panic(err)
		}
		cr := sum.(*sketch.CRPrecis)
		Hhat := cr.EstimateEntropy(uni)
		theory := lowerbound.ComposableMergeRounds(float64(n), float64(kind.M()), float64(m), float64(D))
		t.AddRow(rows, kind.M(), res.Rounds, theory, H, Hhat, Hhat/H)
		t.AddRecord(recordOf("E9", tp, 0, P("rows", rows), res, time.Since(start)))
	}
	t.Notes = append(t.Notes, "Ĥ/H → 1 as the sketch widens (prime base > universe ⇒ exact)")
	return t
}

// E10 runs the end-to-end monochromatic-triangle census (§1.2.2) on tp
// with 6 edge colors (two planted heavy).
func E10(tp topo.Spec, seed int64) *Table {
	rng := rand.New(rand.NewSource(seed))
	g := buildGraph("E10", tp, rng)
	mustConnected("E10", tp, g)
	colors := graph.ColorEdges(g, 6, []float64{15, 3, 1, 1, 1, 1}, rng)
	n := g.N()
	t := &Table{
		ID:     "E10",
		Title:  fmt.Sprintf("frequent monochromatic triangles (§1.2.2), %s n=%d c=6", tp, n),
		Claim:  "n^(1+o(1))/√μ + log m·(ε⁻¹·log(Δε⁻¹/μ)+D) rounds",
		Header: []string{"mu", "listRounds", "sketchRounds", "refineRounds", "heavyColors", "monoTris"},
	}
	for _, mu := range []int64{int64(n), int64(4 * n)} {
		start := time.Now()
		res, err := trianglestats.Run(trianglestats.Config{
			G: g, Colors: colors, Mu: mu, Eps: 0.2, Seed: seed,
		})
		if err != nil {
			panic(err)
		}
		t.AddRow(mu, res.ListingRounds, res.SketchRounds, res.RefineRounds,
			fmt.Sprint(res.HeavyColors), res.MonoTriangles)
		t.AddRecord(Record{
			Exp:       "E10",
			Topo:      tp.String(),
			Params:    P("mu", mu, "eps", 0.2),
			Mu:        mu,
			Rounds:    res.ListingRounds + res.SketchRounds + res.RefineRounds,
			Messages:  res.Messages,
			PeakWords: res.PeakWords,
			WallTime:  time.Since(start),
		})
	}
	return t
}

// E11E12 sweeps the Lemma A.2/A.3 round–space tradeoff parameter α in
// the triangle listing: space ÷α at the cost of rounds ×α².
func E11E12(tp topo.Spec, seed int64) *Table {
	rng := rand.New(rand.NewSource(seed))
	g := buildGraph("E11/E12", tp, rng)
	n := g.N()
	t := &Table{
		ID:     "E11/E12",
		Title:  fmt.Sprintf("round–space tradeoff α (Lemmas A.2/A.3), triangle listing %s n=%d", tp, n),
		Claim:  "space ⌈deg/α⌉·polylog, rounds ×α²",
		Header: []string{"alpha", "rounds", "peakWords", "rounds/alpha^2"},
	}
	for _, alpha := range []int{1, 2, 4} {
		start := time.Now()
		_, res, err := clique.RunMuCongestTriangles(clique.MuTriangleConfig{
			G: g, Mu: int64(n), Alpha: alpha,
		}, sim.WithSeed(seed))
		if err != nil {
			panic(err)
		}
		t.AddRow(alpha, res.Rounds, res.MaxPeakWords(),
			float64(res.Rounds)/float64(alpha*alpha))
		t.AddRecord(recordOf("E11/E12", tp, int64(n), P("alpha", alpha), res, time.Since(start)))
	}
	t.Notes = append(t.Notes,
		"rounds/α² is for display: expander.NewRouter charges α² on every routed load, so "+
			"the column is flat by construction except for the unrouted rounds (Thm B.1 "+
			"phases, MPX clustering, barriers), which it divides by α² too",
		"at this scale peak memory is dominated by the input adjacency and μ-sized "+
			"chunks, not the routing embedding; the space side of the tradeoff is "+
			"isolated in expander.TestRouterAlphaTradeoffCharges")
	return t
}

// E13 is the sketch-resilience family: the four mergeable summary kinds
// (MG, GK, CountMin, AMS) aggregated up a BFS tree under seeded message
// loss (sim.WithFaults), sweeping the loss rate. The aggregation is the
// natural loss-tolerant variant of the Section 3 merge protocols: each
// node ships its merged summary to its parent as M one-word messages in
// one level-synchronous wave, and a parent merges a child's summary only
// if all M words arrived — a single lost word discards that child's
// whole subtree contribution. Coverage (fraction of the global stream
// the root summary absorbed) and the kind's accuracy metric then fall
// with p as (1-p)^M per tree edge, steeply for all but the smallest
// summaries, while peak memory tracks how many complete child buffers
// survived. Every record carries the
// fault-plan spec in its params, so downstream consumers can split
// fault-free from faulty provenance.
func E13(tp topo.Spec, seed int64) *Table {
	rng := rand.New(rand.NewSource(seed))
	g := buildGraph("E13", tp, rng)
	mustConnected("E13", tp, g)
	n := g.N()

	depth, parent, children, maxDepth := mergesim.BFSTree(g)

	// Shared workload: the E8-style Zipf stream, plus the exact answers
	// every kind's error metric compares against.
	items := make([][]int64, n)
	z := rand.NewZipf(rng, 1.25, 1, 29)
	var m int64
	exact := map[int64]int64{}
	var all []int64
	for v := range items {
		for i := 0; i < 50; i++ {
			x := int64(z.Uint64()) + 1
			items[v] = append(items[v], x)
			exact[x]++
			m++
			all = append(all, x)
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	var exactF2 float64
	for _, c := range exact {
		exactF2 += float64(c) * float64(c)
	}
	// rankErr is the normalized rank error of a quantile answer v for
	// target rank phi·m, against the sorted exact stream.
	rankErr := func(v int64, phi float64) float64 {
		lo := sort.Search(len(all), func(i int) bool { return all[i] >= v })
		hi := sort.Search(len(all), func(i int) bool { return all[i] > v })
		target := phi * float64(m)
		lod, hid := target-float64(hi), float64(lo)-target
		e := lod
		if hid > e {
			e = hid
		}
		if e < 0 {
			e = 0
		}
		return e / float64(m)
	}

	kinds := []struct {
		name string
		kind stream.Kind
		err  func(sum stream.Summary) float64
	}{
		{"MG", sketch.NewMGKind(9), func(sum stream.Summary) float64 {
			mg := sum.(*sketch.MG)
			var maxErr int64
			for x := int64(1); x <= 30; x++ {
				if d := exact[x] - mg.Estimate(x); d > maxErr {
					maxErr = d
				}
			}
			return float64(maxErr)
		}},
		{"GK", sketch.NewGKKind(0.1, m), func(sum stream.Summary) float64 {
			gk := sum.(*sketch.GK)
			var worst float64
			for _, phi := range []float64{0.25, 0.5, 0.75} {
				if e := rankErr(gk.Query(phi), phi); e > worst {
					worst = e
				}
			}
			return worst
		}},
		{"CountMin", sketch.NewCountMinKind(4, 32, seed), func(sum stream.Summary) float64 {
			cm := sum.(*sketch.CountMin)
			var maxErr int64
			for x := int64(1); x <= 30; x++ {
				d := cm.Estimate(x) - exact[x]
				if d < 0 {
					d = -d
				}
				if d > maxErr {
					maxErr = d
				}
			}
			return float64(maxErr)
		}},
		{"AMS", sketch.NewAMSKind(4, 16, seed), func(sum stream.Summary) float64 {
			d := float64(sum.(*sketch.AMS).EstimateF2()) - exactF2
			if d < 0 {
				d = -d
			}
			return d / exactF2
		}},
	}

	t := &Table{
		ID:     "E13",
		Title:  fmt.Sprintf("sketch resilience under message loss, %s n=%d depth=%d", tp, n, maxDepth),
		Claim:  "complete-subtree merge: a child survives with probability (1-p)^M, so coverage collapses within a few percent of loss, fastest for large summaries",
		Header: []string{"kind", "loss", "rounds", "coverage", "err", "peakWords", "faultDrops"},
	}
	for _, k := range kinds {
		M := k.kind.M()
		for _, loss := range []float64{0, 0.01, 0.05, 0.1, 0.2} {
			var plan sim.FaultPlan
			if loss > 0 {
				plan = sim.FaultPlan{Loss: true, LossP: loss}
			}
			start := time.Now()
			sum, res := runE13Tree(g, k.kind, items, depth, parent, children, maxDepth, plan, seed)
			coverage := 0.0
			if m > 0 {
				coverage = float64(sum.Count()) / float64(m)
			}
			errVal := k.err(sum)
			t.AddRow(k.name, loss, res.Rounds, coverage, errVal, res.MaxPeakWords(), res.FaultDrops)
			t.AddRecord(recordOf("E13", tp, 0,
				P("kind", k.name, "M", M, "loss", loss, "faults", plan.String()),
				res, time.Since(start)))
		}
	}
	t.Notes = append(t.Notes,
		"loss=0 ⇒ coverage 1 and the kind's fault-free error bound holds",
		"coverage falls with p (a lost word discards the child's whole subtree summary)",
		"a child survives with probability (1-p)^M, so resilience is exponentially "+
			"sensitive to M: large-M kinds (GK here) lose subtrees at far lower p than compact ones",
		"peakWords shrinks with p: incomplete child buffers hold fewer delivered words")
	return t
}

// runE13Tree executes one loss-swept aggregation of
// mergesim.LossyTreeProgram with edge cap M and returns the root's
// merged summary.
func runE13Tree(g *graph.Graph, kind stream.Kind, items [][]int64,
	depth, parent []int, children [][]int, maxDepth int,
	plan sim.FaultPlan, seed int64) (stream.Summary, *sim.Result) {
	sums := make([]stream.Summary, g.N())
	prog := mergesim.LossyTreeProgram(kind, items, depth, parent, children, maxDepth, sums)
	e := sim.New(g, sim.WithSeed(seed), sim.WithEdgeCap(kind.M()), sim.WithFaults(plan))
	res, err := e.Run(func(c *sim.Ctx) { prog(c) })
	if err != nil {
		panic(fmt.Sprintf("bench: E13: %v", err))
	}
	return sums[0], res
}
