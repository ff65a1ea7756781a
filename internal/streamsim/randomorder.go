package streamsim

import (
	"mucongest/internal/congest"
	"mucongest/internal/graph"
	"mucongest/internal/matching"
	"mucongest/internal/sim"
)

// RandomOrderProgram implements Theorem 1.5: it simulates a p-pass
// RANDOM-ORDER edge-streaming algorithm at the max-degree sink in
// O(n·(Δ+p)) rounds with μ = M + n + Δ² at the sink. Pipeline:
//
//  1. Cache all edges at the sink's Δ neighbors (Theorem 1.3 step),
//     padded with dummy entries to a common length K ≤ n.
//  2. The sink runs the bucketized Fisher–Yates selection (Appendix C):
//     for every target slot s (dest bucket = s mod Δ) it draws a source
//     bucket proportionally to remaining occupancy, producing a Δ×Δ
//     transfer matrix B with all row/column sums K.
//  3. Each neighbor learns its column of B, randomly partitions its
//     cached edges into destination piles (drawing identities locally,
//     as in the paper).
//  4. The sink decomposes B into permutation matrices one at a time
//     (Birkhoff's theorem, O(Δ²) memory) and schedules the rerouting:
//     per permutation block, every neighbor forwards edges of one pile
//     through the sink — one inbound and one outbound message per link
//     per transfer, hence congestion-free.
//  5. Each neighbor locally shuffles its received pile (the paper's
//     final intra-batch shuffle), yielding the slot-ordered array A′.
//  6. p replay passes stream A′ to the sink in slot order.
func RandomOrderProgram(g *graph.Graph, labels map[[2]int]int64, sink int,
	maxDepth int, mkClient func() Client) func(sim.Node) {

	delta := g.Degree(sink)
	return func(c sim.Node) {
		tr := congest.BuildBFSTree(c, sink, maxDepth)
		mine := OwnedEdges(g, c.ID(), labels)
		isSink := c.ID() == sink
		amNeighbor := tr.Parent == sink

		// Phase 1: cache at neighbors. The sink does not consume yet.
		cacheList := gatherToSink(c, tr, maxDepth, mine, nil, true)

		var newCache []graph.Edge
		switch {
		case isSink:
			newCache = nil
			runShuffleSink(c, tr, delta)
		case amNeighbor:
			newCache = runShuffleNeighbor(c, tr, cacheList)
		default:
			// Idle through the shuffle; no messages reach these nodes
			// until the replay FINISH floods.
		}

		// Phase 6: p replay passes in slot order.
		var client Client
		passes := mkClient().Passes()
		if isSink {
			client = mkClient()
			c.Charge(client.MemoryWords() + int64(delta*delta))
			defer c.Release(client.MemoryWords() + int64(delta*delta))
		}
		for pass := 0; pass < passes; pass++ {
			if isSink {
				client.StartPass(pass)
			}
			replayFromCache(c, tr, maxDepth, newCache, func(_ int, e graph.Edge) {
				if e.U >= 0 {
					client.Edge(e.U, e.V, e.Label)
				}
			})
			if isSink {
				client.EndPass()
			}
		}
		if isSink {
			c.Emit(client.Result())
		}
	}
}

// runShuffleSink drives phases 2–5 at the sink.
func runShuffleSink(c sim.Node, tr *congest.Tree, delta int) {
	children := tr.Children // sorted ids; column j = children[j]
	d := len(children)
	if d == 0 {
		return
	}
	// Count per-neighbor cache sizes: the sink distributed them, but the
	// counts are easiest re-derived by one round of reporting.
	counts := make([]int64, d)
	colOf := make(map[int]int, d)
	for j, ch := range children {
		colOf[ch] = j
	}
	in := c.Tick() // neighbors report their cache sizes
	for _, m := range in {
		if m.Msg.Kind == kindDone {
			counts[colOf[m.From]] = m.Msg.A
		}
	}
	var K int64
	for _, k := range counts {
		if k > K {
			K = k
		}
	}
	// Phase 2: bucketized Fisher–Yates counts -> B (Δ×Δ, sums K).
	c.Charge(int64(2 * d * d))
	defer c.Release(int64(2 * d * d))
	B := make([][]int64, d)
	for i := range B {
		B[i] = make([]int64, d)
	}
	remain := make([]int64, d)
	for k := range remain {
		remain[k] = K
	}
	total := K * int64(d)
	for s := int64(0); s < K*int64(d); s++ {
		dest := int(s) % d
		r := c.Rand().Int63n(total - s)
		k := 0
		for r >= remain[k] {
			r -= remain[k]
			k++
		}
		remain[k]--
		B[dest][k]++
	}
	// Phase 3: announce K and column indices, then stream columns.
	for j, ch := range children {
		c.SendID(ch, sim.Msg{Kind: kindDirective, A: -1, B: K, C: int64(j)})
	}
	c.Tick()
	for i := 0; i < d; i++ {
		for j, ch := range children {
			c.SendID(ch, sim.Msg{Kind: kindDirective, A: int64(i), B: B[i][j]})
		}
		c.Tick()
	}
	// End-of-columns sentinel separating the column stream from the
	// permutation directives (both use A ≥ 0).
	for _, ch := range children {
		c.SendID(ch, sim.Msg{Kind: kindDirective, A: -5})
	}
	c.Tick()
	// Phase 4: incremental Birkhoff + block-scheduled rerouting.
	W := make([][]int64, d)
	for i := range B {
		W[i] = append([]int64(nil), B[i]...)
	}
	remaining := K
	hold := make([]sim.Msg, 0, d)
	for remaining > 0 {
		adj := make([][]int, d)
		for j := 0; j < d; j++ {
			for i := 0; i < d; i++ {
				if W[i][j] > 0 {
					adj[j] = append(adj[j], i)
				}
			}
		}
		m, err := matching.PerfectMatching(d, adj)
		if err != nil {
			panic("streamsim: Birkhoff schedule stalled: " + err.Error())
		}
		gamma := remaining
		for j := 0; j < d; j++ {
			if W[m[j]][j] < gamma {
				gamma = W[m[j]][j]
			}
		}
		for j := 0; j < d; j++ {
			W[m[j]][j] -= gamma
		}
		remaining -= gamma
		// Directive round: tell each neighbor its pile and count.
		for j, ch := range children {
			c.SendID(ch, sim.Msg{Kind: kindDirective, A: int64(m[j]), B: gamma})
		}
		c.Tick()
		for t := int64(0); t < gamma; t++ {
			// Up round: neighbors send; sink holds.
			in := c.Tick()
			hold = hold[:0]
			destOf := make(map[int]int, d)
			for j, ch := range children {
				destOf[ch] = m[j]
			}
			for _, mm := range in {
				if mm.Msg.Kind == kindShuffleEdge {
					out := mm.Msg
					out.Kind = kindCache
					c.SendID(children[destOf[mm.From]], out)
				}
			}
			// Down round: forwarded above; barrier.
			c.Tick()
		}
	}
	// Phase 5 trigger: announce shuffle completion.
	for _, ch := range children {
		c.SendID(ch, sim.Msg{Kind: kindDirective, A: -2})
	}
	c.Tick()
}

// runShuffleNeighbor is the neighbor side of phases 2–5; returns the
// reshuffled slot-ordered cache.
func runShuffleNeighbor(c sim.Node, tr *congest.Tree, cacheList []graph.Edge) []graph.Edge {
	// Report cache size.
	c.SendID(tr.Parent, sim.Msg{Kind: kindDone, A: int64(len(cacheList))})
	in := c.Tick()
	var K int64 = -1
	for _, m := range in {
		if m.Msg.Kind == kindDirective && m.Msg.A == -1 {
			K = m.Msg.B
		}
	}
	for K < 0 { // K arrives one round after the report
		in = c.Tick()
		for _, m := range in {
			if m.Msg.Kind == kindDirective && m.Msg.A == -1 {
				K = m.Msg.B
			}
		}
	}
	// Pad with dummies to K and receive the column of B.
	pad := append([]graph.Edge(nil), cacheList...)
	for int64(len(pad)) < K {
		pad = append(pad, graph.Edge{U: -1, V: -1})
	}
	c.Charge(2 * K)
	defer c.Release(2 * K)
	col := make([]int64, 0, 64)
	for done := false; !done; {
		in = c.Tick()
		for _, m := range in {
			switch {
			case m.Msg.Kind == kindDirective && m.Msg.A == -5:
				done = true
			case m.Msg.Kind == kindDirective && m.Msg.A >= 0:
				for int(m.Msg.A) >= len(col) {
					col = append(col, 0)
				}
				col[m.Msg.A] = m.Msg.B
			}
		}
	}
	// Phase 3: random partition into destination piles.
	c.Rand().Shuffle(len(pad), func(i, j int) { pad[i], pad[j] = pad[j], pad[i] })
	piles := make([][]graph.Edge, len(col))
	idx := 0
	for i, cnt := range col {
		piles[i] = pad[idx : idx+int(cnt)]
		idx += int(cnt)
	}
	// Phase 4: follow directives until the -2 sentinel.
	var newCache []graph.Edge
	pilePos := make([]int, len(col))
	for {
		// Wait for a directive.
		var pile, gamma int64 = -3, 0
		for pile == -3 {
			in = c.Tick()
			for _, m := range in {
				switch {
				case m.Msg.Kind == kindDirective && m.Msg.A == -2:
					pile = -2
				case m.Msg.Kind == kindDirective && m.Msg.A >= 0:
					pile, gamma = m.Msg.A, m.Msg.B
				case m.Msg.Kind == kindCache:
					newCache = append(newCache, graph.Edge{U: int(m.Msg.A), V: int(m.Msg.B), Label: m.Msg.C})
				}
			}
		}
		if pile == -2 {
			break
		}
		for t := int64(0); t < gamma; t++ {
			p := int(pile)
			e := piles[p][pilePos[p]]
			pilePos[p]++
			c.SendID(tr.Parent, sim.Msg{Kind: kindShuffleEdge, A: int64(e.U), B: int64(e.V), C: e.Label})
			in = c.Tick() // up round
			for _, m := range in {
				if m.Msg.Kind == kindCache {
					newCache = append(newCache, graph.Edge{U: int(m.Msg.A), V: int(m.Msg.B), Label: m.Msg.C})
				}
			}
			in = c.Tick() // down round: forwarded edges arrive
			for _, m := range in {
				if m.Msg.Kind == kindCache {
					newCache = append(newCache, graph.Edge{U: int(m.Msg.A), V: int(m.Msg.B), Label: m.Msg.C})
				}
			}
		}
	}
	// Phase 5: local Fisher–Yates of the received pile.
	c.Rand().Shuffle(len(newCache), func(i, j int) {
		newCache[i], newCache[j] = newCache[j], newCache[i]
	})
	return newCache
}

// RunRandomOrder executes the Theorem 1.5 pipeline and returns the
// sink's client result plus run statistics.
func RunRandomOrder(g *graph.Graph, labels map[[2]int]int64, mkClient func() Client,
	opts ...sim.Option) ([]int64, *sim.Result, error) {

	sink := MaxDegreeNode(g)
	e := sim.New(g, opts...)
	prog := RandomOrderProgram(g, labels, sink, g.N(), mkClient)
	res, err := e.Run(func(c *sim.Ctx) { prog(c) })
	if err != nil {
		return nil, res, err
	}
	out := res.Outputs[sink][0].([]int64)
	return out, res, nil
}
