package clique

import (
	"math"

	"mucongest/internal/congest"
	"mucongest/internal/cover"
	"mucongest/internal/graph"
	"mucongest/internal/sim"
)

// newCCPlan is the deterministic global schedule of Theorem 2.10.
// Every node computes the identical plan from (n, k, μ), so it needs no
// communication, as in the paper's proof. The nodes fall into groups of
// ⌈n/gc⌉ consecutive ids, gc = ⌊n^(1/k)⌋, whose k-multisets are the
// sets of an (n, k·⌈n/gc⌉, k) cover. Multiset t's universe U, the union
// of its groups, goes to lister t mod n with the groups of an inner
// (|U|, b, k) cover, b = max(k, ⌊√μ⌋): each of its sets holds at most b
// nodes, so its edges fit in O(μ) words.
func newCCPlan(n, k int, mu int64) *schedule {
	gc := max(1, int(math.Floor(math.Pow(float64(n), 1/float64(k)))))
	nodes := cover.New(n, k*((n+gc-1)/gc), k)
	b := max(k, int(math.Floor(math.Sqrt(float64(mu)))))
	plan := newSchedule(n)
	var uni []int
	var groups [][]int
	ms := make([]int, k)
	for t := 0; ; t++ {
		uni = nodes.AppendSet(uni[:0], ms)
		inner := cover.New(len(uni), b, k)
		groups = groups[:0]
		for j := range inner.Groups {
			lo, hi := inner.Group(j)
			groups = append(groups, uni[lo:hi])
		}
		plan.add([]int{t % n}, groups, k)
		if !cover.Next(ms, nodes.Groups) {
			return plan
		}
	}
}

// CongestedCliqueKCliques implements Theorem 2.10: deterministic
// k-clique listing in the μ-Congested-Clique in O(n^(k-2)/μ^(k/2-1))
// rounds for n ≤ μ ≤ n^(2-2/k). The returned program must be run on a
// sim.Engine over sim.NewComplete(g.N()); each node's input is its
// incident edges of g. All nodes share router (created once per run).
//
// Schedule: in block i, the lister of every group-multiset receives
// all edges inside the i-th set of its subset cover (at most ~μ edge
// words) via Lenzen routing, lists the k-cliques in that batch, emits
// them, and frees the batch.
func CongestedCliqueKCliques(g *graph.Graph, k int, mu int64, router *congest.Router) func(sim.Node) {
	plan := newCCPlan(g.N(), k, mu)
	return func(c sim.Node) {
		nbr := g.Neighbors(c.ID())
		c.Charge(int64(len(nbr))) // input adjacency
		defer c.Release(int64(len(nbr)))
		plan.run(c, router, nbr, k)
	}
}

// PredictedCCRounds returns the Theorem 2.10 bound n^(k-2)/μ^(k/2-1),
// the theory column of experiment E2.
func PredictedCCRounds(n int, k int, mu int64) float64 {
	return math.Pow(float64(n), float64(k-2)) / math.Pow(float64(mu), float64(k)/2-1)
}
