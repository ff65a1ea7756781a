// Trianglecensus: the paper's combined end-to-end application (§1.2.2).
// Edges carry colors; the network lists all triangles under the μ
// memory bound (Theorem 1.2), streams each monochromatic triangle's
// color into a fully-mergeable heavy-hitters simulation (Theorem 1.7),
// and reports the per-color frequencies of the frequent monochromatic
// triangles with exact counts.
package main

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"

	"mucongest/internal/graph"
	"mucongest/internal/topo"
	"mucongest/internal/trianglestats"
)

func main() {
	rng := rand.New(rand.NewSource(12))
	g, err := topo.MustParse("gnp:n=40,p=0.45").Build(rng)
	if err != nil {
		panic(err)
	}
	colors := graph.ColorEdges(g, 8, []float64{18, 6, 2, 1, 1, 1, 1, 1}, rng)
	fmt.Printf("colored graph: n=%d m=%d Δ=%d colors=8 (planted heavy colors 1,2)\n",
		g.N(), g.M(), g.MaxDegree())

	res, err := trianglestats.Run(trianglestats.Config{
		G: g, Colors: colors, Mu: int64(2 * g.N()), Eps: 0.15, Seed: 4,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("triangles listed:        %d\n", res.TotalTriangles)
	fmt.Printf("monochromatic:           %d\n", res.MonoTriangles)
	fmt.Printf("listing rounds:          %d\n", res.ListingRounds)
	fmt.Printf("sketch rounds:           %d\n", res.SketchRounds)
	fmt.Printf("exact-refinement rounds: %d\n", res.RefineRounds)
	fmt.Printf("heavy colors (≥ ε·T):    %v\n", res.HeavyColors)
	for _, col := range slices.Sorted(maps.Keys(res.ExactCounts)) {
		fmt.Printf("  color %d: %d monochromatic triangles\n", col, res.ExactCounts[col])
	}
}
