// Package trianglestats implements the paper's combined end-to-end
// application (§1.2.2): identify the frequent monochromatic triangles
// of an edge-colored graph and report their per-color frequencies, by
// composing the μ-CONGEST triangle listing (Theorem 1.2) with a
// fully-mergeable heavy-hitters simulation (Theorem 1.7, Misra–Gries)
// and the exact-count BFS refinement.
//
// Round complexity: n^(1+o(1))/√μ for the listing plus
// O(log m·(ε⁻¹·log(Δε⁻¹/μ) + D)) for the statistics, with
// μ = Ω(Δ + ε⁻¹) — the expression stated at the end of §1.2.2.
package trianglestats

import (
	"sort"

	"mucongest/internal/clique"
	"mucongest/internal/graph"
	"mucongest/internal/mergesim"
	"mucongest/internal/sim"
	"mucongest/internal/sketch"
)

// Config parameterizes the pipeline.
type Config struct {
	G      *graph.Graph
	Colors map[[2]int]int64 // edge -> color in [1, c]
	Mu     int64
	Eps    float64 // heavy-hitter threshold: colors with ≥ ε·T triangles
	Seed   int64
}

// Result reports the heavy monochromatic colors with exact triangle
// counts, plus the round totals of each stage and the aggregate
// message/memory footprint across the stages.
type Result struct {
	TotalTriangles int
	MonoTriangles  int64
	HeavyColors    []int64
	ExactCounts    map[int64]int64
	ListingRounds  int
	SketchRounds   int
	RefineRounds   int
	// Messages is the total delivered across all stages; PeakWords is
	// the largest per-node memory peak any stage reached.
	Messages  int64
	PeakWords int64
	// MuViolations and OverMuRounds sum the stages' violating nodes and
	// (node, round) pairs over μ.
	MuViolations int
	OverMuRounds int
}

// monochrome returns the color if all three edges share it, else 0.
func monochrome(cfg *Config, t clique.Clique) int64 {
	c1 := cfg.Colors[[2]int{t[0], t[1]}]
	c2 := cfg.Colors[[2]int{t[0], t[2]}]
	c3 := cfg.Colors[[2]int{t[1], t[2]}]
	if c1 != 0 && c1 == c2 && c2 == c3 {
		return c1
	}
	return 0
}

// Run executes the pipeline: (1) list all triangles in μ-CONGEST; each
// triangle's monochromatic color becomes a stream item at the unique
// lowest-id detecting node (the paper's "each subgraph detected by
// exactly one node" convention, enforced by deduplication); (2) the
// Misra–Gries fully-mergeable simulation estimates per-color triangle
// frequencies to within ε·T; (3) candidates above (2/3)ε·T are counted
// exactly over a BFS tree.
func Run(cfg Config) (*Result, error) {
	// Stage 1: triangle listing.
	tris, listRes, err := clique.RunMuCongestTriangles(clique.MuTriangleConfig{
		G: cfg.G, Mu: cfg.Mu,
	}, sim.WithSeed(cfg.Seed))
	if err != nil {
		return nil, err
	}
	// Per-triangle items at the lowest-id corner.
	items := make([][]int64, cfg.G.N())
	var mono int64
	for _, t := range tris {
		if col := monochrome(&cfg, t); col != 0 {
			items[t[0]] = append(items[t[0]], col)
			mono++
		}
	}
	// Stage 2: fully-mergeable MG heavy hitters with k = ⌈3/ε⌉.
	k := int(3.0/cfg.Eps) + 1
	kind := sketch.NewMGKind(k)
	sum, sketchRes, err := mergesim.RunFully(cfg.G, items, kind, cfg.Mu, sim.WithSeed(cfg.Seed+1))
	if err != nil {
		return nil, err
	}
	mg := sum.(*sketch.MG)
	thresh := int64(2.0 / 3.0 * cfg.Eps * float64(mono))
	candidates := mg.Heavy(thresh)
	stages := []*sim.Result{listRes, sketchRes}
	// Stage 3: exact counts of the candidates over a BFS tree.
	var exact map[int64]int64
	var refineRounds int
	if len(candidates) > 0 {
		counts, refineRes, err := mergesim.RunExactCounts(cfg.G, items, candidates, sim.WithSeed(cfg.Seed+2))
		if err != nil {
			return nil, err
		}
		refineRounds = refineRes.Rounds
		stages = append(stages, refineRes)
		exact = make(map[int64]int64, len(candidates))
		for i, col := range candidates {
			exact[col] = counts[i]
		}
	}
	// Final heavy set: colors with exact count ≥ ε·T.
	final := int64(cfg.Eps * float64(mono))
	var heavy []int64
	for col, cnt := range exact {
		if cnt >= final {
			heavy = append(heavy, col)
		}
	}
	sort.Slice(heavy, func(i, j int) bool { return heavy[i] < heavy[j] })
	res := &Result{
		TotalTriangles: len(tris),
		MonoTriangles:  mono,
		HeavyColors:    heavy,
		ExactCounts:    exact,
		ListingRounds:  listRes.Rounds,
		SketchRounds:   sketchRes.Rounds,
		RefineRounds:   refineRounds,
	}
	for _, st := range stages {
		res.add(st)
	}
	return res, nil
}

// add folds one stage run into the cross-stage totals.
func (r *Result) add(st *sim.Result) {
	r.Messages += st.Messages
	r.PeakWords = max(r.PeakWords, st.MaxPeakWords())
	r.MuViolations += len(st.Violations)
	r.OverMuRounds += st.OverMuRounds()
}
