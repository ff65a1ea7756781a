package trianglestats

import (
	"math/rand"
	"testing"

	"mucongest/internal/clique"
	"mucongest/internal/graph"
	"mucongest/internal/sim"
)

// TestResultSumsStages checks the cross-stage totals E10's record
// reads: messages and μ violations add up over the stage runs, and
// the peak is the largest stage peak.
func TestResultSumsStages(t *testing.T) {
	var r Result
	r.add(&sim.Result{Messages: 10, PeakWords: []int64{3, 9},
		Violations: []sim.Violation{{Node: 1, OverRounds: 4}}})
	r.add(&sim.Result{Messages: 5, PeakWords: []int64{7}})
	r.add(&sim.Result{Messages: 1, PeakWords: []int64{2},
		Violations: []sim.Violation{{Node: 0, OverRounds: 1}, {Node: 1, OverRounds: 2}}})
	if r.Messages != 16 || r.PeakWords != 9 || r.MuViolations != 3 || r.OverMuRounds != 7 {
		t.Fatalf("totals = messages %d, peak %d, violations %d, over-μ rounds %d; want 16, 9, 3, 7",
			r.Messages, r.PeakWords, r.MuViolations, r.OverMuRounds)
	}
}

func TestPipelineFindsHeavyColors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Color 1 dominates: most edges share it, so most monochromatic
	// triangles are color 1.
	g := graph.Gnp(36, 0.5, rng)
	colors := graph.ColorEdges(g, 6, []float64{20, 1, 1, 1, 1, 1}, rng)
	res, err := Run(Config{G: g, Colors: colors, Mu: int64(2 * g.N()), Eps: 0.2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Ground truth.
	truth := map[int64]int64{}
	var mono int64
	for _, tri := range clique.ListAll(g, 3) {
		c1 := colors[[2]int{tri[0], tri[1]}]
		c2 := colors[[2]int{tri[0], tri[2]}]
		c3 := colors[[2]int{tri[1], tri[2]}]
		if c1 == c2 && c2 == c3 {
			truth[c1]++
			mono++
		}
	}
	if res.MonoTriangles != mono {
		t.Fatalf("monochromatic count %d want %d", res.MonoTriangles, mono)
	}
	thresh := int64(0.2 * float64(mono))
	for col, cnt := range truth {
		isHeavy := cnt >= thresh
		found := false
		for _, h := range res.HeavyColors {
			if h == col {
				found = true
			}
		}
		if isHeavy && !found {
			t.Fatalf("heavy color %d (count %d ≥ %d) missed; got %v",
				col, cnt, thresh, res.HeavyColors)
		}
	}
	// Exact counts must match truth for reported colors.
	for col, cnt := range res.ExactCounts {
		if truth[col] != cnt {
			t.Fatalf("color %d exact count %d want %d", col, cnt, truth[col])
		}
	}
	if res.ListingRounds <= 0 || res.SketchRounds <= 0 {
		t.Fatal("missing round accounting")
	}
}

func TestPipelineNoMonochromatic(t *testing.T) {
	// A triangle-free graph yields no statistics and must not error.
	g := graph.Cycle(10)
	colors := map[[2]int]int64{}
	for _, e := range g.Edges() {
		colors[[2]int{e.U, e.V}] = 1
	}
	res, err := Run(Config{G: g, Colors: colors, Mu: 20, Eps: 0.25, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalTriangles != 0 || len(res.HeavyColors) != 0 {
		t.Fatalf("unexpected stats: %+v", res)
	}
}
