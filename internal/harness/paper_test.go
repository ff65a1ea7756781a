package harness

import (
	"math/rand"
	"testing"

	"mucongest/internal/bench"
	"mucongest/internal/clique"
	"mucongest/internal/expander"
	"mucongest/internal/graph"
	"mucongest/internal/mergesim"
	"mucongest/internal/sim"
	"mucongest/internal/sim/refsim"
	"mucongest/internal/sketch"
	"mucongest/internal/stream"
	"mucongest/internal/streamsim"
)

// paperCase is a small instance of one experiment cell's node program.
type paperCase struct {
	name string
	exps []string // the experiment ids of bench.Specs the cell reproduces
	topo sim.Topology
	// edgeCap is the per-edge budget the cell runs with; faults the
	// fault plan (loss only: see paperCases).
	edgeCap int
	faults  string
	// program builds the node program for one run. Constructors own
	// state every node shares — routers, plans, the root's result slot —
	// so each run builds its own, once, never once per node.
	program func() func(sim.Node)
}

// paperMu is the engine's μ on the paper axis: tight enough that every
// cell's input adjacency or summary buffers overrun it, so the
// violation records are compared too. The algorithms keep their own
// planning μ; the runs are lenient, so an overrun is recorded, not
// fatal.
const paperMu = 10

// paperCases returns the paper axis: one small instance of every
// experiment cell's node program, from the same constructors the cells
// call. E10's listing and sketch stages are E3's and E8's programs;
// its case is the stage only E10 runs, the exact-count refinement.
//
// Crash and edge-churn faults stay out. The congest.Router that both
// E1/E2 and the μ-CONGEST listing route through, and that listing's
// plan, are shared between nodes and assume every node calls them at
// the same point, which a crash breaks. E13's aggregation shares
// nothing and runs under loss, as its cell does, on the tree
// mergesim.BFSTree derives for it.
func paperCases() []paperCase {
	rng := rand.New(rand.NewSource(17))
	connected := func(n int, p float64) *graph.Graph {
		g, err := graph.GnpConnected(n, p, rng)
		if err != nil {
			panic(err)
		}
		return g
	}
	itemsOf := func(n, per int, universe int64) [][]int64 {
		items := make([][]int64, n)
		for v := range items {
			for i := 0; i < per; i++ {
				items[v] = append(items[v], 1+rng.Int63n(universe))
			}
		}
		return items
	}
	labelsOf := func(g *graph.Graph) map[[2]int]int64 {
		labels := map[[2]int]int64{}
		for i, e := range g.Edges() {
			labels[[2]int{e.U, e.V}] = int64(i%7 + 1)
		}
		return labels
	}

	cc := graph.Gnp(12, 0.5, rng)
	tri := graph.Gnp(14, 0.5, rng)
	cyc := graph.CycleOfCliques(3, 4)
	hub := graph.HubAndBlob(10, 0.4, rng)
	tree := connected(14, 0.25)
	treeItems := itemsOf(tree.N(), 6, 30)
	depth, parent, children, maxDepth := mergesim.BFSTree(tree)
	mg := sketch.NewMGKind(3)

	return []paperCase{
		{"E1/E2 k=3", []string{"E1", "E2"}, sim.NewComplete(cc.N()), 1, "", func() func(sim.Node) {
			return clique.CongestedCliqueKCliques(cc, 3, int64(cc.N()), clique.NewOracleRouter(cc.N()))
		}},
		{"E3", []string{"E3"}, tri, 1, "", func() func(sim.Node) {
			cfg := clique.MuTriangleConfig{G: tri, Mu: int64(tri.N())}
			return clique.MuCongestTriangles(cfg, expander.NewRouter(tri, 1))
		}},
		{"E4/E5 naive", []string{"E4", "E5"}, cyc, 1, "", func() func(sim.Node) {
			mk := func() streamsim.Client { return streamsim.NewMultipassSelect(1, 0, 7, 2, 2) }
			return streamsim.PPassProgram(cyc, labelsOf(cyc), mk, false)
		}},
		{"E4/E5 cached", []string{"E4", "E5"}, cyc, 1, "", func() func(sim.Node) {
			mk := func() streamsim.Client { return streamsim.NewMultipassSelect(1, 0, 7, 2, 2) }
			return streamsim.PPassProgram(cyc, labelsOf(cyc), mk, true)
		}},
		{"E6", []string{"E6"}, hub, 1, "", func() func(sim.Node) {
			mk := func() streamsim.Client { return streamsim.NewRecorder(2) }
			return streamsim.RandomOrderProgram(hub, labelsOf(hub), mk)
		}},
		{"E7", []string{"E7"}, tree, 1, "", func() func(sim.Node) {
			kind := sketch.NewGKKind(0.2, mergesim.TotalItems(treeItems))
			return mergesim.OneWayProgram(treeItems, kind)
		}},
		{"E8", []string{"E8"}, tree, 1, "", func() func(sim.Node) {
			return mergesim.FullyProgram(treeItems, mg, tree.MaxDegree(), int64(4*mg.M()))
		}},
		{"E9", []string{"E9"}, tree, 1, "", func() func(sim.Node) {
			return mergesim.ComposableProgram(treeItems, sketch.NewCRPrecisKind(31, 2))
		}},
		{"E10 refine", []string{"E10"}, tree, 1, "", func() func(sim.Node) {
			return mergesim.ExactCountProgram(treeItems, []int64{1, 2, 3})
		}},
		{"E11/E12 alpha=2", []string{"E11", "E12"}, tri, 1, "", func() func(sim.Node) {
			cfg := clique.MuTriangleConfig{G: tri, Mu: int64(tri.N()), Alpha: 2}
			return clique.MuCongestTriangles(cfg, expander.NewRouter(tri, 2))
		}},
		{"E13 MG", []string{"E13"}, tree, mg.M(), "loss:p=0.1", func() func(sim.Node) {
			sums := make([]stream.Summary, tree.N())
			return mergesim.LossyTreeProgram(mg, treeItems, depth, parent, children, maxDepth, sums)
		}},
	}
}

// TestPaperWorkloadsDifferential is the paper-workload axis: every
// experiment cell's node program, at test scale, runs on the reference
// engine and on the production engine at workers 1 and 4 under every
// inbox order, and the results must agree field by field — rounds,
// message and drop totals, the fault ledger, every node's outputs and
// peak, and the violation records. A cell of bench.Specs without a case
// fails the test, so a new experiment joins the oracle with its cell.
func TestPaperWorkloadsDifferential(t *testing.T) {
	covered := map[string]bool{}
	violated := 0
	for _, pc := range paperCases() {
		for _, id := range pc.exps {
			covered[id] = true
		}
		plan, err := sim.ParseFaults(pc.faults)
		if err != nil {
			t.Fatalf("%s: %v", pc.name, err)
		}
		for o := sim.OrderBySender; o <= sim.OrderReversed; o++ {
			cfg := refsim.Config{Mu: paperMu, Seed: 5, EdgeCap: pc.edgeCap, Order: o, Faults: plan}
			refRes, refErr := refsim.New(pc.topo, cfg).Run(pc.program())
			run := func(e *sim.Engine) (*sim.Result, error) {
				prog := pc.program()
				return e.Run(func(c *sim.Ctx) { prog(c) })
			}
			if err := matchEngine(pc.topo, cfg, refRes, refErr, run, []int{1, 4}, ""); err != nil {
				t.Errorf("%s order=%d: %v", pc.name, o, err)
				continue
			}
			if refErr != nil {
				t.Errorf("%s order=%d: both engines failed the run: %v", pc.name, o, refErr)
			}
			t.Logf("%s order=%d: rounds=%d messages=%d faultDrops=%d violations=%d",
				pc.name, o, refRes.Rounds, refRes.Messages, refRes.FaultDrops, len(refRes.Violations))
			if len(refRes.Violations) > 0 {
				violated++
			}
			if plan.Loss && refRes.FaultDrops == 0 {
				t.Errorf("%s order=%d: the loss plan dropped nothing", pc.name, o)
			}
		}
	}
	for _, id := range bench.ExperimentIDs(bench.Specs()) {
		if !covered[id] {
			t.Errorf("experiment %s has no case on the paper axis", id)
		}
	}
	if violated == 0 {
		t.Errorf("no paper case overran μ=%d; the violation records went unchecked", paperMu)
	}
}
