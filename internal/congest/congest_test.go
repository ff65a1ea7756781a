package congest

import (
	"math/rand"
	"sort"
	"testing"

	"mucongest/internal/graph"
	"mucongest/internal/sim"
)

// runAll executes program on g and fails the test on error.
func runAll(t *testing.T, g *graph.Graph, program func(*sim.Ctx), opts ...sim.Option) *sim.Result {
	t.Helper()
	e := sim.New(g, opts...)
	res, err := e.Run(program)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func testGraphs(t *testing.T) map[string]*graph.Graph {
	gnp, err := graph.GnpConnected(25, 0.25, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*graph.Graph{
		"path":    graph.Path(9),
		"cycle":   graph.Cycle(10),
		"star":    graph.Star(12),
		"gnp":     gnp,
		"cliques": graph.CycleOfCliques(3, 4),
	}
}

func TestBuildBFSTreeValid(t *testing.T) {
	for name, g := range testGraphs(t) {
		root := 0
		maxDepth := g.N()
		res := runAll(t, g, func(c *sim.Ctx) {
			tr := BuildBFSTree(c, root, maxDepth)
			c.Emit(tr)
		})
		trees := make([]*Tree, g.N())
		for v := 0; v < g.N(); v++ {
			trees[v] = res.Outputs[v][0].(*Tree)
		}
		// Validate: root depth 0, parents joined at depth-1, children
		// lists consistent, depths are true BFS distances.
		if trees[root].Depth != 0 || trees[root].Parent != -1 {
			t.Fatalf("%s: bad root record %+v", name, trees[root])
		}
		dist := bfsDistances(g, root)
		for v := 0; v < g.N(); v++ {
			tr := trees[v]
			if !tr.Joined() {
				t.Fatalf("%s: node %d never joined", name, v)
			}
			if tr.Depth != dist[v] {
				t.Fatalf("%s: node %d depth %d want %d", name, v, tr.Depth, dist[v])
			}
			if v != root {
				p := trees[tr.Parent]
				if p.Depth != tr.Depth-1 {
					t.Fatalf("%s: node %d parent depth mismatch", name, v)
				}
				found := false
				for _, ch := range p.Children {
					if ch == v {
						found = true
					}
				}
				if !found {
					t.Fatalf("%s: node %d missing from parent's children", name, v)
				}
			}
		}
		// Children lists partition V \ {root}.
		total := 0
		for v := 0; v < g.N(); v++ {
			total += len(trees[v].Children)
		}
		if total != g.N()-1 {
			t.Fatalf("%s: children total %d want %d", name, total, g.N()-1)
		}
	}
}

func bfsDistances(g *graph.Graph, root int) []int {
	dist := make([]int, g.N())
	for i := range dist {
		dist[i] = -1
	}
	dist[root] = 0
	q := []int{root}
	for len(q) > 0 {
		v := q[0]
		q = q[1:]
		for _, u := range g.Neighbors(v) {
			if dist[u] < 0 {
				dist[u] = dist[v] + 1
				q = append(q, u)
			}
		}
	}
	return dist
}

func TestConvergecastSubtreeSums(t *testing.T) {
	for name, g := range testGraphs(t) {
		maxDepth := g.N()
		res := runAll(t, g, func(c *sim.Ctx) {
			tr := BuildBFSTree(c, 0, maxDepth)
			vals := []int64{int64(c.ID()), 1, int64(c.Degree())}
			acc := Convergecast(c, tr, maxDepth, vals, OpSum)
			c.Emit(acc)
		})
		rootAcc := res.Outputs[0][0].([]int64)
		n := int64(g.N())
		wantID := n * (n - 1) / 2
		if rootAcc[0] != wantID || rootAcc[1] != n || rootAcc[2] != 2*int64(g.M()) {
			t.Fatalf("%s: root aggregates %v want [%d %d %d]", name, rootAcc, wantID, n, 2*g.M())
		}
	}
}

func TestConvergecastMaxMin(t *testing.T) {
	g := graph.Path(7)
	res := runAll(t, g, func(c *sim.Ctx) {
		tr := BuildBFSTree(c, 3, g.N())
		mx := Convergecast(c, tr, g.N(), []int64{int64(c.ID() * c.ID())}, OpMax)
		mn := Convergecast(c, tr, g.N(), []int64{int64(c.ID() - 3)}, OpMin)
		c.Emit([2]int64{mx[0], mn[0]})
	})
	got := res.Outputs[3][0].([2]int64)
	if got[0] != 36 || got[1] != -3 {
		t.Fatalf("max/min = %v", got)
	}
}

func TestBroadcastDown(t *testing.T) {
	for name, g := range testGraphs(t) {
		maxDepth := g.N()
		want := []int64{17, -4, 99, 123456}
		res := runAll(t, g, func(c *sim.Ctx) {
			tr := BuildBFSTree(c, 0, maxDepth)
			var vals []int64
			if c.ID() == 0 {
				vals = want
			} else {
				vals = make([]int64, len(want)) // ignored at non-roots
			}
			got := BroadcastDown(c, tr, maxDepth, len(want), vals)
			c.Emit(got)
		})
		for v := 0; v < g.N(); v++ {
			got := res.Outputs[v][0].([]int64)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: node %d got %v", name, v, got)
				}
			}
		}
	}
}

func TestAggregateAllHelpers(t *testing.T) {
	g := graph.Cycle(9)
	res := runAll(t, g, func(c *sim.Ctx) {
		tr := BuildBFSTree(c, 4, g.N())
		s := SumAll(c, tr, g.N(), 2)
		mx := MaxAll(c, tr, g.N(), int64(c.ID()))
		mn := MinAll(c, tr, g.N(), int64(10+c.ID()))
		c.Emit([3]int64{s, mx, mn})
	})
	for v := 0; v < g.N(); v++ {
		got := res.Outputs[v][0].([3]int64)
		if got != [3]int64{18, 8, 10} {
			t.Fatalf("node %d got %v", v, got)
		}
	}
}

func TestConvergecastPipelinedRounds(t *testing.T) {
	// Lemma B.4 promises O(x + D) rounds: verify the x=64 aggregation on
	// a path of length 16 takes far fewer rounds than x·D.
	g := graph.Path(17)
	maxDepth := 16
	x := 64
	res := runAll(t, g, func(c *sim.Ctx) {
		tr := BuildBFSTree(c, 0, maxDepth)
		vals := make([]int64, x)
		for i := range vals {
			vals[i] = int64(c.ID() + i)
		}
		Convergecast(c, tr, maxDepth, vals, OpSum)
	})
	treeRounds := 2 * (maxDepth + 2)
	aggRounds := res.Rounds - treeRounds
	if aggRounds > maxDepth+x+2 {
		t.Fatalf("convergecast used %d rounds, want ≤ %d (pipelining broken)", aggRounds, maxDepth+x+2)
	}
}

func TestDegreeClass(t *testing.T) {
	cases := map[int]int{0: 0, 1: 0, 2: 1, 3: 1, 4: 2, 7: 2, 8: 3, 1023: 9, 1024: 10}
	for deg, want := range cases {
		if got := DegreeClass(deg); got != want {
			t.Fatalf("DegreeClass(%d) = %d want %d", deg, got, want)
		}
	}
}

func TestDegreeClassRelabel(t *testing.T) {
	for name, g := range testGraphs(t) {
		maxDepth := g.N()
		res := runAll(t, g, func(c *sim.Ctx) {
			tr := BuildBFSTree(c, 0, maxDepth)
			rl := DegreeClassRelabel(c, tr, maxDepth, c.Degree())
			c.Emit(rl)
		})
		n := g.N()
		ids := make([]int, 0, n)
		for v := 0; v < n; v++ {
			rl := res.Outputs[v][0].(*Relabeling)
			ids = append(ids, int(rl.NewID))
			// The new id's class (computed from the histogram) must match
			// the node's actual degree class.
			if got, want := rl.ClassOfNewID(rl.NewID), DegreeClass(g.Degree(v)); got != want {
				t.Fatalf("%s: node %d new id %d classed %d want %d", name, v, rl.NewID, got, want)
			}
		}
		sort.Ints(ids)
		for i, id := range ids {
			if id != i {
				t.Fatalf("%s: new ids not a permutation: %v", name, ids)
			}
		}
		// Histogram must match reality.
		rl := res.Outputs[0][0].(*Relabeling)
		wantHist := make([]int64, rl.NumClasses)
		for v := 0; v < n; v++ {
			wantHist[DegreeClass(g.Degree(v))]++
		}
		for j := range wantHist {
			if rl.Hist[j] != wantHist[j] {
				t.Fatalf("%s: hist[%d] = %d want %d", name, j, rl.Hist[j], wantHist[j])
			}
		}
	}
}

func TestRelabelRoundsLinearInDepthPlusLog(t *testing.T) {
	g := graph.Path(33)
	maxDepth := 32
	res := runAll(t, g, func(c *sim.Ctx) {
		tr := BuildBFSTree(c, 0, maxDepth)
		DegreeClassRelabel(c, tr, maxDepth, c.Degree())
	})
	// Tree 2(D+2), convergecast D+C, broadcast D+C, assignment 2D+C+3.
	// With D=32 and C≈7 this is well under 220; a per-class sequential
	// implementation would need ≥ C·D ≈ 224 for the assignment alone.
	if res.Rounds > 220 {
		t.Fatalf("relabel used %d rounds; pipelining regressed", res.Rounds)
	}
}

// TestBFSTreeSingleNode pins the degenerate tree: a one-node graph with
// maxDepth 0 must produce a root-only tree without panicking — the
// join/ack alternation has no edges to use, but the subroutine must
// still run its fixed round schedule and terminate.
func TestBFSTreeSingleNode(t *testing.T) {
	g := graph.Path(1)
	res := runAll(t, g, func(c *sim.Ctx) {
		tr := BuildBFSTree(c, 0, 0)
		c.Emit(tr)
	})
	tr := res.Outputs[0][0].(*Tree)
	if !tr.Joined() || tr.Root != 0 || tr.Parent != -1 || tr.Depth != 0 || len(tr.Children) != 0 {
		t.Fatalf("single-node tree malformed: %+v", tr)
	}
	if res.Messages != 0 {
		t.Fatalf("single-node tree sent %d messages", res.Messages)
	}
}

// TestRelabelSingleNodeIdentity pins the degenerate relabeling: on a
// one-node graph the pipeline (convergecast, broadcast, doubly
// pipelined assignment) collapses to the root acting alone, and the
// result must be the identity: new id 0 in class 0 with a one-entry
// histogram.
func TestRelabelSingleNodeIdentity(t *testing.T) {
	g := graph.Path(1)
	res := runAll(t, g, func(c *sim.Ctx) {
		tr := BuildBFSTree(c, 0, 0)
		c.Emit(DegreeClassRelabel(c, tr, 0, c.Degree()))
	})
	rl := res.Outputs[0][0].(*Relabeling)
	if rl.NewID != 0 {
		t.Fatalf("single node relabeled to %d, want identity 0", rl.NewID)
	}
	if got, want := rl.ClassOfNewID(0), DegreeClass(0); got != want {
		t.Fatalf("class of new id 0 = %d, want %d", got, want)
	}
	var total int64
	for _, h := range rl.Hist {
		total += h
	}
	if total != 1 {
		t.Fatalf("histogram sums to %d over %v, want 1", total, rl.Hist)
	}
}

// TestRelabelUniformDegreePermutation pins the uniform-degree case: on
// a cycle every node shares degree class 1 (⌊log₂ 2⌋), so the
// relabeling must be a plain permutation of 0..n-1 inside one class —
// the closest a multi-node relabel comes to an identity.
func TestRelabelUniformDegreePermutation(t *testing.T) {
	const n = 10
	g := graph.Cycle(n)
	maxDepth := n
	res := runAll(t, g, func(c *sim.Ctx) {
		tr := BuildBFSTree(c, 0, maxDepth)
		c.Emit(DegreeClassRelabel(c, tr, maxDepth, c.Degree()))
	})
	ids := make([]int, 0, n)
	for v := 0; v < n; v++ {
		rl := res.Outputs[v][0].(*Relabeling)
		if got := rl.ClassOfNewID(rl.NewID); got != 1 {
			t.Fatalf("node %d (degree 2) classed %d, want 1", v, got)
		}
		if rl.Hist[1] != n {
			t.Fatalf("node %d histogram %v, want all %d nodes in class 1", v, rl.Hist, n)
		}
		ids = append(ids, int(rl.NewID))
	}
	sort.Ints(ids)
	for i, id := range ids {
		if id != i {
			t.Fatalf("new ids not a permutation of 0..%d: %v", n-1, ids)
		}
	}
}

// OpMin is the minimum combiner.
func OpMin(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// MinAll returns the network-wide minimum of val at every node.
func MinAll(c sim.Node, t *Tree, maxDepth int, val int64) int64 {
	return AggregateAll(c, t, maxDepth, val, OpMin)
}
