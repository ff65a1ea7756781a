package congest

import (
	"slices"
	"strings"
	"testing"

	"mucongest/internal/graph"
	"mucongest/internal/sim"
)

var inboxOrders = []sim.InboxOrder{sim.OrderBySender, sim.OrderRandom, sim.OrderReversed}

// gatherUp is node v's up in the Gather tests: k messages whose
// payload names their source and index, C = 100·A + B.
func gatherUp(v, k int) []sim.Msg {
	up := make([]sim.Msg, k)
	for i := range up {
		up[i] = sim.Msg{A: int64(v), B: int64(i), C: int64(100*v + i)}
	}
	return up
}

// payloads returns the C of each message, after checking that A and B
// rode along with it.
func payloads(t *testing.T, ms []sim.Msg) []int64 {
	t.Helper()
	out := make([]int64, len(ms))
	for i, m := range ms {
		if m.C != 100*m.A+m.B {
			t.Fatalf("payload %+v lost its A or B", m)
		}
		out[i] = m.C
	}
	return out
}

// gatherView is one node's side of a Gather run.
type gatherView struct {
	tree            *Tree
	absorbed, dealt []sim.Msg
}

// runGather builds the BFS tree rooted at node 0 and runs one Gather in
// which every node sends perNode messages and the nodes absorber
// accepts absorb.
func runGather(t *testing.T, g *graph.Graph, perNode int, absorber func(v int) bool,
	deal bool, opts ...sim.Option) ([]gatherView, *sim.Result) {
	t.Helper()
	res := runAll(t, g, func(c *sim.Ctx) {
		var view gatherView
		var absorb func(sim.Msg)
		if absorber(c.ID()) {
			absorb = func(m sim.Msg) { view.absorbed = append(view.absorbed, m) }
		}
		view.tree = BuildBFSTree(c, 0, g.N())
		view.dealt = Gather(c, view.tree, g.N(), gatherUp(c.ID(), perNode), absorb, deal)
		c.Emit(view)
	}, opts...)
	views := make([]gatherView, g.N())
	for v := range views {
		views[v] = res.Outputs[v][0].(gatherView)
	}
	return views, res
}

// TestGatherAbsorbersBelowRoot runs Gather in mergesim's shape: each
// absorber below the root receives exactly the messages of its subtree
// that no deeper absorber took, and the root receives the rest.
func TestGatherAbsorbersBelowRoot(t *testing.T) {
	const perNode = 3
	absorber := func(v int) bool { return v%3 == 0 }
	for name, g := range testGraphs(t) {
		for _, order := range inboxOrders {
			views, _ := runGather(t, g, perNode, absorber, false, sim.WithInboxOrder(order))
			want := make([][]int64, g.N())
			for v := range views {
				a := v
				for !absorber(a) {
					a = views[a].tree.Parent
				}
				want[a] = append(want[a], payloads(t, gatherUp(v, perNode))...)
			}
			for v, view := range views {
				got := payloads(t, view.absorbed)
				slices.Sort(got)
				slices.Sort(want[v])
				if !slices.Equal(got, want[v]) {
					t.Fatalf("%s, order %d: node %d absorbed %v, want %v", name, order, v, got, want[v])
				}
				if len(view.dealt) != 0 {
					t.Fatalf("%s, order %d: node %d was dealt %d messages without deal", name, order, v, len(view.dealt))
				}
			}
		}
	}
}

// TestGatherDeal checks the root's deal: its children together receive
// every absorbed message, the j-th to child j mod |children|, and no
// round puts two messages on one edge (an edge cap of 1 fails the run
// otherwise).
func TestGatherDeal(t *testing.T) {
	const perNode = 4
	for name, g := range testGraphs(t) {
		for _, order := range inboxOrders {
			views, _ := runGather(t, g, perNode, func(v int) bool { return v == 0 }, true,
				sim.WithInboxOrder(order), sim.WithEdgeCap(1))
			root := views[0]
			if len(root.absorbed) != perNode*g.N() {
				t.Fatalf("%s, order %d: root absorbed %d messages, want %d", name, order, len(root.absorbed), perNode*g.N())
			}
			absorbed := payloads(t, root.absorbed)
			kids := root.tree.Children
			for v, view := range views {
				var want []int64
				if i := slices.Index(kids, v); i >= 0 {
					for j := i; j < len(absorbed); j += len(kids) {
						want = append(want, absorbed[j])
					}
				}
				if got := payloads(t, view.dealt); !slices.Equal(got, want) {
					t.Fatalf("%s, order %d: node %d was dealt %v, want %v", name, order, v, got, want)
				}
			}
		}
	}
}

// TestGatherRelayPeak bounds every node's meter by Gather's charge,
// len(up)+2·|children|+8, on top of the tree's own charge (the degree)
// and one round's inbox (at most one message per edge).
func TestGatherRelayPeak(t *testing.T) {
	const perNode = 6
	for name, g := range testGraphs(t) {
		views, res := runGather(t, g, perNode, func(v int) bool { return v == 0 }, false)
		for v, view := range views {
			deg := g.Degree(v)
			bound := int64(perNode+2*len(view.tree.Children)+8) + int64(deg) + int64(deg)
			if res.PeakWords[v] > bound {
				t.Errorf("%s: node %d peaked at %d words, bound %d", name, v, res.PeakWords[v], bound)
			}
		}
	}
}

// TestGatherOutsideTreeFails runs Gather on a disconnected graph: the
// nodes the tree never reached fail with Gather's named error.
func TestGatherOutsideTreeFails(t *testing.T) {
	g, err := graph.FromEdges(5, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 3, V: 4}})
	if err != nil {
		t.Fatal(err)
	}
	_, err = sim.New(g, sim.WithMaxRounds(10000)).Run(func(c *sim.Ctx) {
		tr := BuildBFSTree(c, 0, g.N())
		Gather(c, tr, g.N(), gatherUp(c.ID(), 2), nil, false)
	})
	if err == nil || !strings.Contains(err.Error(), "congest: Gather: node 3 is not in the tree rooted at 0") {
		t.Fatalf("Gather outside the tree: err = %v, want node 3's named error", err)
	}
}
