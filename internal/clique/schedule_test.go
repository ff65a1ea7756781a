package clique

import (
	"math/rand"
	"testing"

	"mucongest/internal/congest"
	"mucongest/internal/graph"
	"mucongest/internal/sim"
)

// TestScheduleAppendPacketsAllocs pins the per-block walk, which every
// node runs once per block, allocation-free: warm calls into an out
// with room for the most packets any node ships in a block allocate
// nothing. It covers E1/E2's plans (one lister per universe) and E3's
// shape (several listers, buckets of uneven sizes, one of them empty).
func TestScheduleAppendPacketsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	g := graph.Gnp(20, 0.5, rand.New(rand.NewSource(1)))
	n := g.N()
	rows := make([][]int, n)
	for v := range n {
		rows[v] = g.Neighbors(v)
	}
	buckets := newSchedule(n)
	buckets.add([]int{3, 7, 11}, [][]int{{0, 4, 9, 13}, {1, 2, 19}, {}, {5, 6, 8, 10, 12, 14}, {3, 7, 15}}, 3)
	for _, tc := range []struct {
		name string
		plan *schedule
	}{{"k=3", newCCPlan(n, 3, 20)}, {"k=4", newCCPlan(n, 4, 20)}, {"buckets", buckets}} {
		most := 0
		for blk := range tc.plan.blocks {
			for v := range n {
				most = max(most, len(tc.plan.appendPackets(nil, blk, v, rows[v])))
			}
		}
		if most == 0 {
			t.Fatalf("%s: no node ships a packet", tc.name)
		}
		out := make([]congest.Packet, 0, most)
		allocs := testing.AllocsPerRun(3, func() {
			for blk := range tc.plan.blocks {
				for v := range n {
					out = tc.plan.appendPackets(out[:0], blk, v, rows[v])
				}
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %.0f allocations over %d blocks", tc.name, allocs, tc.plan.blocks)
		}
	}
}

// TestListersEmitSortedCliques checks what CollectTriangles relies on:
// E1/E2's and E3's listers emit every clique in strictly ascending node
// order. E3 runs twice: on the dense graph its routed batches list most
// triangles, and on the sparse one its low-degree phase does.
func TestListersEmitSortedCliques(t *testing.T) {
	g := graph.Gnp(20, 0.5, rand.New(rand.NewSource(2)))
	sparse := graph.Gnp(30, 0.2, rand.New(rand.NewSource(2)))
	_, k3 := runCC(t, g, 3, 40)
	_, k4 := runCC(t, g, 4, 40)
	_, e3, err := RunMuCongestTriangles(MuTriangleConfig{G: g, Mu: 40}, sim.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	_, e3Sparse, err := RunMuCongestTriangles(MuTriangleConfig{G: sparse, Mu: 60}, sim.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range []struct {
		name string
		res  *sim.Result
	}{{"E1/E2 k=3", k3}, {"E1/E2 k=4", k4}, {"E3", e3}, {"E3 sparse", e3Sparse}} {
		name, emitted := run.name, 0
		for v, outs := range run.res.Outputs {
			for _, o := range outs {
				cl := o.(Clique)
				for i := 1; i < len(cl); i++ {
					if cl[i-1] >= cl[i] {
						t.Fatalf("%s: node %d emitted %v, not in ascending order", name, v, cl)
					}
				}
				emitted++
			}
		}
		if emitted == 0 {
			t.Fatalf("%s: no clique emitted", name)
		}
	}
}
