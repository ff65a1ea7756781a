package sim_test

import (
	"fmt"
	"testing"

	"mucongest/internal/graph"
	"mucongest/internal/sim"
	"mucongest/internal/sim/refsim"
)

// TestBadPortErrorIsTopologyIndependent pins the error a node gets for a
// port outside [0, Degree()): Ctx.Send and Ctx.Neighbor check the port
// before metering or asking the topology, so every representation —
// explicit, CSR and implicit — fails with the same message, and the
// reference engine with it.
func TestBadPortErrorIsTopologyIndependent(t *testing.T) {
	topos := []struct {
		name string
		topo sim.Topology
	}{
		{"graph", graph.Cycle(6)},
		{"csr", graph.CycleCSR(6)},
		{"complete", sim.NewComplete(5)},
		{"grid", sim.NewGrid(2, 3)},
		{"torus", sim.NewTorus(3, 3)},
		{"hypercube", sim.NewHypercube(3)},
	}
	calls := []struct {
		name string
		call func(c sim.Node, port int)
	}{
		{"Send", func(c sim.Node, port int) { c.Send(port, sim.Msg{Kind: 1}) }},
		{"Neighbor", func(c sim.Node, port int) { c.Neighbor(port) }},
	}
	const bad = 1
	for _, tp := range topos {
		deg := tp.topo.Degree(bad)
		for _, call := range calls {
			for _, port := range []int{-1, deg, deg + 7} {
				prog := func(c sim.Node) {
					if c.ID() == bad {
						call.call(c, port)
					}
					c.Tick()
				}
				want := fmt.Sprintf("sim: node %d panicked: sim: node %d has no port %d (degree %d)", bad, bad, port, deg)
				_, err := sim.New(tp.topo).Run(func(c *sim.Ctx) { prog(c) })
				if fmt.Sprint(err) != want {
					t.Errorf("%s %s(%d): engine err = %v, want %q", tp.name, call.name, port, err, want)
				}
				_, refErr := refsim.New(tp.topo, refsim.Config{}).Run(prog)
				if fmt.Sprint(refErr) != want {
					t.Errorf("%s %s(%d): refsim err = %v, want %q", tp.name, call.name, port, refErr, want)
				}
			}
		}
	}
}
