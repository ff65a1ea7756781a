package congest_test

import (
	"math/rand"
	"slices"
	"testing"

	"mucongest/internal/clique"
	"mucongest/internal/congest"
	"mucongest/internal/expander"
	"mucongest/internal/graph"
	"mucongest/internal/sim"
)

type routerCase struct {
	name   string
	topo   sim.Topology
	router func() *congest.Router
}

// routerCases are the two routers the experiments build: Lenzen routing
// on the clique (E1/E2) and expander routing on a sparse graph (E3,
// E10, E11/E12), the latter at two tradeoff parameters.
func routerCases(t *testing.T) []routerCase {
	g, err := graph.GnpConnected(16, 0.3, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	return []routerCase{
		{"lenzen", sim.NewComplete(12), func() *congest.Router { return clique.NewOracleRouter(12) }},
		{"expander α=1", g, func() *congest.Router { return expander.NewRouter(g, 1) }},
		{"expander α=3", g, func() *congest.Router { return expander.NewRouter(g, 3) }},
	}
}

// TestRouterDeliversSorted deposits every node's packets in an order
// drawn from its own RNG and checks that each node receives exactly the
// packets addressed to it, sorted by (source, A, B), under every seed.
// C carries the source, which Packet does not.
func TestRouterDeliversSorted(t *testing.T) {
	for _, rc := range routerCases(t) {
		n := rc.topo.N()
		for seed := int64(1); seed <= 3; seed++ {
			r := rc.router()
			got := make([][]congest.Packet, n)
			_, err := sim.New(rc.topo, sim.WithSeed(seed)).Run(func(c *sim.Ctx) {
				id := c.ID()
				var out []congest.Packet
				for d := 0; d < n; d++ {
					for a := 0; a < (id+d)%3; a++ {
						for b := 0; b < 2; b++ {
							out = append(out, congest.Packet{Dst: d, A: int64(a), B: int64(b), C: int64(id)})
						}
					}
				}
				c.Rand().Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
				got[id] = r.Route(c, out)
			})
			if err != nil {
				t.Fatalf("%s seed=%d: %v", rc.name, seed, err)
			}
			for v, in := range got {
				var want []congest.Packet
				for src := 0; src < n; src++ {
					for a := 0; a < (src+v)%3; a++ {
						for b := 0; b < 2; b++ {
							want = append(want, congest.Packet{Dst: v, A: int64(a), B: int64(b), C: int64(src)})
						}
					}
				}
				if !slices.Equal(in, want) {
					t.Fatalf("%s seed=%d: node %d received %v, want %v", rc.name, seed, v, in, want)
				}
			}
		}
	}
}

// TestRouterSilentInstance routes nothing: both lemmas charge no
// rounds for a silent instance, so it costs exactly the two agreement
// ticks.
func TestRouterSilentInstance(t *testing.T) {
	for _, rc := range routerCases(t) {
		r := rc.router()
		res, err := sim.New(rc.topo).Run(func(c *sim.Ctx) {
			if in := r.Route(c, nil); len(in) != 0 {
				c.Emit(len(in))
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", rc.name, err)
		}
		if res.Rounds != 2 {
			t.Errorf("%s: silent instance took %d rounds, want 2", rc.name, res.Rounds)
		}
		for v, outs := range res.Outputs {
			if len(outs) != 0 {
				t.Errorf("%s: node %d received %v packets", rc.name, v, outs)
			}
		}
	}
}

// TestRouterAcrossShards routes on more nodes than one shard holds, with
// several workers, so nodes deposit from different goroutines and node
// 0 schedules what they wrote. Under -race it checks that the round
// barrier alone orders those accesses.
func TestRouterAcrossShards(t *testing.T) {
	n := 2*sim.ShardSpan + 7
	r := clique.NewOracleRouter(n)
	res, err := sim.New(sim.NewComplete(n), sim.WithSimWorkers(4)).Run(func(c *sim.Ctx) {
		id := c.ID()
		in := r.Route(c, []congest.Packet{
			{Dst: (id + sim.ShardSpan) % n, A: int64(id)},
			{Dst: (id + 1) % n, A: int64(id)},
		})
		a, b := (id+n-sim.ShardSpan)%n, (id+n-1)%n
		if len(in) != 2 || in[0].A != int64(min(a, b)) || in[1].A != int64(max(a, b)) {
			c.Emit(in)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for v, outs := range res.Outputs {
		if len(outs) != 0 {
			t.Fatalf("node %d received %v", v, outs[0])
		}
	}
	// Load 2 on every node: ⌈2/(n−1)⌉+1 = 2 rounds after the two ticks.
	if res.Rounds != 4 {
		t.Fatalf("rounds = %d, want 4", res.Rounds)
	}
}
