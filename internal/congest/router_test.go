package congest_test

import (
	"math/rand"
	"runtime/debug"
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

// TestRouterDeliversInDepositOrder deposits every node's packets in an
// order drawn from its own RNG and checks that each node receives
// exactly the packets addressed to it in inbox order, under every seed:
// by ascending source, each source's packets in the order it deposited
// them. The batch's capacity must end at its length, so an append by
// the receiver cannot write into the router's bucket.
func TestRouterDeliversInDepositOrder(t *testing.T) {
	for _, rc := range routerCases(t) {
		n := rc.topo.N()
		for seed := int64(1); seed <= 3; seed++ {
			r := rc.router()
			sent := make([][]congest.Packet, n)
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
				sent[id] = slices.Clone(out)
				got[id] = r.Route(c, out)
			})
			if err != nil {
				t.Fatalf("%s seed=%d: %v", rc.name, seed, err)
			}
			for v, in := range got {
				var want []congest.Packet
				for _, out := range sent {
					for _, p := range out {
						if p.Dst == v {
							want = append(want, p)
						}
					}
				}
				if !slices.Equal(in, want) {
					t.Fatalf("%s seed=%d: node %d received %v, want %v", rc.name, seed, v, in, want)
				}
				if cap(in) != len(in) {
					t.Fatalf("%s seed=%d: node %d's batch has len %d, cap %d", rc.name, seed, v, len(in), cap(in))
				}
			}
		}
	}
}

// TestRouterSilentInstance routes nothing: both lemmas charge no
// rounds for a silent instance, so it costs exactly two rounds, the
// agreement tick and the one round every Route sleeps.
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
// several workers, so nodes deposit from different goroutines and the
// last to arrive schedules what they all wrote. Under -race it checks
// that the arrival counter and the round barrier order those accesses.
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
	// Load 2 on every node: the tick, then ⌈2/(n−1)⌉+1 = 2 charged
	// rounds after the one every Route sleeps.
	if res.Rounds != 4 {
		t.Fatalf("rounds = %d, want 4", res.Rounds)
	}
}

// countingNode is a node handle that counts the Tick and Idle calls a
// program makes through it and records each Idle's argument. Idle ticks
// the wrapped handle, so its rounds are not counted as Ticks.
type countingNode struct {
	sim.Node
	ticks int
	idles []int
}

func (c *countingNode) Tick() []sim.Incoming {
	c.ticks++
	//muvet:allow inboxalias(a forwarding wrapper: its caller holds the inbox under the same contract)
	return c.Node.Tick()
}

func (c *countingNode) Idle(k int) {
	c.idles = append(c.idles, k)
	c.Node.Idle(k)
}

// TestRouterOneTickOneIdle pins the shape of a Route call: one
// agreement tick, then one Idle(1+charge), whose rounds the engine
// completes after a single resume. The call takes 2+charge rounds, for
// every router and for a silent instance (charge 0).
func TestRouterOneTickOneIdle(t *testing.T) {
	for _, rc := range routerCases(t) {
		n := rc.topo.N()
		for _, silent := range []bool{false, true} {
			r := rc.router()
			nodes := make([]*countingNode, n)
			res, err := sim.New(rc.topo).Run(func(c *sim.Ctx) {
				cn := &countingNode{Node: c}
				nodes[c.ID()] = cn
				var out []congest.Packet
				if !silent {
					out = []congest.Packet{{Dst: (c.ID() + 1) % n}, {Dst: (c.ID() + 3) % n}}
				}
				r.Route(cn, out)
			})
			if err != nil {
				t.Fatalf("%s silent=%v: %v", rc.name, silent, err)
			}
			charge := res.Rounds - 2
			if silent != (charge == 0) || charge < 0 {
				t.Fatalf("%s silent=%v: %d rounds", rc.name, silent, res.Rounds)
			}
			for v, cn := range nodes {
				if cn.ticks != 1 || !slices.Equal(cn.idles, []int{1 + charge}) {
					t.Fatalf("%s silent=%v: node %d made %d ticks and Idle calls %v, want 1 tick and [%d]",
						rc.name, silent, v, cn.ticks, cn.idles, 1+charge)
				}
			}
		}
	}
}

// TestRouterBlocksInARow routes four instances in a row on more nodes
// than one shard holds, at one and at four workers, with each node
// reusing one out buffer. The loads differ per block: every node sends
// three packets, nobody sends, one node sends to all, all send to one.
// Each block must deliver exactly its own packets in deposit order, and
// the run must take Σ_b (2 + charge_b) rounds. A node copies each batch
// only once it has built its next block's packets, just before its next
// Route, so a router that rewrites a bucket before then shows here. An
// arrival counter that is not reset schedules at the wrong deposit, and
// a router that reads a deposit after Route returns sees the next
// block's packets.
func TestRouterBlocksInARow(t *testing.T) {
	n := 2*sim.ShardSpan + 7
	// Block b's packets from src, appended to out in deposit order.
	// C carries the source.
	blocks := []func(src int, out []congest.Packet) []congest.Packet{
		func(src int, out []congest.Packet) []congest.Packet {
			return append(out,
				congest.Packet{Dst: (src + 1) % n, A: 2, C: int64(src)},
				congest.Packet{Dst: (src + sim.ShardSpan) % n, A: 1, C: int64(src)},
				congest.Packet{Dst: (src + 1) % n, A: 1, B: 5, C: int64(src)})
		},
		func(_ int, out []congest.Packet) []congest.Packet { return out },
		func(src int, out []congest.Packet) []congest.Packet {
			for d := n - 1; src == 7 && d >= 0; d-- {
				out = append(out, congest.Packet{Dst: d, A: int64(d % 3), C: 7})
			}
			return out
		},
		func(src int, out []congest.Packet) []congest.Packet {
			return append(out, congest.Packet{Dst: 0, A: int64(-src), C: int64(src)})
		},
	}
	want := make([][][]congest.Packet, len(blocks))
	rounds := 0
	for b, pkts := range blocks {
		want[b] = make([][]congest.Packet, n)
		sent, recv := make([]int, n), make([]int, n)
		for src := 0; src < n; src++ {
			out := pkts(src, nil)
			sent[src] = len(out)
			for _, p := range out {
				recv[p.Dst]++
				want[b][p.Dst] = append(want[b][p.Dst], p)
			}
		}
		charge := 0
		if load := max(slices.Max(sent), slices.Max(recv)); load > 0 {
			charge = (load+n-2)/(n-1) + 1 // Lemma 2.9
		}
		rounds += 2 + charge
	}
	for _, workers := range []int{1, 4} {
		r := clique.NewOracleRouter(n)
		got := make([][][]congest.Packet, len(blocks))
		for b := range got {
			got[b] = make([][]congest.Packet, n)
		}
		res, err := sim.New(sim.NewComplete(n), sim.WithSimWorkers(workers)).Run(func(c *sim.Ctx) {
			id := c.ID()
			var out, in []congest.Packet
			for b, pkts := range blocks {
				out = pkts(id, out[:0])
				if b > 0 {
					got[b-1][id] = slices.Clone(in)
				}
				in = r.Route(c, out)
				if cap(in) != len(in) {
					c.Emit(in)
				}
			}
			got[len(blocks)-1][id] = slices.Clone(in)
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for v, outs := range res.Outputs {
			if len(outs) != 0 {
				t.Fatalf("workers=%d: node %d received a batch with spare capacity: %v", workers, v, outs[0])
			}
		}
		for b := range blocks {
			for v := range got[b] {
				if !slices.Equal(got[b][v], want[b][v]) {
					t.Fatalf("workers=%d block %d: node %d received %v, want %v", workers, b, v, got[b][v], want[b][v])
				}
			}
		}
		if res.Rounds != rounds {
			t.Errorf("workers=%d: %d rounds, want Σ(2+charge) = %d", workers, res.Rounds, rounds)
		}
	}
}

// TestRouterSteadyStateAllocs pins a routed block allocation-free once
// the router's buckets are warm: Route hands each receiving node its
// own bucket, and schedule appends into buckets it keeps. It measures
// the allocation delta between a 36-node run of B blocks and one of 2B,
// so setup and warm-up cancel. Every node receives two packets per
// block, so a per-receiver batch would cost 36 allocations a block, and
// per-call scratch in schedule or a sort closure more.
func TestRouterSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc accounting is meaningless under -race")
	}
	// A GC cycle mid-measurement evicts the engine's scratch pool, whose
	// re-setup would land in the delta.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const n, blocks = 36, 8
	var runErr error
	run := func(blocks int) {
		r := clique.NewOracleRouter(n)
		_, err := sim.New(sim.NewComplete(n)).Run(func(c *sim.Ctx) {
			id := c.ID()
			out := make([]congest.Packet, 0, 2)
			for b := 0; b < blocks; b++ {
				out = append(out[:0],
					congest.Packet{Dst: (id + 5) % n, A: int64(b)},
					congest.Packet{Dst: (id + 1) % n, A: int64(b)})
				r.Route(c, out)
			}
		})
		if err != nil && runErr == nil {
			runErr = err
		}
	}
	short := testing.AllocsPerRun(5, func() { run(blocks) })
	full := testing.AllocsPerRun(5, func() { run(2 * blocks) })
	if runErr != nil {
		t.Fatal(runErr)
	}
	if full != short {
		t.Errorf("a warm block allocates %.2f times, want 0 (short=%.0f, full=%.0f)", (full-short)/blocks, short, full)
	}
}
