package refsim

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"mucongest/internal/graph"
	"mucongest/internal/sim"
)

// detProgram is the mixed workload of sim's determinism regression
// suite (per-node-RNG sends, order-sensitive folds, early termination,
// memory traffic), written against the shared sim.Node contract so the
// same function body runs on either engine.
func detProgram(c sim.Node) {
	c.Charge(int64(c.ID()%3 + 1))
	for r := 0; r < 8; r++ {
		for _, u := range c.Neighbors() {
			if c.Rand().Intn(2) == 0 {
				c.SendID(u, sim.Msg{Kind: 1, A: int64(c.ID()), B: int64(r), C: c.Rand().Int63n(1 << 20)})
			}
		}
		in := c.Tick()
		var h int64
		for i, m := range in {
			h = h*1_000_003 + int64(m.From+1)*31 + m.Msg.C + int64(i+1)
		}
		c.Emit(h)
		if c.ID()%5 == 2 && r == 3 {
			return
		}
	}
}

// digestResult folds the externally visible execution record into one
// hash, identically to sim's determinism tests.
func digestResult(res *sim.Result) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "r=%d m=%d d=%d|", res.Rounds, res.Messages, res.Dropped)
	for i, out := range res.Outputs {
		fmt.Fprintf(h, "o%d:%v|", i, out)
	}
	for i, p := range res.PeakWords {
		fmt.Fprintf(h, "p%d:%d|", i, p)
	}
	return h.Sum64()
}

// TestRefsimReproducesEngineGoldens pins the reference engine to the
// golden digests recorded on the original (pre-bucketed-routing,
// pre-sharding) production engine, for every inbox order:
//
//   - Complete(12), seed 42 — the single-shard corpus from
//     TestDeterminismRegression, exercising the raw-seed shard-0 RNG
//     stream.
//   - Cycle(1536), seed 7 — the 3-shard corpus from
//     TestShardedDeterminismAcrossWorkers, exercising the splitmix64
//     per-shard stream derivation.
//
// Matching these constants proves refsim implements the exact
// μ-CONGEST semantics every engine rewrite has been certified against.
func TestRefsimReproducesEngineGoldens(t *testing.T) {
	cases := []struct {
		name   string
		topo   sim.Topology
		seed   int64
		golden map[sim.InboxOrder]uint64
	}{
		{
			name: "complete12", topo: sim.NewComplete(12), seed: 42,
			golden: map[sim.InboxOrder]uint64{
				sim.OrderBySender: 0x1869edabe99e8f71,
				sim.OrderRandom:   0x4a46a3b848ff6d9e,
				sim.OrderReversed: 0xb1ba131f94737889,
			},
		},
		{
			name: "cycle1536", topo: graph.Cycle(1536), seed: 7,
			golden: map[sim.InboxOrder]uint64{
				sim.OrderBySender: 0x5063c57af0676ab3,
				sim.OrderRandom:   0xc666c7d3c587cf4b,
				sim.OrderReversed: 0xc92d294f547ec64b,
			},
		},
		// The skewed-degree corpus of TestShardedDeterminismPowerlaw:
		// the same constants pinned there for the production engine.
		{
			name: "powerlaw1536", topo: graph.BarabasiAlbert(1536, 3, rand.New(rand.NewSource(13))), seed: 7,
			golden: map[sim.InboxOrder]uint64{
				sim.OrderBySender: 0xc407122fa3770141,
				sim.OrderRandom:   0x8466b52c996b7f7b,
				sim.OrderReversed: 0x34a9fe10e8b1bd5e,
			},
		},
	}
	for _, tc := range cases {
		for order, want := range tc.golden {
			e := New(tc.topo, Config{Seed: tc.seed, Order: order})
			res, err := e.Run(detProgram)
			if err != nil {
				t.Fatalf("%s order %v: %v", tc.name, order, err)
			}
			if got := digestResult(res); got != want {
				t.Errorf("%s order %v: digest = %#x, want engine golden %#x", tc.name, order, got, want)
			}
		}
	}
}

// TestRefsimStats checks the per-round ledger: conservation holds every
// round, the totals agree with the Result, and PeakWords dominates the
// largest delivered inbox.
func TestRefsimStats(t *testing.T) {
	e := New(sim.NewComplete(12), Config{Seed: 42})
	res, err := e.Run(detProgram)
	if err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	var delivered, dropped int64
	for r, rs := range st.PerRound {
		if rs.Sent != rs.Delivered+rs.Dropped {
			t.Errorf("round %d: sent %d != delivered %d + dropped %d", r, rs.Sent, rs.Delivered, rs.Dropped)
		}
		delivered += rs.Delivered
		dropped += rs.Dropped
	}
	if delivered != res.Messages || dropped != res.Dropped {
		t.Errorf("ledger totals (%d, %d) != result (%d, %d)", delivered, dropped, res.Messages, res.Dropped)
	}
	if res.Dropped == 0 {
		t.Error("workload should drop messages to early-finished nodes")
	}
	for v, w := range st.MaxInboxWords {
		if res.PeakWords[v] < w {
			t.Errorf("node %d: peak %d below largest delivered inbox %d", v, res.PeakWords[v], w)
		}
	}
}

// TestRefsimAbortParity runs abort scenarios on both engines directly
// and requires identical error strings and identical results for the
// rounds that completed: a strict μ abort detected at the barrier, a
// strict abort raised by Charge between barriers, a mid-run node panic,
// and the round-limit guard.
func TestRefsimAbortParity(t *testing.T) {
	scenarios := []struct {
		name    string
		program func(sim.Node)
		cfg     Config
		opts    []sim.Option
	}{
		{
			name: "strict-barrier-overrun",
			program: func(c sim.Node) {
				for r := 0; r < 6; r++ {
					c.Broadcast(sim.Msg{Kind: 1, A: int64(r)})
					c.Tick()
				}
			},
			cfg: Config{Seed: 3, Mu: 1, Strict: true},
			opts: []sim.Option{
				sim.WithSeed(3), sim.WithMu(1), sim.WithStrictMemory(),
			},
		},
		{
			name: "strict-charge-abort",
			program: func(c sim.Node) {
				for r := 0; r < 6; r++ {
					if c.ID() == 5 && r == 2 {
						c.Charge(100)
					}
					c.Tick()
				}
			},
			cfg: Config{Seed: 3, Mu: 8, Strict: true},
			opts: []sim.Option{
				sim.WithSeed(3), sim.WithMu(8), sim.WithStrictMemory(),
			},
		},
		{
			name: "node-panic",
			program: func(c sim.Node) {
				for r := 0; ; r++ {
					c.Broadcast(sim.Msg{Kind: 1})
					c.Tick()
					if r == 2 && c.ID()%4 == 1 {
						panic(fmt.Sprintf("node %d exploded", c.ID()))
					}
				}
			},
			cfg:  Config{Seed: 9},
			opts: []sim.Option{sim.WithSeed(9)},
		},
		{
			name: "max-rounds",
			program: func(c sim.Node) {
				for {
					c.Tick()
				}
			},
			cfg:  Config{Seed: 1, MaxRounds: 5},
			opts: []sim.Option{sim.WithSeed(1), sim.WithMaxRounds(5)},
		},
	}
	topo := graph.Cycle(16)
	for _, sc := range scenarios {
		ref := New(topo, sc.cfg)
		refRes, refErr := ref.Run(sc.program)
		eng := sim.New(topo, sc.opts...)
		engRes, engErr := eng.Run(func(c *sim.Ctx) { sc.program(c) })
		if refErr == nil || engErr == nil {
			t.Fatalf("%s: expected both engines to abort (ref %v, engine %v)", sc.name, refErr, engErr)
		}
		if refErr.Error() != engErr.Error() {
			t.Errorf("%s: error mismatch:\n  ref:    %v\n  engine: %v", sc.name, refErr, engErr)
		}
		if got, want := digestResult(refRes), digestResult(engRes); got != want {
			t.Errorf("%s: abort-run digest mismatch: ref %#x, engine %#x", sc.name, got, want)
		}
		if fmt.Sprint(refRes.Violations) != fmt.Sprint(engRes.Violations) {
			t.Errorf("%s: violations mismatch:\n  ref:    %v\n  engine: %v",
				sc.name, refRes.Violations, engRes.Violations)
		}
	}
}

// TestRefsimEngineReusable pins that a refsim Engine, like the
// production engine, can run repeatedly: a second Run after a strict
// abort must start from clean state (no leaked abort flag, error, or
// totals) and reproduce the first run exactly.
func TestRefsimEngineReusable(t *testing.T) {
	e := New(graph.Cycle(8), Config{Seed: 5, Mu: 1, Strict: true})
	program := func(c sim.Node) {
		for r := 0; r < 4; r++ {
			c.Broadcast(sim.Msg{Kind: 1, A: int64(r)})
			c.Tick()
		}
	}
	res1, err1 := e.Run(program)
	if err1 == nil {
		t.Fatal("expected a strict μ abort")
	}
	res2, err2 := e.Run(program)
	if err2 == nil || err2.Error() != err1.Error() {
		t.Fatalf("second run error %v, want %v", err2, err1)
	}
	if d1, d2 := digestResult(res1), digestResult(res2); d1 != d2 {
		t.Fatalf("second run digest %#x differs from first %#x", d2, d1)
	}
	if res2.Messages != res1.Messages || res2.Dropped != res1.Dropped {
		t.Fatalf("second run totals (%d, %d) differ from first (%d, %d)",
			res2.Messages, res2.Dropped, res1.Messages, res1.Dropped)
	}
	if got, want := len(e.Stats().PerRound), res2.Rounds+1; got > want {
		t.Fatalf("ledger kept %d rounds across runs (> %d): stats not reset", got, want)
	}
}
