package sim_test

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"mucongest/internal/bench"
	"mucongest/internal/graph"
	"mucongest/internal/sim"
	"mucongest/internal/sim/refsim"
)

// unwindProgram is a blocking program whose deferred code observes every
// way a node can leave its program: it charges memory it releases in a
// defer, emits an exit record from another, and sends from a third —
// staged like any send when an abort unwinds the node, never published
// when a crash does. explode panics at round 2; hog charges far over μ
// at round 3 (a strict-mode ErrMemory panic).
func unwindProgram(rounds, explode, hog int) func(sim.Node) {
	return func(c sim.Node) {
		c.Charge(2)
		defer func() {
			c.Emit(fmt.Sprintf("exit node=%d round=%d restarts=%d live=%d",
				c.ID(), c.Round(), c.Restarts(), c.Live()))
		}()
		defer c.Release(2)
		defer c.Send(0, sim.Msg{Kind: 2, A: int64(c.ID())})
		for r := 0; r < rounds; r++ {
			c.Send(r%c.Degree(), sim.Msg{Kind: 1, A: int64(c.ID()), B: int64(r)})
			in := c.Tick()
			c.Emit(int64(len(in)))
			if c.ID() == explode && r == 2 {
				panic("boom")
			}
			if c.ID() == hog && r == 3 {
				c.Charge(1 << 20)
			}
		}
	}
}

// leakSlack bounds the goroutine-count noise unrelated to the engine
// (the runtime's finalizer goroutine counts while it runs user
// finalizers). A leak in these tests is one suspended coroutine per
// unwound node — tens to hundreds of goroutines.
const leakSlack = 3

// waitGoroutines polls until the goroutine count is back to at most
// want+leakSlack, returning the last count: delivery workers exit
// asynchronously after a run returns.
func waitGoroutines(want int) int {
	deadline := time.Now().Add(5 * time.Second)
	for {
		got := runtime.NumGoroutine()
		if got <= want+leakSlack || time.Now().After(deadline) {
			return got
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBlockingUnwindMatchesRefsim runs a blocking program with deferred
// Emit and Release through every way a run can end it early — a node
// error abort, strict ErrMemory aborts (raised by Charge and by barrier
// accounting), ErrMaxRounds and a crash/restart plan — and requires the
// result and error to equal the reference engine's, whose nodes are
// plain goroutines. It also requires the engine to leave no goroutine
// behind: a blocking node runs as a coroutine, and an aborted or
// crashed one must be unwound, not abandoned suspended.
func TestBlockingUnwindMatchesRefsim(t *testing.T) {
	const n = sim.ShardSpan + 300 // two shards, so workers 4 runs two
	topo := graph.Cycle(n)
	cases := []struct {
		name    string
		cfg     refsim.Config
		rounds  int
		explode int
		hog     int
	}{
		{"node-error", refsim.Config{Seed: 3}, 8, 700, -1},
		{"strict-charge", refsim.Config{Seed: 3, Mu: 1 << 10, Strict: true}, 8, -1, 600},
		{"strict-barrier", refsim.Config{Seed: 3, Mu: 2 + sim.MsgWords, Strict: true}, 8, -1, -1},
		{"max-rounds", refsim.Config{Seed: 3, MaxRounds: 10}, 1 << 20, -1, -1},
		{"crash", refsim.Config{Seed: 3, Faults: sim.MustParseFaults("crash:p=0.05,restart=2")}, 12, -1, -1},
	}
	for _, tc := range cases {
		prog := unwindProgram(tc.rounds, tc.explode, tc.hog)
		ref, refErr := refsim.New(topo, tc.cfg).Run(prog)
		for _, w := range []int{1, 4} {
			opts := []sim.Option{sim.WithSeed(tc.cfg.Seed), sim.WithMu(tc.cfg.Mu), sim.WithSimWorkers(w),
				sim.WithFaults(tc.cfg.Faults)}
			if tc.cfg.Strict {
				opts = append(opts, sim.WithStrictMemory())
			}
			if tc.cfg.MaxRounds > 0 {
				opts = append(opts, sim.WithMaxRounds(tc.cfg.MaxRounds))
			}
			before := runtime.NumGoroutine()
			got, err := sim.New(topo, opts...).Run(func(c *sim.Ctx) { prog(c) })
			if after := waitGoroutines(before); after > before+leakSlack {
				t.Errorf("%s workers %d: %d goroutines after the run, %d before: a coroutine leaked",
					tc.name, w, after, before)
			}
			if fmt.Sprint(err) != fmt.Sprint(refErr) {
				t.Errorf("%s workers %d: err = %v, refsim %v", tc.name, w, err, refErr)
			}
			if tc.name != "crash" && refErr == nil {
				t.Errorf("%s: the case must end the run with an error", tc.name)
			}
			if !reflect.DeepEqual(got, ref) {
				t.Errorf("%s workers %d: result diverges from refsim\n got outputs[%d] %v\nwant outputs[%d] %v",
					tc.name, w, tc.explode+1, outputsAt(got, tc.explode+1), tc.explode+1, outputsAt(ref, tc.explode+1))
			}
		}
		if tc.name == "crash" && (ref.Crashes == 0 || ref.Restarts == 0) {
			t.Errorf("crash: plan produced %d crashes and %d restarts, want both > 0", ref.Crashes, ref.Restarts)
		}
	}
}

func outputsAt(r *sim.Result, id int) []any {
	if r == nil || id < 0 || id >= len(r.Outputs) {
		return nil
	}
	return r.Outputs[id]
}

// halfBound binds a blocking program on every node but the last, whose
// Node returns neither form: the engine panics in its bind phase after
// the other nodes' coroutines are already suspended in their first Tick.
type halfBound struct{ unwound *int }

func (h halfBound) Node(c *sim.Ctx) (sim.StepProgram, func(*sim.Ctx)) {
	if c.ID() == c.N()-1 {
		return nil, nil
	}
	return nil, func(c *sim.Ctx) {
		defer func() { *h.unwound++ }()
		c.Tick()
	}
}

// TestPanickingRunStopsCoroutines pins the last exit path: a run that
// leaves RunProgram by panic must still finish every suspended
// coroutine, running the programs' deferred code.
func TestPanickingRunStopsCoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	unwound := 0
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected the bind-phase panic to propagate")
			}
		}()
		_, _ = sim.New(sim.NewComplete(32), sim.WithSimWorkers(1)).RunProgram(halfBound{&unwound})
	}()
	if unwound != 31 {
		t.Errorf("%d programs unwound, want the 31 bound before the panic", unwound)
	}
	if after := waitGoroutines(before); after > before+leakSlack {
		t.Errorf("%d goroutines after the run, %d before: a coroutine leaked", after, before)
	}
}

// TestDeliveryWorkersExit requires every delivery worker to exit with its
// run. With one P the workers scheduled first routinely drain all of a
// short run's phases before the others have started, so a late worker
// must still find its run's closed channel.
func TestDeliveryWorkersExit(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n = 4 * sim.ShardSpan
	topo := graph.Cycle(n)
	prog := bench.BroadcastSteps(n, 1)
	before := runtime.NumGoroutine()
	const runs = 100
	for i := 0; i < runs; i++ {
		if _, err := sim.New(topo, sim.WithSimWorkers(4)).RunProgram(prog); err != nil {
			t.Fatal(err)
		}
	}
	if after := waitGoroutines(before); after > before+leakSlack {
		t.Errorf("%d goroutines after %d runs, %d before: delivery workers leaked", after, runs, before)
	}
}
