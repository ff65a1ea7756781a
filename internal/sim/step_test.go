package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"mucongest/internal/graph"
)

// detStep is the step-form twin of detProgram: call k executes exactly
// the code detProgram runs between its (k-1)-th and k-th Tick. The
// parity suite below requires it to reproduce detProgram's golden
// digests bit for bit — same RNG draw order, same sends, same emits,
// same early termination, same tick counts.
type detStep struct {
	r int // completed rounds (== ticks performed so far)
}

func (s *detStep) Step(c *Ctx, in []Incoming) bool {
	if s.r > 0 {
		var h int64
		for i, m := range in {
			h = h*1_000_003 + int64(m.From+1)*31 + m.Msg.C + int64(i+1)
		}
		c.Emit(h)
		if c.ID()%5 == 2 && s.r-1 == 3 {
			return false // early finish: later messages to this node are dropped
		}
		if s.r >= 8 {
			return false
		}
	} else {
		c.Charge(int64(c.ID()%3 + 1))
	}
	for _, u := range c.Neighbors() {
		if c.Rand().Intn(2) == 0 {
			c.SendID(u, Msg{Kind: 1, A: int64(c.ID()), B: int64(s.r), C: c.Rand().Int63n(1 << 20)})
		}
	}
	s.r++
	return true
}

// detSteps is the Steps program running detStep on every node.
var detSteps = Steps(func(c *Ctx) StepProgram { return new(detStep) })

// TestStepGoroutineModeParity is the step-mode twin of the golden
// determinism suite: the three historical corpora (single-shard
// complete, 3-shard cycle, 3-shard powerlaw), every InboxOrder, workers
// {1,2,4,max} and both strictness settings must reproduce the exact
// digests recorded on the goroutine engine — the step runtime is not
// allowed to perturb a single byte of the execution record.
func TestStepGoroutineModeParity(t *testing.T) {
	corpora := []struct {
		name   string
		topo   Topology
		seed   int64
		golden map[InboxOrder]uint64
	}{
		{"complete12", NewComplete(12), 42, goldenComplete12},
		{"cycle1536", graph.Cycle(1536), 7, goldenCycle1536},
		{"powerlaw1536", graph.BarabasiAlbert(1536, 3, rand.New(rand.NewSource(13))), 7, goldenPowerlaw1536},
	}
	for _, cp := range corpora {
		for order, want := range cp.golden {
			for _, w := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
				for _, strict := range []bool{false, true} {
					opts := []Option{WithSeed(cp.seed), WithInboxOrder(order), WithSimWorkers(w)}
					if strict {
						opts = append(opts, WithMu(1<<40), WithStrictMemory())
					}
					res, err := New(cp.topo, opts...).RunProgram(detSteps)
					if err != nil {
						t.Fatalf("%s order %v workers %d strict %v: %v", cp.name, order, w, strict, err)
					}
					if got := digestResult(res); got != want {
						t.Errorf("%s order %v workers %d strict %v: step digest = %#x, want goroutine golden %#x",
							cp.name, order, w, strict, got, want)
					}
				}
			}
		}
	}
}

// mixedDet runs detStep on even nodes and the blocking detProgram on
// odd nodes in the same run: the generic bind path, the split barrier
// population and the per-node dispatch must still reproduce the
// all-goroutine goldens.
type mixedDet struct{}

func (mixedDet) Node(c *Ctx) (StepProgram, func(*Ctx)) {
	if c.ID()%2 == 0 {
		return new(detStep), nil
	}
	return nil, detProgram
}

func TestMixedModeParity(t *testing.T) {
	topo := graph.Cycle(1536)
	for order, want := range goldenCycle1536 {
		for _, w := range []int{1, 4} {
			res, err := New(topo, WithSeed(7), WithInboxOrder(order), WithSimWorkers(w)).RunProgram(mixedDet{})
			if err != nil {
				t.Fatal(err)
			}
			if got := digestResult(res); got != want {
				t.Errorf("order %v workers %d: mixed-mode digest = %#x, want golden %#x", order, w, got, want)
			}
		}
	}
}

// explodeStep is the step twin of TestNodeErrorAbortDeterministicAcrossWorkers'
// program: nodes 300 (shard 0) and 900 (shard 1) panic at the same
// barrier.
type explodeStep struct{ r int }

func (s *explodeStep) Step(c *Ctx, in []Incoming) bool {
	if s.r > 0 {
		var h int64
		for i, m := range in {
			h = h*1_000_003 + int64(m.From+1)*31 + int64(i+1)
		}
		c.Emit(h)
		if s.r-1 == 2 && (c.ID() == 300 || c.ID() == 900) {
			panic(fmt.Sprintf("node %d exploded", c.ID()))
		}
	}
	for _, u := range c.Neighbors() {
		c.SendID(u, Msg{Kind: 1, A: int64(c.ID()), B: int64(s.r)})
	}
	s.r++
	return true
}

// TestStepNodeErrorAbortParity pins the step-mode abort path against
// the goroutine mode: a step program panic must surface as the
// byte-identical run error (lowest failing node, same wrapped string)
// with the byte-identical partial Result, at every worker count.
func TestStepNodeErrorAbortParity(t *testing.T) {
	topo := graph.Cycle(1536)
	blocking := func(c *Ctx) {
		for r := 0; ; r++ {
			for _, u := range c.Neighbors() {
				c.SendID(u, Msg{Kind: 1, A: int64(c.ID()), B: int64(r)})
			}
			in := c.Tick()
			var h int64
			for i, m := range in {
				h = h*1_000_003 + int64(m.From+1)*31 + int64(i+1)
			}
			c.Emit(h)
			if r == 2 && (c.ID() == 300 || c.ID() == 900) {
				panic(fmt.Sprintf("node %d exploded", c.ID()))
			}
		}
	}
	gRes, gErr := New(topo, WithSeed(7)).Run(blocking)
	if gErr == nil {
		t.Fatal("goroutine run: expected node panic to surface as run error")
	}
	for _, w := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
		res, err := New(topo, WithSeed(7), WithSimWorkers(w)).
			RunProgram(Steps(func(c *Ctx) StepProgram { return new(explodeStep) }))
		if err == nil {
			t.Fatalf("workers %d: expected step panic to surface as run error", w)
		}
		if want := "node 300 exploded"; !strings.Contains(err.Error(), want) {
			t.Fatalf("workers %d: err = %v, want the lowest failing node's error (%q)", w, err, want)
		}
		if err.Error() != gErr.Error() {
			t.Errorf("workers %d: step err = %q, goroutine err = %q", w, err.Error(), gErr.Error())
		}
		if got, want := digestResult(res), digestResult(gRes); got != want {
			t.Errorf("workers %d: step abort digest = %#x, goroutine %#x", w, got, want)
		}
	}
}

// heldInboxStep is the step twin of TestStrictChargeCountsHeldInbox:
// node 1 still holds a 2-word inbox when it Charges 3 under μ=4 strict,
// so the Charge must abort between barriers — from inside a Step call
// driven inline by a delivery worker.
type heldInboxStep struct{ r int }

func (s *heldInboxStep) Step(c *Ctx, in []Incoming) bool {
	if c.ID() == 1 {
		switch s.r {
		case 0: // receive next round
		case 1:
			c.Charge(3) // 3 live + 2 held inbox words > μ=4: panics ErrMemory here
		default:
			return false
		}
	} else {
		switch s.r {
		case 0:
			c.SendID(1, Msg{})
		case 2:
			return false
		}
	}
	s.r++
	return true
}

func TestStepStrictChargeCountsHeldInbox(t *testing.T) {
	for _, w := range []int{1, 4} {
		e := New(graph.Path(3), WithMu(4), WithStrictMemory(), WithSimWorkers(w))
		res, err := e.RunProgram(Steps(func(c *Ctx) StepProgram { return new(heldInboxStep) }))
		if !errors.Is(err, ErrMemory) {
			t.Fatalf("workers %d: err = %v, want ErrMemory (live words + held inbox exceed μ)", w, err)
		}
		if res.PeakWords[1] != 5 {
			t.Fatalf("workers %d: PeakWords[1] = %d, want 5 (3 live + 2 held inbox)", w, res.PeakWords[1])
		}
	}
}

// TestStepStrictMemoryAbortsAcrossShards exercises strict-mode barrier
// accounting against a stepped node in a non-zero shard: the split
// account/resume phases must abort before the node is stepped again.
func TestStepStrictMemoryAbortsAcrossShards(t *testing.T) {
	n := ShardSpan + 88
	hot := ShardSpan + 42
	mk := func(c *Ctx) StepProgram { return &shardAbortStep{hot: hot} }
	for _, w := range []int{1, 4} {
		e := New(graph.Path(n), WithMu(1), WithStrictMemory(), WithSimWorkers(w))
		_, err := e.RunProgram(Steps(mk))
		if !errors.Is(err, ErrMemory) {
			t.Fatalf("workers %d: err = %v, want ErrMemory", w, err)
		}
	}
}

type shardAbortStep struct {
	hot int
	r   int
}

func (s *shardAbortStep) Step(c *Ctx, in []Incoming) bool {
	if s.r >= 2 {
		return false
	}
	if s.r == 0 && c.ID() != s.hot {
		for _, u := range c.Neighbors() {
			if u == s.hot {
				c.SendID(u, Msg{})
			}
		}
	}
	s.r++
	return true
}

// chargeIdleStep is the step twin of TestChargeOnlyViolationCounted's
// program: node 1 holds 5 words over μ=2 across 4 quiet rounds without
// ever receiving a message.
type chargeIdleStep struct{ r int }

func (s *chargeIdleStep) Step(c *Ctx, in []Incoming) bool {
	if s.r == 0 {
		if c.ID() == 1 {
			c.Charge(5)
		}
	} else if s.r >= 4 {
		if c.ID() == 1 {
			c.Release(5)
		}
		return false
	}
	s.r++
	return true
}

// TestStepChargeOnlyOverRounds pins non-strict μ accounting for stepped
// nodes on charge-only rounds: the overrun must be metered at every
// barrier the node stays over μ, even though it never receives anything
// and the worker only touches it to step it.
func TestStepChargeOnlyOverRounds(t *testing.T) {
	for _, w := range []int{1, 4} {
		e := New(graph.Path(3), WithMu(2), WithSimWorkers(w))
		res, err := e.RunProgram(Steps(func(c *Ctx) StepProgram { return new(chargeIdleStep) }))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Violations) != 1 {
			t.Fatalf("workers %d: violations = %v, want exactly one", w, res.Violations)
		}
		v := res.Violations[0]
		if v.Node != 1 || v.Round != 0 || v.Words != 5 {
			t.Fatalf("workers %d: first overrun = %+v, want node 1, round 0, 5 words", w, v)
		}
		if v.OverRounds != 4 {
			t.Fatalf("workers %d: OverRounds = %d, want 4 (one per quiet round over μ)", w, v.OverRounds)
		}
	}
}

// foreverStep never terminates; the max-rounds guard must abort the run
// exactly like it aborts blocking programs.
type foreverStep struct{}

func (foreverStep) Step(c *Ctx, in []Incoming) bool { return true }

func TestStepMaxRoundsGuard(t *testing.T) {
	gRes, gErr := New(graph.Path(2), WithMaxRounds(10)).Run(func(c *Ctx) {
		for {
			c.Tick()
		}
	})
	if !errors.Is(gErr, ErrMaxRounds) {
		t.Fatalf("goroutine err = %v, want ErrMaxRounds", gErr)
	}
	res, err := New(graph.Path(2), WithMaxRounds(10)).
		RunProgram(Steps(func(c *Ctx) StepProgram { return foreverStep{} }))
	if !errors.Is(err, ErrMaxRounds) {
		t.Fatalf("step err = %v, want ErrMaxRounds", err)
	}
	if err.Error() != gErr.Error() {
		t.Errorf("step err = %q, goroutine err = %q", err.Error(), gErr.Error())
	}
	if got, want := digestResult(res), digestResult(gRes); got != want {
		t.Errorf("step digest = %#x, goroutine %#x", got, want)
	}
}

// tickingStep violates the step contract by calling Tick; the engine
// must fail it as a node error instead of deadlocking the delivery
// worker that drives it.
type tickingStep struct{}

func (tickingStep) Step(c *Ctx, in []Incoming) bool {
	//muvet:allow stepblock(fixture proving the runtime Tick-in-Step guard stepblock enforces statically)
	c.Tick()
	return true
}

func TestStepProgramTickPanics(t *testing.T) {
	_, err := New(graph.Path(2)).RunProgram(Steps(func(c *Ctx) StepProgram { return tickingStep{} }))
	if err == nil || !strings.Contains(err.Error(), "runs a step program") {
		t.Fatalf("err = %v, want the step-program Tick guard to surface as a node error", err)
	}
	if !strings.Contains(err.Error(), "sim: node 0 panicked") {
		t.Fatalf("err = %v, want the standard node-panic wrapping", err)
	}
}

// TestStepEarlyTerminationDrops mirrors the goroutine-path drop
// semantics: messages addressed to a stepped node that already returned
// false must be counted as dropped, not delivered.
func TestStepEarlyTerminationDrops(t *testing.T) {
	res, err := New(graph.Path(2)).RunProgram(Steps(func(c *Ctx) StepProgram {
		return &dropProbeStep{}
	}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped == 0 {
		t.Fatalf("dropped = 0, want sends to the terminated stepped node to be dropped (res=%+v)", res)
	}
}

// dropProbeStep: node 0 quits immediately; node 1 keeps sending to it.
type dropProbeStep struct{ r int }

func (s *dropProbeStep) Step(c *Ctx, in []Incoming) bool {
	if c.ID() == 0 {
		return false
	}
	if s.r >= 3 {
		return false
	}
	c.SendID(0, Msg{Kind: 9})
	s.r++
	return true
}

// TestIdleSleepsExactlyK pins Idle's round count on the sleep path:
// Idle(k) advances Round() by exactly k (none for k ≤ 0), a send queued
// before the call goes out with its first round, and the node wakes
// with its sleep counter spent. A step program calling Idle fails like
// one calling Tick.
func TestIdleSleepsExactlyK(t *testing.T) {
	ks := []int{0, -3, 1, 2, 7, 1}
	res, err := New(graph.Path(2), WithSimWorkers(1)).Run(func(c *Ctx) {
		for _, k := range ks {
			before := c.Round()
			if k > 0 {
				c.SendID(1-c.ID(), Msg{Kind: 1})
			}
			c.Idle(k)
			c.Emit([2]int{c.Round() - before, int(c.rt.sleep)})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	total, sends := 0, int64(0)
	for i, k := range ks {
		if k > 0 {
			total += k
			sends += 2
		}
		for v, out := range res.Outputs {
			if got := out[i].([2]int); got != [2]int{max(k, 0), 0} {
				t.Errorf("node %d Idle(%d): advanced %d rounds, woke with sleep %d", v, k, got[0], got[1])
			}
		}
	}
	if res.Rounds != total || res.Messages != sends || res.Dropped != 0 {
		t.Errorf("rounds = %d, messages = %d, dropped = %d; want %d, %d, 0",
			res.Rounds, res.Messages, res.Dropped, total, sends)
	}
	_, err = New(graph.Path(2)).RunProgram(Steps(func(c *Ctx) StepProgram { return idlingStep{} }))
	if err == nil || !strings.Contains(err.Error(), "runs a step program") {
		t.Fatalf("err = %v, want the step-program Tick guard", err)
	}
}

// idlingStep violates the step contract by calling Idle.
type idlingStep struct{}

func (idlingStep) Step(c *Ctx, in []Incoming) bool {
	//muvet:allow stepblock(fixture proving the runtime guard covers Idle too)
	c.Idle(3)
	return true
}
