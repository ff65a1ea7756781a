package sim

import (
	"errors"
	"fmt"
	"iter"
)

// Node execution: every node is driven inline by the delivery workers
// inside the account/resume phases — no per-node goroutine of its own,
// no resume channel and no barrier arrival: the phase completing *is*
// the node's arrival. A node program takes one of two forms.
//
// A StepProgram is an explicit state machine. Step call k executes
// exactly the code a blocking program runs between its (k-1)-th and
// k-th Tick: the first Step receives a nil inbox (a blocking program has
// received nothing before its first Tick), returning true is Tick (the
// staged outbox is handed to the engine, the next Step receives the
// delivered inbox), and returning false is the program returning.
// Ctx.Round inside Step k reports k-1, the same value a blocking program
// sees between those Ticks. The inbox slice passed to Step aliases an
// engine-owned arena under the same contract as Tick's return value:
// it is valid only until the node's next Step (simdebug poisons retired
// arenas here too).
//
// A blocking func(*Ctx) runs as an iter.Pull coroutine wrapped in the
// internal coroutine StepProgram: its Step resumes the program, and
// Ctx.Tick yields back to the worker. Both forms therefore share one
// dispatch path and are observably identical.

// StepProgram is a node program in explicit state-machine form. The
// engine calls Step once per round with the messages delivered at the
// last barrier (nil on the first call, and whenever nothing arrived).
// Returning true ends the node's round — queued sends are staged for
// delivery — and returning false terminates the node, exactly like
// returning from a blocking program. A StepProgram must not call
// c.Tick or c.Idle: the engine owns the round boundary.
type StepProgram interface {
	Step(c *Ctx, in []Incoming) bool
}

// Program is the generalized node-program surface of Engine.RunProgram:
// Node picks each node's execution form. Returning a non-nil
// StepProgram runs the node as that state machine; returning a nil
// StepProgram and a non-nil func runs the node in the classic blocking
// form, as a coroutine. Mixed runs — some nodes stepped, some blocking —
// are valid and stay deterministic.
//
// Node is called once per node during engine setup — and once more per
// fault-layer restart of a node (see WithFaults), which re-binds the
// node exactly like setup did. It may be called concurrently for
// distinct nodes; it must not retain c beyond the node's own execution.
type Program interface {
	Node(c *Ctx) (StepProgram, func(*Ctx))
}

// Func adapts a classic blocking program to the Program surface; it is
// what Engine.Run wraps its argument in. Every node runs the same func.
type Func func(*Ctx)

// Node implements Program: every node takes the blocking form.
func (f Func) Node(*Ctx) (StepProgram, func(*Ctx)) { return nil, f }

// Steps adapts a per-node StepProgram factory to the Program surface:
// every node runs as a state machine. The factory may be called
// concurrently for distinct nodes.
type Steps func(c *Ctx) StepProgram

// Node implements Program: every node takes the step form.
func (s Steps) Node(c *Ctx) (StepProgram, func(*Ctx)) { return s(c), nil }

// coroutine is the StepProgram a blocking node runs as: the program is
// an iter.Pull coroutine, Step resumes it with the delivered inbox, and
// Ctx.Tick yields from it.
type coroutine struct {
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	in    []Incoming // the inbox the resumed Tick returns
}

// newCoroutine binds fn as c's program without running any of it.
func newCoroutine(c *Ctx, fn func(*Ctx)) *coroutine {
	co := new(coroutine)
	co.next, co.stop = iter.Pull(func(yield func(struct{}) bool) {
		co.yield = yield
		fn(c)
	})
	return co
}

// Step resumes the program until its next Tick (true) or its return
// (false). A panic inside the program propagates out of next, finishing
// the coroutine, into stepSafe.
func (co *coroutine) Step(_ *Ctx, in []Incoming) bool {
	//muvet:allow stepalias(handed to the resumed Tick, which returns it under the same aliasing contract; cleared before Step returns)
	co.in = in
	_, ok := co.next()
	co.in = nil
	return ok
}

// unwind finishes a suspended coroutine: stop resumes it with yield
// reporting false, so its Tick panics (errCrash for a crashing node,
// errAbort otherwise) and the program's deferred code runs. stop
// re-raises that panic here; the caller has already decided what the
// node's end means, so it is discarded.
func (co *coroutine) unwind() {
	defer func() { _ = recover() }()
	co.stop()
}

// bindNode materializes node id's Ctx, binds its program form and runs
// its first step inline — the code a blocking program executes before
// its first Tick — so the node has staged its round-0 sends by the time
// the bind phase completes. Restarts re-bind through here too.
func (e *Engine) bindNode(id int) {
	c := newCtx(e, e.ctxs, id)
	rt := &e.nodes[id]
	c.openSends()
	step, fn := e.prog.Node(c)
	if step == nil {
		if fn == nil {
			panic(fmt.Sprintf("sim: Program.Node returned neither form (nil StepProgram and nil func) for node %d", id))
		}
		rt.co = newCoroutine(c, fn)
		step = rt.co
	}
	rt.step = step
	e.stepNode(c, rt, nil)
}

// stopCoroutines unwinds every coroutine a run that is exiting by panic
// left suspended, so none leaks. Finished coroutines ignore the stop.
func (e *Engine) stopCoroutines() {
	for i := range e.nodes {
		if co := e.nodes[i].co; co != nil {
			co.unwind()
		}
	}
}

// stepNode drives one round of a node inline on the calling delivery
// worker: hand the inbox to Step, and either stage the resulting outbox
// (continue) or record termination (return/panic). The caller opened
// the outbox (see Ctx.openSends).
//
//muvet:hotpath
func (e *Engine) stepNode(c *Ctx, rt *nodeRT, in []Incoming) {
	if len(in) == 0 {
		in = nil
	}
	if e.aborted && rt.co == nil {
		// An aborted run resumes a blocking node so its Tick panics
		// errAbort and its deferred code runs; the error harvest filters
		// that sentinel out. A stepped node has nothing to unwind:
		// terminating with a nil error is the observably identical end.
		e.finishStep(c, rt, nil)
		return
	}
	cont, err := e.stepSafe(c, rt.step, in)
	if !cont {
		e.finishStep(c, rt, err)
		return
	}
	rt.ticks++
	c.stage()
}

// stepSafe runs one Step call, translating a panic into the node error
// the determinism contract pins: the abort and memory sentinels pass
// through, anything else becomes "sim: node %d panicked: %v". (Not a
// hot path: the deferred recover is open-coded and allocation-free on
// the non-panic path, but hotalloc cannot see that.)
func (e *Engine) stepSafe(c *Ctx, p StepProgram, in []Incoming) (cont bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			cont = false
			if pe, ok := r.(error); ok && (errors.Is(pe, errAbort) || errors.Is(pe, ErrMemory)) {
				err = pe
			} else {
				err = fmt.Errorf("sim: node %d panicked: %v", c.id, r)
			}
		}
	}()
	return p.Step(c, in), nil
}

// finishStep is a node's termination: it publishes the termination bit,
// the error and any last staged sends.
//
//muvet:hotpath
func (e *Engine) finishStep(c *Ctx, rt *nodeRT, err error) {
	rt.nodeErr = err
	e.state[c.id] |= stDone
	c.stage()
}
