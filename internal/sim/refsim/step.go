package refsim

import "mucongest/internal/sim"

// StepNode is the engine-agnostic step form of a node program: one
// Step call per round against the shared sim.Node contract, receiving
// the messages delivered at the last barrier (nil on the first call and
// whenever nothing arrived). Returning true ends the round; returning
// false terminates the node. It mirrors sim.StepProgram — which is
// bound to the production engine's concrete *sim.Ctx for hot-path
// dispatch — so one machine written against StepNode runs on the
// production engine through a one-line adapter and on this reference
// engine through DriveSteps. A StepNode must not call c.Tick or c.Idle.
type StepNode interface {
	Step(c sim.Node, in []sim.Incoming) bool
}

// DriveSteps adapts a per-node StepNode factory to the blocking program
// form both engines' goroutine paths execute: the driver loops the
// machine's Step against Tick — first Step gets nil, returning true
// ticks, returning false returns — which is by construction the
// execution the production engine's step runtime performs inline.
// Running the same machine through this adapter on the reference engine
// and natively on the production engine (and comparing both against the
// blocking original) is how the differential harness certifies the step
// runtime: a divergence through DriveSteps localizes the bug to the
// hand-written step form, a divergence only in native stepping to the
// engine's step scheduler.
func DriveSteps(mk func(c sim.Node) StepNode) func(sim.Node) {
	return func(c sim.Node) {
		m := mk(c)
		var in []sim.Incoming
		for m.Step(c, in) {
			in = c.Tick()
		}
	}
}
