package harness

import (
	"fmt"

	"mucongest/internal/sim"
	"mucongest/internal/sim/refsim"
)

// StepBehaviors maps every behavior of Behaviors to its step-form twin:
// a per-node refsim.StepNode factory whose call k executes exactly the
// code the blocking closure runs between its (k-1)-th and k-th Tick —
// same RNG draw order, same sends and charges, same emits, same panic
// sites, same tick counts. The differential harness runs each twin
// three ways (natively stepped on the production engine, through
// refsim.DriveSteps on the reference engine, and against the blocking
// original) and requires byte-identical ledgers, so a drift between a
// behavior and its step form cannot land silently.
//
// Each machine follows one shape: step k > 0 first runs the blocking
// loop's post-Tick code for iteration k-1 (inbox fold, early-exit
// checks, releases), then — unless the program ended — the pre-Tick
// code for iteration k (charges, sends). The r field counts completed
// rounds, so it equals the node's tick count at every step boundary.
var StepBehaviors = map[string]func(sc Scenario) func(sim.Node) refsim.StepNode{
	"gossip": func(sc Scenario) func(sim.Node) refsim.StepNode {
		return func(sim.Node) refsim.StepNode { return &gossipStep{sc: sc} }
	},
	"broadcast": func(sc Scenario) func(sim.Node) refsim.StepNode {
		return func(sim.Node) refsim.StepNode { return &broadcastStep{sc: sc} }
	},
	"chargeonly": func(sc Scenario) func(sim.Node) refsim.StepNode {
		return func(sim.Node) refsim.StepNode { return &chargeOnlyStep{sc: sc} }
	},
	"earlyfinish": func(sc Scenario) func(sim.Node) refsim.StepNode {
		return func(sim.Node) refsim.StepNode { return &earlyFinishStep{sc: sc} }
	},
	"nodeerror": func(sc Scenario) func(sim.Node) refsim.StepNode {
		return func(sim.Node) refsim.StepNode { return &nodeErrorStep{sc: sc} }
	},
	"strictpressure": func(sc Scenario) func(sim.Node) refsim.StepNode {
		return func(sim.Node) refsim.StepNode { return &strictPressureStep{sc: sc} }
	},
	"restartaware": func(sc Scenario) func(sim.Node) refsim.StepNode {
		return func(sim.Node) refsim.StepNode { return &restartAwareStep{sc: sc} }
	},
	"sleeper": func(sc Scenario) func(sim.Node) refsim.StepNode {
		return func(sim.Node) refsim.StepNode { return &sleeperStep{sc: sc} }
	},
}

type gossipStep struct {
	sc Scenario
	r  int
}

func (s *gossipStep) Step(c sim.Node, in []sim.Incoming) bool {
	if s.r > 0 {
		emitFold(c, in)
		if c.ID()%7 == 3 && s.r-1 == s.sc.Rounds/2 {
			return false
		}
	} else {
		c.Charge(int64(c.ID()%3 + 1))
	}
	if s.r >= s.sc.Rounds {
		return false
	}
	for _, u := range c.Neighbors() {
		if c.Rand().Intn(2) == 0 {
			c.SendID(u, sim.Msg{Kind: 1, A: int64(c.ID()), B: int64(s.r), C: c.Rand().Int63n(1 << 20)})
			if s.sc.EdgeCap >= 2 && c.Rand().Intn(4) == 0 {
				c.SendID(u, sim.Msg{Kind: 2, A: int64(c.ID()), B: int64(s.r), C: c.Rand().Int63n(1 << 20)})
			}
		}
	}
	s.r++
	return true
}

type broadcastStep struct {
	sc Scenario
	r  int
}

func (s *broadcastStep) Step(c sim.Node, in []sim.Incoming) bool {
	if s.r > 0 {
		emitFold(c, in)
		c.Release(int64((s.r-1)%3 + 1))
	}
	if s.r >= s.sc.Rounds {
		return false
	}
	c.Broadcast(sim.Msg{Kind: 3, A: int64(c.ID()), B: int64(s.r)})
	c.Charge(int64(s.r%3 + 1))
	s.r++
	return true
}

type chargeOnlyStep struct {
	sc   Scenario
	r    int
	held int64
}

func (s *chargeOnlyStep) Step(c sim.Node, in []sim.Incoming) bool {
	if s.r > 0 {
		c.Emit(c.Live())
	}
	if s.r >= s.sc.Rounds {
		return false
	}
	amt := int64((c.ID()+s.r)%5 + 1)
	c.Charge(amt)
	s.held += amt
	if s.held > 6 {
		c.Release(s.held - 2)
		s.held = 2
	}
	s.r++
	return true
}

type earlyFinishStep struct {
	sc Scenario
	r  int
}

func (s *earlyFinishStep) Step(c sim.Node, in []sim.Incoming) bool {
	if s.r > 0 {
		emitFold(c, in)
		if s.r >= c.ID()%(s.sc.Rounds+1)+1 {
			return false
		}
	}
	if deg := c.Degree(); deg > 0 {
		c.Send(c.Rand().Intn(deg), sim.Msg{Kind: 4, A: int64(c.ID()), B: int64(s.r)})
	}
	s.r++
	return true
}

type nodeErrorStep struct {
	sc Scenario
	r  int
}

func (s *nodeErrorStep) Step(c sim.Node, in []sim.Incoming) bool {
	if s.r > 0 {
		emitFold(c, in)
		if c.ID() == s.sc.FailNode && s.r-1 == s.sc.FailRound {
			panic(fmt.Sprintf("harness: node %d injected failure at round %d", c.ID(), s.r-1))
		}
	}
	if s.r >= s.sc.Rounds {
		return false
	}
	c.Broadcast(sim.Msg{Kind: 5, A: int64(c.ID()), B: int64(s.r)})
	s.r++
	return true
}

// restartAwareStep relies on the restart semantics of the step runtime
// for its reset: a restarted node gets a fresh machine from the factory,
// so the execution-start emit fires again with the bumped Restarts().
type restartAwareStep struct {
	sc      Scenario
	r       int
	started bool
}

func (s *restartAwareStep) Step(c sim.Node, in []sim.Incoming) bool {
	if !s.started {
		c.Emit(int64(c.Restarts()))
		s.started = true
	}
	if s.r > 0 {
		emitFold(c, in)
	}
	if s.r >= s.sc.Rounds {
		return false
	}
	c.Broadcast(sim.Msg{Kind: 7, A: int64(c.ID()), B: int64(s.r), C: int64(c.Restarts())})
	s.r++
	return true
}

type strictPressureStep struct {
	sc Scenario
	r  int
}

func (s *strictPressureStep) Step(c sim.Node, in []sim.Incoming) bool {
	if s.r > 0 {
		emitFold(c, in)
	}
	if s.r >= s.sc.Rounds {
		return false
	}
	c.Charge(int64(c.ID()%2 + 1))
	c.Broadcast(sim.Msg{Kind: 6, A: int64(c.ID()), B: int64(s.r)})
	s.r++
	return true
}

// sleeperStep spells Idle(k) out as k true returns with nothing in
// between. It has no deferred Emit (see deferred).
type sleeperStep struct {
	sc      Scenario
	r       int
	left    int // true returns left in iteration r's Idle
	started bool
}

func (s *sleeperStep) Step(c sim.Node, _ []sim.Incoming) bool {
	if s.left > 0 {
		s.left--
		return true
	}
	if s.started {
		c.Emit(int64(c.Round()))
		c.Charge(int64(c.ID()%2 + 1))
		if c.ID() == s.sc.FailNode && s.r == s.sc.FailRound {
			panic(fmt.Sprintf("harness: node %d injected failure at round %d", c.ID(), s.r))
		}
		s.r++
	}
	s.started = true
	if s.r >= s.sc.Rounds {
		return false
	}
	c.Broadcast(sim.Msg{Kind: 8, A: int64(c.ID()), B: int64(s.r)})
	s.left = (c.ID() + s.r) % 4 // this return is the Idle's first Tick
	return true
}
