// Corpus for the ctxretain analyzer: every way a Program.Node
// implementation can retain the node context beyond the node's own
// execution, plus the legal handoffs to the returned execution forms.
package ctxretain

import "stepstub"

var leaked *stepstub.Ctx

// stepper is a legitimate step program embedding its node's context —
// the StepProgram IS the node's execution, so this is the contract
// working as intended.
type stepper struct{ c *stepstub.Ctx }

func (s *stepper) Step(c *stepstub.Ctx, in []stepstub.Incoming) bool { return false }

func newStepper(c *stepstub.Ctx) *stepper { return &stepper{c: c} }

var _ stepstub.Program = (*fieldProg)(nil)

type fieldProg struct{ last *stepstub.Ctx }

func (p *fieldProg) Node(c *stepstub.Ctx) (stepstub.StepProgram, func(*stepstub.Ctx)) {
	p.last = c // want `node context stored in field last`
	return nil, func(*stepstub.Ctx) {}
}

type globalProg struct{}

func (globalProg) Node(c *stepstub.Ctx) (stepstub.StepProgram, func(*stepstub.Ctx)) {
	leaked = c // want `node context assigned to leaked`
	return nil, func(*stepstub.Ctx) {}
}

type chanProg struct{ ch chan *stepstub.Ctx }

func (p *chanProg) Node(c *stepstub.Ctx) (stepstub.StepProgram, func(*stepstub.Ctx)) {
	p.ch <- c // want `node context sent on a channel`
	return nil, func(*stepstub.Ctx) {}
}

type appendProg struct{ all []*stepstub.Ctx }

func (p *appendProg) Node(c *stepstub.Ctx) (stepstub.StepProgram, func(*stepstub.Ctx)) {
	p.all = append(p.all, c) // want `node context stored via append`
	return nil, func(*stepstub.Ctx) {}
}

type goProg struct{}

func (goProg) Node(c *stepstub.Ctx) (stepstub.StepProgram, func(*stepstub.Ctx)) {
	go func() { // want `node context passed to a goroutine`
		c.Idle()
	}()
	return nil, func(*stepstub.Ctx) {}
}

// embedProg leaks the context INSIDE a step-program value stored on the
// shared Program receiver: the composite literal carries the taint.
type embedProg struct{ cache *stepper }

func (p *embedProg) Node(c *stepstub.Ctx) (stepstub.StepProgram, func(*stepstub.Ctx)) {
	p.cache = &stepper{c: c} // want `node context stored in field cache`
	return p.cache, nil
}

// aliasProg retains through a rename: the reaching facts follow it.
type aliasProg struct{ last *stepstub.Ctx }

func (p *aliasProg) Node(c *stepstub.Ctx) (stepstub.StepProgram, func(*stepstub.Ctx)) {
	mine := c
	p.last = mine // want `node context stored in field last`
	return nil, func(*stepstub.Ctx) {}
}

// hookProg stores a closure over c on the shared receiver: the closure
// carries the context like the context itself.
type hookProg struct{ f func() }

func (p *hookProg) Node(c *stepstub.Ctx) (stepstub.StepProgram, func(*stepstub.Ctx)) {
	p.f = func() { c.Idle() } // want `node context stored in field f`
	return nil, func(*stepstub.Ctx) {}
}

type containerProg struct{ byNode map[int]*stepstub.Ctx }

func (p *containerProg) Node(c *stepstub.Ctx) (stepstub.StepProgram, func(*stepstub.Ctx)) {
	p.byNode[len(p.byNode)] = c // want `node context stored into a container`
	return nil, func(*stepstub.Ctx) {}
}

// iifeProg stores c from inside a literal invoked on the spot: the
// literal's own body is checked, seeded with the c it captures.
type iifeProg struct{ last *stepstub.Ctx }

func (p *iifeProg) Node(c *stepstub.Ctx) (stepstub.StepProgram, func(*stepstub.Ctx)) {
	func() { p.last = c }() // want `node context stored in field last`
	return nil, func(*stepstub.Ctx) {}
}

// factoryProg hands c to the returned execution forms — a factory call
// and a composite literal in the return statement. Both are the node's
// own execution: no findings.
type factoryProg struct{}

func (factoryProg) Node(c *stepstub.Ctx) (stepstub.StepProgram, func(*stepstub.Ctx)) {
	if c == nil {
		return newStepper(c), nil
	}
	return &stepper{c: c}, nil
}

// closureProg captures c in the returned blocking func: that closure
// runs as the node, so the capture is legal.
type closureProg struct{}

func (closureProg) Node(c *stepstub.Ctx) (stepstub.StepProgram, func(*stepstub.Ctx)) {
	return nil, func(own *stepstub.Ctx) {
		if own == c {
			own.Emit(1)
		}
	}
}

// registryProg is the suppression case: a debug registry keeps
// contexts for postmortem dumps.
type registryProg struct{}

func (registryProg) Node(c *stepstub.Ctx) (stepstub.StepProgram, func(*stepstub.Ctx)) {
	//muvet:allow ctxretain(debug registry keeps contexts for postmortem dumps)
	leaked = c
	return nil, func(*stepstub.Ctx) {}
}

// methodValueProg stores a method value on the shared receiver: c.Idle
// binds c, so it carries the context like a closure over c.
type methodValueProg struct{ f func() }

func (p *methodValueProg) Node(c *stepstub.Ctx) (stepstub.StepProgram, func(*stepstub.Ctx)) {
	p.f = c.Idle // want `node context stored in field f`
	return nil, func(*stepstub.Ctx) {}
}
