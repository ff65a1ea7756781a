// Corpus for the stepalias analyzer: every way the Step inbox
// parameter can escape its invocation, plus the copying idioms that
// are fine. Types come from the imported stepstub package, exercising
// cross-package signature matching.
package stepalias

import "stepstub"

var global []stepstub.Incoming

var _ stepstub.StepProgram = (*fieldStep)(nil)

type fieldStep struct{ held []stepstub.Incoming }

func (s *fieldStep) Step(c *stepstub.Ctx, in []stepstub.Incoming) bool {
	s.held = in // want `Step inbox stored in field held`
	return true
}

type globalStep struct{}

func (globalStep) Step(c *stepstub.Ctx, in []stepstub.Incoming) bool {
	global = in // want `Step inbox assigned to global`
	return true
}

type chanStep struct{ ch chan []stepstub.Incoming }

func (s *chanStep) Step(c *stepstub.Ctx, in []stepstub.Incoming) bool {
	s.ch <- in // want `Step inbox sent on a channel`
	return true
}

type appendStep struct{ log [][]stepstub.Incoming }

func (s *appendStep) Step(c *stepstub.Ctx, in []stepstub.Incoming) bool {
	s.log = append(s.log, in) // want `Step inbox stored via append`
	return true
}

type subsliceStep struct{ held []stepstub.Incoming }

func (s *subsliceStep) Step(c *stepstub.Ctx, in []stepstub.Incoming) bool {
	if len(in) > 1 {
		s.held = in[1:] // want `Step inbox stored in field held`
	}
	return true
}

type ptrStep struct{ first *stepstub.Incoming }

func (s *ptrStep) Step(c *stepstub.Ctx, in []stepstub.Incoming) bool {
	if len(in) > 0 {
		s.first = &in[0] // want `Step inbox stored in field first`
	}
	return true
}

type fieldPtrStep struct{ a *int64 }

func (s *fieldPtrStep) Step(c *stepstub.Ctx, in []stepstub.Incoming) bool {
	if len(in) > 0 {
		s.a = &in[0].Msg.A // want `Step inbox stored in field a`
	}
	return true
}

// aliasStep escapes through a rename on one branch: the reaching-facts
// lattice propagates the alias to the store.
type aliasStep struct{ held []stepstub.Incoming }

func (s *aliasStep) Step(c *stepstub.Ctx, in []stepstub.Incoming) bool {
	var tail []stepstub.Incoming
	if len(in) > 2 {
		tail = in
	}
	s.held = tail // want `Step inbox stored in field held`
	return true
}

type captureStep struct{ probe func() int }

func (s *captureStep) Step(c *stepstub.Ctx, in []stepstub.Incoming) bool {
	s.probe = func() int { return len(in) } // want `Step inbox stored in field probe`
	return true
}

// copyStep copies the messages out: spreading append, element value
// copies, and passing to a helper are all fine.
type copyStep struct {
	log  []stepstub.Incoming
	last stepstub.Incoming
}

func (s *copyStep) Step(c *stepstub.Ctx, in []stepstub.Incoming) bool {
	s.log = append(s.log, in...) // spreading copies the elements
	if len(in) > 0 {
		s.last = in[len(in)-1] // element copy: Msg is a value struct
	}
	emitAll(c, in) // helper call: not an escape at the call site
	return true
}

// iifeStep reads the inbox through an immediately invoked literal,
// which runs within the Step call: fine.
type iifeStep struct{ n int }

func (s *iifeStep) Step(c *stepstub.Ctx, in []stepstub.Incoming) bool {
	s.n = func() int { return len(in) }()
	return true
}

func emitAll(c *stepstub.Ctx, in []stepstub.Incoming) {
	for _, m := range in {
		c.Emit(m.Msg.A)
	}
}

// stashStep is the suppression case: a poisoning fixture retains the
// inbox on purpose.
type stashStep struct{ held []stepstub.Incoming }

func (s *stashStep) Step(c *stepstub.Ctx, in []stepstub.Incoming) bool {
	//muvet:allow stepalias(poisoning fixture retains the inbox on purpose)
	s.held = in
	return true
}

// literalStep stores a struct literal that embeds the inbox: the
// literal carries it.
type inHolder struct{ in []stepstub.Incoming }

type literalStep struct{ box inHolder }

func (s *literalStep) Step(c *stepstub.Ctx, in []stepstub.Incoming) bool {
	s.box = inHolder{in: in} // want `Step inbox stored in field box`
	return true
}

type containerStep struct{ byRound map[int][]stepstub.Incoming }

func (s *containerStep) Step(c *stepstub.Ctx, in []stepstub.Incoming) bool {
	s.byRound[len(s.byRound)] = in // want `Step inbox stored into a container`
	return true
}

// goStep hands the inbox to a goroutine through an immediately invoked
// literal: a go statement outlives the call, unlike iifeStep's call.
type goStep struct{}

func (goStep) Step(c *stepstub.Ctx, in []stepstub.Incoming) bool {
	go func() { _ = len(in) }() // want `Step inbox passed to a goroutine`
	return true
}

// deferStep stores from inside a deferred literal, which runs within
// the Step call but still leaves in on the receiver.
type deferStep struct{ held []stepstub.Incoming }

func (s *deferStep) Step(c *stepstub.Ctx, in []stepstub.Incoming) bool {
	defer func() { s.held = in }() // want `Step inbox stored in field held`
	return true
}

// swapStep stores in and clears it in one assignment: the sinks see the
// facts from before the assignment takes effect.
type swapStep struct{ held []stepstub.Incoming }

func (s *swapStep) Step(c *stepstub.Ctx, in []stepstub.Incoming) bool {
	s.held, in = in, nil // want `Step inbox stored in field held`
	return len(in) == 0
}

// consumeStep consumes its inbox by reslicing the parameter: in is
// declared in Step's own signature, so rebinding it stores nothing that
// outlives the call.
type consumeStep struct{}

func (consumeStep) Step(c *stepstub.Ctx, in []stepstub.Incoming) bool {
	for len(in) > 0 {
		c.Emit(in[0].Msg.A)
		in = in[1:]
	}
	return true
}
