// helpers.go holds the transitive-call cases in a SEPARATE FILE of the
// same package: the analyzer must resolve callees across file
// boundaries and report violations in helpers reachable from a Step
// entry.
package stepblock

import "stepstub"

var _ stepstub.StepProgram = (*transStep)(nil)

type transStep struct{ ch chan int }

func (s *transStep) Step(c *stepstub.Ctx, in []stepstub.Incoming) bool {
	fanOut(s.ch)
	s.drain(c)
	return true
}

// fanOutStep reaches fanOut too: the send is still one finding,
// worded with the first Step that reaches it.
type fanOutStep struct{ ch chan int }

func (s *fanOutStep) Step(c *stepstub.Ctx, in []stepstub.Incoming) bool {
	fanOut(s.ch)
	return true
}

// fanOut is a plain function reachable from transStep.Step and
// fanOutStep.Step.
func fanOut(ch chan int) {
	ch <- 7 // want `channel send in fanOut \(reachable from \(transStep\)\.Step\)`
}

// drain is a method callee; yields are forbidden transitively too.
func (s *transStep) drain(c *stepstub.Ctx) {
	c.Idle() // want `Idle called in drain \(reachable from \(transStep\)\.Step\)`
}

// cleanHelper is reachable from Step but only computes: no findings.
func cleanHelper(in []stepstub.Incoming) int64 {
	var sum int64
	for _, m := range in {
		sum += m.Msg.A
	}
	return sum
}

var _ stepstub.StepProgram = (*cleanTransStep)(nil)

type cleanTransStep struct{}

func (cleanTransStep) Step(c *stepstub.Ctx, in []stepstub.Incoming) bool {
	c.Emit(cleanHelper(in))
	return true
}
