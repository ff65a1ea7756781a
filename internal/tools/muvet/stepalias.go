package muvet

import "mucongest/internal/tools/muvet/analysis"

// StepAlias enforces the inbox aliasing contract on the step execution
// form: the `in []Incoming` parameter of a Step method aliases an
// engine-owned buffer that is reused for the node's next delivery
// (simdebug poisons it at the next Step), so no value carrying it may
// outlive the Step invocation. The check is the shared lifetime rule of
// escape.go seeded with in: a copy, a sub-slice in[a:b], a pointer
// &in[i], or a composite or function literal holding one must not be
// stored in a field (the receiver outlives the call), a container or
// through a pointer, assigned to a variable declared outside the
// method, sent, appended as a slice value, or handed to a go statement.
// append(dst, in...) and an element copy in[i] copy the messages and
// are fine, as is a literal that reads in and is invoked on the spot or
// passed to a call: its body is checked with in seeded, like Step's.
//
// Passing in to a helper is not an escape at the call site; the helper
// is a Step-path function with contracts of its own.
//
// Suppress a deliberate retention (poisoning fixtures) with
// //muvet:allow stepalias(reason).
var StepAlias = &analysis.Analyzer{
	Name: "stepalias",
	Doc:  "the Step inbox parameter must not escape the Step invocation",
	Run:  runStepAlias,
}

func runStepAlias(pass *analysis.Pass) error {
	ck := &escapeCheck{
		pass: pass, report: reporter(pass),
		noun: "Step inbox",
		why:  "in aliases an engine buffer reused at the node's next Step (copy the messages instead)",
	}
	ck.checkMethods(isStepMethod, 1)
	return nil
}
