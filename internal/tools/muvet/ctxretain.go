package muvet

import "mucongest/internal/tools/muvet/analysis"

// CtxRetain enforces the Program.Node contract comment in
// internal/sim/step.go: "Node is called once per node during engine
// setup and may be called concurrently for distinct nodes; it must not
// retain c beyond the node's own execution." The returned StepProgram
// and func(*Ctx) ARE the node's execution, so handing c to them (s(c),
// &stepper{c: c} or a closure over c in a return statement) is the
// contract working as intended; a return is not a sink here. What must
// not happen is c leaking somewhere with a longer lifetime. The check
// is the shared lifetime rule of escape.go seeded with c: a value
// carrying it (a copy, its address, a composite literal embedding it, a
// closure reading it) must not be stored in a field (the Program value
// is shared by every node and outlives them all), a container or
// through a pointer, assigned to a package variable or an outer
// function's local, sent, retained via append, or handed to a go
// statement.
//
// Suppress a deliberate retention with //muvet:allow ctxretain(reason).
var CtxRetain = &analysis.Analyzer{
	Name: "ctxretain",
	Doc:  "Program.Node must not retain the node context beyond the node's execution",
	Run:  runCtxRetain,
}

func runCtxRetain(pass *analysis.Pass) error {
	ck := &escapeCheck{
		pass: pass, report: reporter(pass),
		noun: "node context",
		why:  "Node must not retain c beyond the node's own execution",
	}
	ck.checkMethods(isNodeMethod, 0)
	return nil
}
