package analysis

// flow.go: a reaching-values escape lattice over the CFG.
//
// The analyzers that track engine-owned values (Tick inboxes, Step
// inbox parameters, node contexts) all need the same question answered
// at every program point: "which local variables may hold a tracked
// value here, and in which state?" Facts map variables (types.Object)
// to a small bitmask; the forward solver joins facts with set union, so
// the analysis is a classic may-analysis: a variable is reported when
// ANY path gives it a violating state. This layer knows no value: the
// three lifetime analyzers share one alias rule (which expressions
// carry a tracked value) and one set of escape sinks in the muvet
// package's escape.go, which passes the rule to ApplyAssign as eval.
// Only inboxalias adds a transfer of its own, the Tick/Idle
// invalidation behind its stale-read check.

import (
	"go/ast"
	"go/types"
)

// FlowState is the abstract state of one variable: an analyzer-defined
// bitmask. Zero means untracked.
type FlowState uint32

// Facts maps in-scope variables to their abstract state at one program
// point. Variables absent from the map are untracked.
type Facts map[types.Object]FlowState

// Clone returns an independent copy.
func (f Facts) Clone() Facts {
	g := make(Facts, len(f))
	for k, v := range f {
		g[k] = v
	}
	return g
}

// Join unions other into f (may-analysis) and reports whether f grew.
func (f Facts) Join(other Facts) bool {
	changed := false
	for k, v := range other {
		if f[k]|v != f[k] {
			f[k] |= v
			changed = true
		}
	}
	return changed
}

// Forward runs the forward worklist dataflow to a fixpoint and returns
// each block's entry facts. transfer must compute a block's exit facts
// from (a private copy of) its entry facts without retaining either.
// Because Join only grows facts and FlowState is finite, the fixpoint
// exists and the iteration terminates.
func (c *CFG) Forward(transfer func(b *Block, in Facts) Facts) map[*Block]Facts {
	return c.ForwardSeeded(nil, transfer)
}

// ForwardSeeded is Forward with initial facts joined into the entry
// block — how parameter-carried values (a Step method's inbox slice, a
// Node method's context) enter the analysis, since no statement binds
// them.
func (c *CFG) ForwardSeeded(seed Facts, transfer func(b *Block, in Facts) Facts) map[*Block]Facts {
	in := make(map[*Block]Facts, len(c.Blocks))
	for _, b := range c.Blocks {
		in[b] = Facts{}
	}
	if seed != nil {
		in[c.Entry()].Join(seed)
	}
	// Seed every block, not just the entry: a block can GENERATE facts
	// from an empty entry state (a bind inside a loop body), so each
	// transfer must run at least once even if the block's entry facts
	// never grow.
	work := make([]*Block, 0, len(c.Blocks))
	queued := make(map[*Block]bool, len(c.Blocks))
	for _, b := range c.Blocks {
		work = append(work, b)
		queued[b] = true
	}
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		queued[b] = false
		out := transfer(b, in[b].Clone())
		for _, s := range b.Succs {
			if in[s].Join(out) && !queued[s] {
				queued[s] = true
				work = append(work, s)
			}
		}
	}
	return in
}

// ApplyAssign is the shared assignment semantics of the value-tracking
// transfers: for each LHS variable of an assignment-like node, set its
// state to eval(RHS) — killing it when the RHS is untracked. eval sees
// the RHS expression under the current facts. Handled shapes:
//
//   - x = e, x := e (element-wise when counts match);
//   - multi-value forms (x, y := f()) kill every plain LHS variable —
//     the tracked sources all produce single values;
//   - var declarations with initializers;
//   - range statements kill their key/value variables (range over a
//     tracked slice yields element copies, not the buffer).
//
// Assignments through selectors or indexes (x.f = e, m[k] = e) are not
// variable bindings and are left to the analyzer's escape checks.
func ApplyAssign(info *types.Info, f Facts, n ast.Node, eval func(Facts, ast.Expr) FlowState) {
	setIdent := func(lhs ast.Expr, st FlowState) {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		obj := ObjOf(info, id)
		if obj == nil {
			return
		}
		if st == 0 {
			delete(f, obj)
		} else {
			f[obj] = st
		}
	}
	switch n := n.(type) {
	case *ast.AssignStmt:
		if len(n.Lhs) == len(n.Rhs) {
			// Evaluate every RHS under the pre-state first: `a, b = b, a`
			// swaps states, it does not smear them.
			states := make([]FlowState, len(n.Rhs))
			for i, rhs := range n.Rhs {
				states[i] = eval(f, rhs)
			}
			for i, lhs := range n.Lhs {
				setIdent(lhs, states[i])
			}
			return
		}
		for _, lhs := range n.Lhs {
			setIdent(lhs, 0)
		}
	case *ast.DeclStmt:
		gd, ok := n.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for i, name := range vs.Names {
				st := FlowState(0)
				if i < len(vs.Values) && len(vs.Values) == len(vs.Names) {
					st = eval(f, vs.Values[i])
				}
				setIdent(name, st)
			}
		}
	case *ast.RangeStmt:
		setIdent(n.Key, 0)
		setIdent(n.Value, 0)
	}
}

// ObjOf resolves an identifier to its object (use or definition).
func ObjOf(info *types.Info, id *ast.Ident) types.Object {
	if o := info.Uses[id]; o != nil {
		return o
	}
	return info.Defs[id]
}
