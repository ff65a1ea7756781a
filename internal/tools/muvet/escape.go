package muvet

// escape.go: the lifetime rule shared by inboxalias, stepalias and
// ctxretain. Each tracks a value the engine lends for a bounded
// lifetime (a Tick inbox until the node's next Tick, a Step inbox until
// Step returns, the node context for the node's own execution) and
// reports where that value, or anything carrying it, reaches a sink
// that outlives the lifetime. The analyzers differ only in what they
// seed and name; the alias rule (eval) and the sinks are written once.

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"

	"mucongest/internal/tools/muvet/analysis"
)

// tracked is the fact of a variable that may carry the value.
const tracked analysis.FlowState = 1

// escapeCheck is one analyzer's instance of the shared rule.
type escapeCheck struct {
	pass   *analysis.Pass
	report func(token.Pos, string, ...any)
	// noun names the value in findings ("node context"); why closes
	// each finding with the lifetime the escape breaks.
	noun, why string
	// returns makes a return statement a sink: a Tick inbox must not
	// outlive its round, while a Step or Node result is the node's own
	// execution.
	returns bool
	// source, when set, gives the fact of an expression that produces a
	// fresh value (inboxalias: a Tick call).
	source func(ast.Expr) analysis.FlowState
	// visit, when set, is the analyzer's own transfer over one node. It
	// runs before the node's assignment effect, in the fixpoint and
	// again, with report true, in the reporting walk.
	visit func(f analysis.Facts, n ast.Node, report bool)
}

// checkMethods checks every method match accepts, seeded with its
// param-th parameter. An unnamed or blank parameter cannot escape.
func (ck *escapeCheck) checkMethods(match func(*types.Info, *ast.FuncDecl) (string, bool), param int) {
	info := ck.pass.TypesInfo
	for _, f := range ck.pass.Files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if _, ok := match(info, fn); ok {
				if obj := paramObj(info, fn, param); obj != nil {
					ck.check(fn.Type, fn.Body, analysis.Facts{obj: tracked})
				}
			}
		}
	}
}

// check runs the fixpoint over one function's body, seeded with the
// parameters that carry the value, then replays every block from its
// entry facts, testing each node against the sinks before its own
// effect applies. A function literal met on the way is a function of
// its own, seeded with the carried variables it reads.
func (ck *escapeCheck) check(typ *ast.FuncType, body *ast.BlockStmt, seed analysis.Facts) {
	cfg := analysis.BuildCFG(body)
	in := cfg.ForwardSeeded(seed, func(b *analysis.Block, f analysis.Facts) analysis.Facts {
		for _, n := range b.Nodes {
			ck.transfer(f, n, false)
		}
		return f
	})
	for _, b := range cfg.Blocks {
		f := in[b].Clone()
		for _, n := range b.Nodes {
			ck.sinks(f, n, typ, body)
			ck.transfer(f, n, true)
		}
	}
}

func (ck *escapeCheck) transfer(f analysis.Facts, n ast.Node, report bool) {
	if ck.visit != nil {
		ck.visit(f, n, report)
	}
	analysis.ApplyAssign(ck.pass.TypesInfo, f, n, ck.eval)
}

// eval is the alias rule: the fact an expression carries under f. A
// variable carries its own; a sub-slice, an element or variable
// address, a field selection or method value, a composite literal and
// a function literal carry those of what they hold, read or bind. An
// element copy in[i] or a call result carries nothing unless source
// says so.
func (ck *escapeCheck) eval(f analysis.Facts, e ast.Expr) analysis.FlowState {
	e = ast.Unparen(e)
	if ck.source != nil {
		if st := ck.source(e); st != 0 {
			return st
		}
	}
	switch e := e.(type) {
	case *ast.Ident:
		return f[analysis.ObjOf(ck.pass.TypesInfo, e)]
	case *ast.SliceExpr:
		return ck.eval(f, e.X)
	case *ast.SelectorExpr:
		return ck.eval(f, e.X) // h.in reads h; c.Idle binds c
	case *ast.UnaryExpr:
		if e.Op != token.AND {
			return 0
		}
		// &in[i] and &in[i].Msg.A point into in's buffer: strip the
		// field selections before looking for the element.
		x := ast.Unparen(e.X)
		for sel, ok := x.(*ast.SelectorExpr); ok; sel, ok = x.(*ast.SelectorExpr) {
			x = ast.Unparen(sel.X)
		}
		if ix, ok := x.(*ast.IndexExpr); ok {
			return ck.eval(f, ix.X)
		}
		return ck.eval(f, e.X)
	case *ast.CompositeLit:
		var st analysis.FlowState
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			st |= ck.eval(f, el)
		}
		return st
	case *ast.FuncLit:
		var st analysis.FlowState
		for _, s := range ck.reads(f, e) {
			st |= s
		}
		return st
	}
	return 0
}

// reads returns the carried variables a function literal reads, with
// their facts under f.
func (ck *escapeCheck) reads(f analysis.Facts, lit *ast.FuncLit) analysis.Facts {
	got := analysis.Facts{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := analysis.ObjOf(ck.pass.TypesInfo, id); f[obj] != 0 {
				got[obj] = f[obj]
			}
		}
		return true
	})
	return got
}

// sinks reports the carried values node n hands to something that
// outlives the function: a store into a field, a container or through
// a pointer, an assignment to a variable declared outside it, a channel
// send, append's element list, a go statement, and a return when
// returns is set.
func (ck *escapeCheck) sinks(f analysis.Facts, n ast.Node, typ *ast.FuncType, body *ast.BlockStmt) {
	carried := func(e ast.Expr) bool { return ck.eval(f, e) != 0 }
	analysis.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.AssignStmt:
			if len(m.Lhs) != len(m.Rhs) {
				break // x, y := f(): no source yields two values
			}
			for i, lhs := range m.Lhs {
				if carried(m.Rhs[i]) {
					ck.store(m.Pos(), lhs, typ, body)
				}
			}
		case *ast.SendStmt:
			if carried(m.Value) {
				ck.escape(m.Pos(), "sent on a channel")
			}
		case *ast.GoStmt:
			if carried(m.Call.Fun) || slices.ContainsFunc(m.Call.Args, carried) {
				ck.escape(m.Pos(), "passed to a goroutine")
			}
		case *ast.ReturnStmt:
			if ck.returns && slices.ContainsFunc(m.Results, carried) {
				ck.escape(m.Pos(), "returned from the function")
			}
		case *ast.CallExpr:
			// append(dst, v...) copies v's elements; append(dst, v) keeps v.
			if id, ok := m.Fun.(*ast.Ident); ok && id.Name == "append" && m.Ellipsis == token.NoPos {
				for _, arg := range m.Args[1:] {
					if carried(arg) {
						ck.escape(arg.Pos(), "stored via append")
					}
				}
			}
		case *ast.FuncLit:
			ck.check(m.Type, m.Body, ck.reads(f, m))
		}
		return true
	})
}

// store reports a carried value assigned to lhs when lhs outlives the
// function. A variable declared in its signature or body does not,
// except a named result when returns is set; a package variable or one
// a literal captures does.
func (ck *escapeCheck) store(pos token.Pos, lhs ast.Expr, typ *ast.FuncType, body *ast.BlockStmt) {
	switch l := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		obj := analysis.ObjOf(ck.pass.TypesInfo, l)
		switch {
		case obj == nil:
		case obj.Pos() < typ.Pos() || obj.Pos() > body.End():
			ck.escape(pos, "assigned to "+l.Name+", declared outside this function")
		case ck.returns && typ.Results != nil && obj.Pos() >= typ.Results.Pos() && obj.Pos() < typ.Results.End():
			ck.escape(pos, "assigned to result "+l.Name)
		}
	case *ast.SelectorExpr:
		ck.escape(pos, "stored in field "+l.Sel.Name)
	case *ast.IndexExpr:
		ck.escape(pos, "stored into a container")
	case *ast.StarExpr:
		ck.escape(pos, "stored through a pointer")
	}
}

func (ck *escapeCheck) escape(pos token.Pos, how string) {
	ck.report(pos, "%s %s: %s", ck.noun, how, ck.why)
}
