package muvet

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"

	"mucongest/internal/tools/muvet/analysis"
)

// InboxAlias statically enforces the Tick inbox aliasing contract: the
// slice returned by Tick aliases an engine-owned buffer that is reused
// for the node's next delivery, so it is valid only until the node's
// next Tick (or Idle) call and must never outlive the round. This is
// the compile-time complement of `-tags simdebug` poisoning, which
// turns the same violations into runtime sentinels.
//
// Escapes are the shared lifetime rule of escape.go, seeded by every
// Tick call: a value carrying the inbox (the Tick result, a copy, a
// sub-slice, an element address, a composite or function literal
// holding one) must not be stored in a field, a container or through a
// pointer, assigned to a variable declared outside the function, sent,
// appended as a slice value (append(dst, inbox...) copies and is fine),
// handed to a go statement, or returned.
//
// Use-after-invalidation (reading an inbox variable after a later
// Tick/Idle call on the same context) is a reaching fact over the
// function's control-flow graph (analysis.BuildCFG): a binding that
// flows around a loop back edge into a yield is stale on the next
// iteration even when the yield sits textually after the use, and a
// yield on a branch that returns before the use does not poison the
// fall-through path.
//
// Suppress deliberate violations (e.g. the simdebug poisoning test)
// with //muvet:allow inboxalias(reason).
var InboxAlias = &analysis.Analyzer{
	Name: "inboxalias",
	Doc:  "flag Tick inbox slices escaping their round or read after the next Tick",
	Run:  runInboxAlias,
}

// Inbox fact bits: FRESH marks a live binding to the latest Tick
// result; STALE marks a binding whose buffer a later yield on the same
// context has retired (on at least one path).
const (
	inboxFresh = tracked
	inboxStale = tracked << 1
)

// inboxAlias is one pass's stale-read state, shared by every body.
type inboxAlias struct {
	escapeCheck
	// bindRecv remembers, per variable bound to a Tick result, the
	// receiver of that Tick (flow-insensitively; it only scopes
	// invalidation to the same context).
	bindRecv map[types.Object]types.Object
	// bindEnds are the ends of the assignments to each variable, and
	// yields every Tick/Idle call: the textual record that words a
	// stale-use diagnostic.
	bindEnds map[types.Object][]token.Pos
	yields   []inboxYield
}

type inboxYield struct {
	pos  token.Pos
	recv types.Object
}

func runInboxAlias(pass *analysis.Pass) error {
	info := pass.TypesInfo
	ia := &inboxAlias{
		bindRecv: map[types.Object]types.Object{},
		bindEnds: map[types.Object][]token.Pos{},
	}
	ia.escapeCheck = escapeCheck{
		pass: pass, report: reporter(pass),
		noun:    "inbox slice",
		why:     "it aliases an engine buffer valid only until the next Tick (copy the messages instead)",
		returns: true,
		source: func(e ast.Expr) analysis.FlowState {
			if _, ok := isTickCall(info, e); ok {
				return inboxFresh
			}
			return 0
		},
		visit: ia.visit,
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					id, _ := lhs.(*ast.Ident)
					obj := analysis.ObjOf(info, id) // nil unless lhs names a variable
					if obj == nil {
						continue
					}
					ia.bindEnds[obj] = append(ia.bindEnds[obj], n.End())
					if i < len(n.Rhs) {
						if recv, ok := isTickCall(info, ast.Unparen(n.Rhs[i])); ok {
							ia.bindRecv[obj] = recv
						}
					}
				}
			case *ast.CallExpr:
				if recv, ok := isYieldCall(info, n); ok {
					ia.yields = append(ia.yields, inboxYield{pos: n.Pos(), recv: recv})
				}
			}
			return true
		})
	}
	// Every function body is checked: a declaration's here, a literal's
	// from the body enclosing it (seeded with what it captures), and a
	// package-level literal's here.
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					ia.check(n.Type, n.Body, nil)
				}
				return false
			case *ast.FuncLit:
				ia.check(n.Type, n.Body, nil)
				return false
			}
			return true
		})
	}
	return nil
}

// isTickCall matches a method call spelled x.Tick() with no arguments
// whose static result is a slice — the inbox-producing call on either
// engine's Ctx or on the shared sim.Node contract. It returns the root
// identifier object of the receiver when it is a plain identifier.
func isTickCall(info *types.Info, n ast.Node) (recv types.Object, ok bool) {
	call, isCall := n.(*ast.CallExpr)
	if !isCall || len(call.Args) != 0 {
		return nil, false
	}
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel || sel.Sel.Name != "Tick" {
		return nil, false
	}
	if tv, ok := info.Types[call]; !ok || tv.Type == nil {
		return nil, false
	} else if _, isSlice := tv.Type.Underlying().(*types.Slice); !isSlice {
		return nil, false
	}
	if id, isID := sel.X.(*ast.Ident); isID {
		recv = analysis.ObjOf(info, id)
	}
	return recv, true
}

// isYieldCall matches Tick and Idle method calls — the points at which
// a previously delivered inbox is invalidated.
func isYieldCall(info *types.Info, n ast.Node) (recv types.Object, ok bool) {
	call, isCall := n.(*ast.CallExpr)
	if !isCall {
		return nil, false
	}
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel || (sel.Sel.Name != "Tick" && sel.Sel.Name != "Idle") {
		return nil, false
	}
	if _, isMethod := info.Uses[sel.Sel].(*types.Func); !isMethod {
		return nil, false
	}
	if id, isID := sel.X.(*ast.Ident); isID {
		recv = analysis.ObjOf(info, id)
	}
	return recv, true
}

// sameCtx reports whether two receiver objects may be the same node
// context. Unknown receivers are treated conservatively as matching.
func sameCtx(a, b types.Object) bool {
	if a == nil || b == nil {
		return true
	}
	return a == b
}

// visit is inboxalias's own transfer over one node: a Tick or Idle
// retires the fresh bindings on its context, and, when reporting, a
// read of a retired binding is a stale use. Yields and reads are taken
// in source order, which is evaluation order within a node.
func (ia *inboxAlias) visit(f analysis.Facts, n ast.Node, report bool) {
	info := ia.pass.TypesInfo
	var writes []ast.Expr // plain assignment targets are not reads
	if asg, ok := n.(*ast.AssignStmt); ok {
		writes = asg.Lhs
	}
	analysis.Inspect(n, func(m ast.Node) bool {
		if recv, ok := isYieldCall(info, m); ok {
			for obj, st := range f {
				if st&inboxFresh != 0 && sameCtx(ia.bindRecv[obj], recv) {
					f[obj] = st&^inboxFresh | inboxStale
				}
			}
		}
		id, ok := m.(*ast.Ident)
		if !report || !ok || slices.Contains(writes, ast.Expr(id)) {
			return true
		}
		obj := analysis.ObjOf(info, id)
		if f[obj]&inboxStale == 0 {
			return true
		}
		if ia.yieldBetween(obj, id.Pos()) {
			ia.report(id.Pos(), "use of inbox %s after a later Tick: the engine reused its buffer at that barrier (bind a fresh Tick result or copy before ticking)", id.Name)
		} else {
			ia.report(id.Pos(), "use of inbox %s inside a loop that Ticks without rebinding it: stale after the first iteration (bind the Tick result each iteration)", id.Name)
		}
		return true
	})
}

// yieldBetween reports whether some yield on the binding's context
// sits textually between a bind of obj and the use: the straight-line
// staleness shape. Otherwise the staleness arrived over a loop back
// edge and the diagnostic says so.
func (ia *inboxAlias) yieldBetween(obj types.Object, use token.Pos) bool {
	for _, bindEnd := range ia.bindEnds[obj] {
		for _, y := range ia.yields {
			if bindEnd < y.pos && y.pos < use && sameCtx(ia.bindRecv[obj], y.recv) {
				return true
			}
		}
	}
	return false
}
