package muvet

import (
	"go/ast"
	"go/token"
	"go/types"

	"mucongest/internal/tools/muvet/analysis"
)

// InboxAlias statically enforces the Tick inbox aliasing contract: the
// slice returned by Tick aliases an engine-owned buffer that is reused
// for the node's next delivery, so it is valid only until the node's
// next Tick (or Idle) call and must never outlive the round. This is
// the compile-time complement of `-tags simdebug` poisoning, which
// turns the same violations into runtime sentinels.
//
// Flagged escapes of an inbox value (the Tick result or a variable
// bound to it, directly or through local copies):
//
//   - assignment into a struct field, or into a variable declared
//     outside the function holding the inbox (package var or an outer
//     function's local captured by the program closure);
//   - a channel send;
//   - storing the slice itself via append(dst, inbox) — appending the
//     elements with append(dst, inbox...) copies and is fine;
//   - returning the inbox;
//   - capturing the inbox variable in a nested function literal.
//
// Use-after-invalidation — reading an inbox variable after a later
// Tick/Idle call on the same context — is computed as a reaching fact
// over the function's control-flow graph (analysis.BuildCFG): a
// binding that flows around a loop back edge into a yield is stale on
// the next iteration even when the yield sits textually after the use,
// and a yield on a branch that returns before the use does not poison
// the fall-through path. (The first-generation linear scan approximated
// both with source positions: it missed in-loop bindings going stale
// and flagged yields on paths that could not reach the use.)
//
// Suppress deliberate violations (e.g. the simdebug poisoning test)
// with //muvet:allow inboxalias(reason).
var InboxAlias = &analysis.Analyzer{
	Name: "inboxalias",
	Doc:  "flag Tick inbox slices escaping their round or read after the next Tick",
	Run:  runInboxAlias,
}

func runInboxAlias(pass *analysis.Pass) error {
	allow := buildAllowlist(pass)
	reported := map[token.Pos]bool{}
	report := func(pos token.Pos, format string, args ...any) {
		if reported[pos] || allow.allowed(pass.Fset, pos, "inboxalias") {
			return
		}
		reported[pos] = true
		pass.Reportf(pos, format, args...)
	}
	for _, f := range pass.Files {
		var frames []*ast.BlockStmt
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					frames = append(frames, n.Body)
				}
			case *ast.FuncLit:
				frames = append(frames, n.Body)
			}
			return true
		})
		for _, body := range frames {
			checkInboxFrame(pass, body, report)
		}
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
		recv = objOf(info, id)
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
		recv = objOf(info, id)
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

// Inbox fact bits: FRESH marks a live binding to the latest Tick
// result; STALE marks a binding whose buffer a later yield on the same
// context has retired (on at least one path).
const (
	inboxFresh analysis.FlowState = 1 << iota
	inboxStale
)

// inboxFrame carries the per-frame state shared by the transfer
// function and the reporting walk.
type inboxFrame struct {
	pass *analysis.Pass
	body *ast.BlockStmt
	// bindRecv remembers, per tracked variable, the receiver of the
	// Tick call that bound it (flow-insensitively; used only to scope
	// invalidation to the same context).
	bindRecv map[types.Object]types.Object
	// bindEnds are the source positions (assignment ends) at which each
	// variable was bound to a Tick result — the textual record used for
	// closure-capture detection and diagnostic wording.
	bindEnds map[types.Object][]token.Pos
	// yields are every Tick/Idle call site of the frame, in source
	// order, used to word stale-use diagnostics.
	yields []inboxYield
}

type inboxYield struct {
	pos  token.Pos
	recv types.Object
}

// checkInboxFrame analyzes one function body. Nested function literals
// are separate frames: their internals are skipped here except that
// reads of this frame's inbox variables inside them are capture
// escapes.
func checkInboxFrame(pass *analysis.Pass, body *ast.BlockStmt, report func(token.Pos, string, ...any)) {
	info := pass.TypesInfo
	fr := &inboxFrame{
		pass:     pass,
		body:     body,
		bindRecv: map[types.Object]types.Object{},
		bindEnds: map[types.Object][]token.Pos{},
	}

	// Textual pre-pass at this frame's nesting level: record bind sites
	// and yield sites (for diagnostics), and nested-literal captures.
	var litRanges [][2]token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			litRanges = append(litRanges, [2]token.Pos{lit.Pos(), lit.End()})
			return false
		}
		return true
	})
	inNestedLit := func(pos token.Pos) bool {
		for _, r := range litRanges {
			if r[0] <= pos && pos < r[1] {
				return true
			}
		}
		return false
	}
	analysis.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, rhs := range n.Rhs {
				recv, ok := isTickCall(info, ast.Unparen(rhs))
				if !ok {
					continue
				}
				if id, isID := n.Lhs[i].(*ast.Ident); isID && id.Name != "_" {
					if obj := objOf(info, id); obj != nil {
						fr.bindRecv[obj] = recv
						fr.bindEnds[obj] = append(fr.bindEnds[obj], n.End())
					}
				}
			}
		case *ast.CallExpr:
			if recv, ok := isYieldCall(info, n); ok {
				fr.yields = append(fr.yields, inboxYield{pos: n.Pos(), recv: recv})
			}
		}
		return true
	})

	// Capture escapes: a read of a frame-bound inbox variable inside a
	// nested literal outlives the round.
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || !inNestedLit(id.Pos()) {
			return true
		}
		obj := objOf(info, id)
		if obj == nil {
			return true
		}
		for _, bindEnd := range fr.bindEnds[obj] {
			if bindEnd <= id.Pos() {
				report(id.Pos(), "inbox variable %s captured by a nested function literal: the closure may outlive the round (copy the messages instead)", id.Name)
				break
			}
		}
		return true
	})

	if len(fr.bindEnds) == 0 {
		// No bound inbox variables: only direct Tick-result escapes are
		// possible; the reporting walk below still covers them, so run
		// it over trivially empty facts.
	}

	cfg := analysis.BuildCFG(body)
	eval := fr.evalInbox
	in := cfg.Forward(func(b *analysis.Block, f analysis.Facts) analysis.Facts {
		for _, n := range b.Nodes {
			fr.applyNode(f, n, nil)
		}
		return f
	})

	// Reporting walk: re-run each block's transfer from its fixpoint
	// entry facts, interleaving the escape and stale-use checks in
	// execution order.
	for _, b := range cfg.Blocks {
		f := in[b].Clone()
		for _, n := range b.Nodes {
			fr.checkEscapes(f, n, report)
			fr.applyNode(f, n, report)
		}
	}
	_ = eval
}

// evalInbox computes the abstract state of an expression: a direct Tick
// call is a fresh inbox; an identifier carries its variable's fact.
func (fr *inboxFrame) evalInbox(f analysis.Facts, e ast.Expr) analysis.FlowState {
	e = ast.Unparen(e)
	if _, ok := isTickCall(fr.pass.TypesInfo, e); ok {
		return inboxFresh
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := objOf(fr.pass.TypesInfo, id); obj != nil {
			return f[obj]
		}
	}
	return 0
}

// applyNode advances the facts over one block node: yields and ident
// reads are processed in source-position order (mirroring evaluation
// order within the statement), then the node's assignment effect is
// applied. When report is non-nil, stale reads are diagnosed.
func (fr *inboxFrame) applyNode(f analysis.Facts, n ast.Node, report func(token.Pos, string, ...any)) {
	info := fr.pass.TypesInfo

	// Idents that are plain assignment targets are writes, not reads.
	writes := map[*ast.Ident]bool{}
	analysis.Inspect(n, func(m ast.Node) bool {
		if asg, ok := m.(*ast.AssignStmt); ok {
			for _, lhs := range asg.Lhs {
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
					writes[id] = true
				}
			}
		}
		return true
	})

	type event struct {
		pos   token.Pos
		yield types.Object // receiver, for yield events
		isY   bool
		id    *ast.Ident // for read events
	}
	var events []event
	analysis.Inspect(n, func(m ast.Node) bool {
		if recv, ok := isYieldCall(info, m); ok {
			events = append(events, event{pos: m.Pos(), yield: recv, isY: true})
		}
		if id, ok := m.(*ast.Ident); ok && !writes[id] {
			events = append(events, event{pos: id.Pos(), id: id})
		}
		return true
	})
	// The AST walk is already in source order for siblings; a stable
	// sort by position makes it exact for nested shapes.
	for i := 1; i < len(events); i++ {
		for j := i; j > 0 && events[j].pos < events[j-1].pos; j-- {
			events[j], events[j-1] = events[j-1], events[j]
		}
	}
	for _, ev := range events {
		if ev.isY {
			for obj, st := range f {
				if st&inboxFresh != 0 && sameCtx(fr.bindRecv[obj], ev.yield) {
					f[obj] = (st &^ inboxFresh) | inboxStale
				}
			}
			continue
		}
		if report == nil {
			continue
		}
		obj := objOf(info, ev.id)
		if obj == nil || f[obj]&inboxStale == 0 {
			continue
		}
		if fr.linearYieldBetween(obj, ev.pos) {
			report(ev.pos, "use of inbox %s after a later Tick: the engine reused its buffer at that barrier (bind a fresh Tick result or copy before ticking)", ev.id.Name)
		} else {
			report(ev.pos, "use of inbox %s inside a loop that Ticks without rebinding it: stale after the first iteration (bind the Tick result each iteration)", ev.id.Name)
		}
	}

	analysis.ApplyAssign(info, f, n, fr.evalInbox)
}

// linearYieldBetween reports whether some yield on the binding's
// context sits textually between a bind of obj and the use — the
// straight-line staleness shape; otherwise the staleness arrived over a
// loop back edge and the diagnostic says so.
func (fr *inboxFrame) linearYieldBetween(obj types.Object, use token.Pos) bool {
	for _, bindEnd := range fr.bindEnds[obj] {
		for _, y := range fr.yields {
			if bindEnd < y.pos && y.pos < use && sameCtx(fr.bindRecv[obj], y.recv) {
				return true
			}
		}
	}
	return false
}

// checkEscapes diagnoses inbox values leaving the frame through one
// block node, under the facts holding at the node's entry.
func (fr *inboxFrame) checkEscapes(f analysis.Facts, n ast.Node, report func(token.Pos, string, ...any)) {
	info := fr.pass.TypesInfo
	isInbox := func(e ast.Expr) bool { return fr.evalInbox(f, e) != 0 }
	declaredOutsideFrame := func(obj types.Object) bool {
		return obj != nil && (obj.Pos() < fr.body.Pos() || obj.Pos() > fr.body.End())
	}
	analysis.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.AssignStmt:
			for i, lhs := range m.Lhs {
				if i >= len(m.Rhs) {
					break
				}
				if !isInbox(m.Rhs[i]) {
					continue
				}
				switch l := lhs.(type) {
				case *ast.SelectorExpr:
					report(m.Pos(), "inbox slice stored in field %s: it aliases an engine buffer valid only until the next Tick (copy the messages instead)", l.Sel.Name)
				case *ast.IndexExpr:
					report(m.Pos(), "inbox slice stored into a container: it aliases an engine buffer valid only until the next Tick (copy the messages instead)")
				case *ast.Ident:
					if lobj := objOf(info, l); declaredOutsideFrame(lobj) {
						report(m.Pos(), "inbox slice assigned to %s, declared outside this function: the buffer is reused at the next Tick (copy the messages instead)", l.Name)
					}
				}
			}
		case *ast.SendStmt:
			if isInbox(m.Value) {
				report(m.Pos(), "inbox slice sent on a channel: it aliases an engine buffer valid only until the next Tick (copy the messages instead)")
			}
		case *ast.ReturnStmt:
			for _, r := range m.Results {
				if isInbox(r) {
					report(m.Pos(), "inbox slice returned from the function: it aliases an engine buffer valid only until the next Tick (copy the messages instead)")
				}
			}
		case *ast.CallExpr:
			if id, ok := m.Fun.(*ast.Ident); ok && id.Name == "append" && m.Ellipsis == token.NoPos {
				for _, arg := range m.Args[1:] {
					if isInbox(arg) {
						report(arg.Pos(), "inbox slice stored via append: appending the slice value retains the engine buffer (use append(dst, inbox...) to copy the messages)")
					}
				}
			}
		}
		return true
	})
}
