package muvet

import (
	"go/ast"
	"go/token"
	"go/types"

	"mucongest/internal/tools/muvet/analysis"
)

// HotAlloc turns the TestSteadyStateRoundAllocFree runtime pin into a
// per-line review gate: functions annotated //muvet:hotpath must not
// contain constructs that allocate on the steady-state path —
//
//   - fmt formatting calls (Sprintf and family);
//   - map and slice composite literals;
//   - make / new calls;
//   - append onto a freshly made slice or slice literal (uncapped
//     growth every call);
//   - string concatenation and string<->[]byte conversions (a
//     conversion between slice types copies nothing and passes);
//   - function literals capturing outer variables (potential closure
//     allocation);
//   - explicit conversions to an interface type (boxing).
//
// Cold sub-paths are exempt without annotation, and computed on the
// function's control-flow graph rather than by syntactic enclosure:
//
//   - blocks dominated by the THEN branch of an if whose condition
//     reads cap(...) — the grow-on-demand warmup idiom, which stops
//     allocating once buffers reach steady-state capacity. The else
//     branch and the join stay hot: only the guarded growth itself is
//     exempt (the first-generation pass exempted the whole if,
//     silently passing allocations in the else arm);
//   - blocks from which every path ends in panic (abort paths run at
//     most once). This subsumes the old panic-argument exemption and
//     extends it to the build-the-message-then-panic shape, which the
//     old pass flagged.
//
// Everything else needs //muvet:allow hotalloc(reason) with a
// justification.
var HotAlloc = &analysis.Analyzer{
	Name: "hotalloc",
	Doc:  "//muvet:hotpath functions must not allocate on the steady-state path",
	Run:  runHotAlloc,
}

func runHotAlloc(pass *analysis.Pass) error {
	report := reporter(pass)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !hasHotpathDirective(fn) {
				continue
			}
			checkHotFunc(pass, fn, report)
		}
	}
	return nil
}

// checkHotFunc builds the function's CFG, marks the cold blocks, and
// runs the allocating-construct checks over every hot block's nodes.
func checkHotFunc(pass *analysis.Pass, fn *ast.FuncDecl, report func(token.Pos, string, ...any)) {
	cfg := analysis.BuildCFG(fn.Body)
	cold := coldBlocks(fn.Body, cfg)
	for _, b := range cfg.Blocks {
		if cold[b] {
			continue
		}
		for _, n := range b.Nodes {
			checkHotNode(pass, fn, n, report)
		}
	}
}

// coldBlocks computes the blocks off the steady-state path: those on
// which every outgoing path panics, and those dominated by the then
// branch of a cap-reading if (warmup growth).
func coldBlocks(body *ast.BlockStmt, cfg *analysis.CFG) map[*analysis.Block]bool {
	cold := map[*analysis.Block]bool{}

	// Backwards all-paths-panic fixpoint. A block ending in panic seeds
	// the set; a block whose every successor is doomed joins it.
	for _, b := range cfg.Blocks {
		if endsInPanic(b) {
			cold[b] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for _, b := range cfg.Blocks {
			if cold[b] || b == cfg.Exit || len(b.Succs) == 0 {
				continue
			}
			doomed := true
			for _, s := range b.Succs {
				if !cold[s] {
					doomed = false
					break
				}
			}
			if doomed {
				cold[b] = true
				changed = true
			}
		}
	}

	// Warmup growth: every block dominated by the then-successor of a
	// cap-guard if. Dominance (rather than lexical enclosure) scopes the
	// exemption to exactly the guarded branch.
	var capConds []ast.Expr
	analysis.Inspect(body, func(n ast.Node) bool {
		if ifs, ok := n.(*ast.IfStmt); ok && condReadsCap(ifs.Cond) {
			capConds = append(capConds, ifs.Cond)
		}
		return true
	})
	if len(capConds) > 0 {
		idom := cfg.Dominators()
		for _, cond := range capConds {
			head := blockOf(cfg, cond)
			if head == nil || len(head.Succs) == 0 {
				continue
			}
			// Builder invariant: the first successor added to the block
			// holding an if condition is the then branch.
			thenB := head.Succs[0]
			for _, b := range cfg.Blocks {
				if analysis.Dominated(idom, b, thenB) {
					cold[b] = true
				}
			}
		}
	}
	return cold
}

// endsInPanic reports whether the block's last node is a direct
// panic(...) statement.
func endsInPanic(b *analysis.Block) bool {
	if len(b.Nodes) == 0 {
		return false
	}
	es, ok := b.Nodes[len(b.Nodes)-1].(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}

// blockOf finds the block holding a given node.
func blockOf(cfg *analysis.CFG, n ast.Node) *analysis.Block {
	for _, b := range cfg.Blocks {
		for _, m := range b.Nodes {
			if m == n {
				return b
			}
		}
	}
	return nil
}

// checkHotNode walks one block node keeping the enclosing-node stack,
// so constructs nested in a panic argument (inside function literals,
// which the CFG does not model) stay exempt. A RangeStmt node carries
// its whole statement in the loop-head block; its Body belongs to other
// blocks and is skipped here.
func checkHotNode(pass *analysis.Pass, fn *ast.FuncDecl, root ast.Node, report func(token.Pos, string, ...any)) {
	info := pass.TypesInfo
	var rangeBody *ast.BlockStmt
	if rs, ok := root.(*ast.RangeStmt); ok {
		rangeBody = rs.Body
	}
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if rangeBody != nil && n == ast.Node(rangeBody) {
			return false
		}
		stack = append(stack, n)
		if inPanicArg(stack) {
			return true
		}
		switch n := n.(type) {
		case *ast.CompositeLit:
			if tv, ok := info.Types[n]; ok {
				switch tv.Type.Underlying().(type) {
				case *types.Map:
					report(n.Pos(), "map literal allocates in hot path %s", fn.Name.Name)
				case *types.Slice:
					report(n.Pos(), "slice literal allocates in hot path %s", fn.Name.Name)
				}
			}
		case *ast.CallExpr:
			checkHotCall(pass, fn, n, report)
		case *ast.FuncLit:
			if captures(info, n) {
				report(n.Pos(), "capturing closure in hot path %s may allocate per call (hoist it or //muvet:allow hotalloc(reason) if proven non-escaping)", fn.Name.Name)
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isStringType(info, n) {
				report(n.Pos(), "string concatenation allocates in hot path %s", fn.Name.Name)
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isStringType(info, n.Lhs[0]) {
				report(n.Pos(), "string concatenation allocates in hot path %s", fn.Name.Name)
			}
		}
		return true
	})
}

// checkHotCall classifies one call inside a hot function.
func checkHotCall(pass *analysis.Pass, fn *ast.FuncDecl, call *ast.CallExpr, report func(token.Pos, string, ...any)) {
	info := pass.TypesInfo
	if path, name := pkgFunc(info, call); path == "fmt" && fmtFormatFuncs[name] {
		report(call.Pos(), "fmt.%s allocates in hot path %s", name, fn.Name.Name)
		return
	}
	id, ok := call.Fun.(*ast.Ident)
	if ok {
		switch id.Name {
		case "make":
			report(call.Pos(), "make allocates in hot path %s (pre-size in setup, or guard with a cap() check for warmup growth)", fn.Name.Name)
			return
		case "new":
			report(call.Pos(), "new allocates in hot path %s", fn.Name.Name)
			return
		case "append":
			if len(call.Args) > 0 && isFreshSlice(call.Args[0]) {
				report(call.Pos(), "append onto a fresh slice allocates every call in hot path %s (reuse a buffer)", fn.Name.Name)
			}
			return
		case "string":
			report(call.Pos(), "string conversion allocates in hot path %s", fn.Name.Name)
			return
		}
	}
	// Explicit conversions: []byte(s) copies its string, and T(x) to an
	// interface boxes x. A conversion between slice types shares the
	// operand's backing array, so only a string operand is reported.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		switch tv.Type.Underlying().(type) {
		case *types.Slice:
			if len(call.Args) == 1 && isStringType(info, call.Args[0]) {
				report(call.Pos(), "slice conversion allocates in hot path %s", fn.Name.Name)
			}
		case *types.Interface:
			report(call.Pos(), "interface conversion boxes its operand in hot path %s", fn.Name.Name)
		}
	}
}

// isFreshSlice reports whether the append base is allocated at the
// call site: a slice literal or a make call.
func isFreshSlice(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.CallExpr:
		if id, ok := e.Fun.(*ast.Ident); ok {
			return id.Name == "make"
		}
	}
	return false
}

// inPanicArg reports whether the enclosing-node stack places the
// current node inside a panic(...) argument.
func inPanicArg(stack []ast.Node) bool {
	for i, n := range stack {
		if call, ok := n.(*ast.CallExpr); ok && i < len(stack)-1 {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

// condReadsCap reports whether an if condition contains a cap(...)
// call — the warmup grow-guard idiom.
func condReadsCap(cond ast.Expr) bool {
	return contains(cond, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := call.Fun.(*ast.Ident)
		return ok && id.Name == "cap"
	})
}

// captures reports whether a function literal references identifiers
// declared outside it (other than package-level objects, whose use
// never forces a closure allocation by itself).
func captures(info *types.Info, lit *ast.FuncLit) bool {
	return contains(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return false
		}
		obj := analysis.ObjOf(info, id)
		v, isVar := obj.(*types.Var)
		if !isVar || v.IsField() {
			return false
		}
		if v.Pkg() == nil || v.Parent() == v.Pkg().Scope() {
			return false // package-level variable, not a capture
		}
		return v.Pos() < lit.Pos() || v.Pos() > lit.End()
	})
}

// isStringType reports whether e's static type is a string.
func isStringType(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}
