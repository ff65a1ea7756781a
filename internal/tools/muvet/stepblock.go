package muvet

import (
	"go/ast"
	"go/token"
	"go/types"

	"mucongest/internal/tools/muvet/analysis"
)

// StepBlock enforces the core promise of goroutine-free step execution:
// a StepProgram runs INLINE on a delivery worker, so a Step method —
// and everything it transitively calls within the package — must never
// block, spawn, or yield. Flagged in the step path:
//
//   - channel operations: send, receive, select, range over a channel;
//   - go statements (a spawned goroutine defeats the zero-goroutine
//     accounting and can outlive the round);
//   - blocking sync primitives: sync.Mutex.Lock, sync.RWMutex.Lock /
//     RLock, sync.WaitGroup.Wait, sync.Cond.Wait;
//   - time.Sleep;
//   - Tick / Idle calls on a node context: the engine owns the round
//     boundary (Ctx.Tick panics at runtime inside a Step; this catches
//     it at vet time). Tick and Idle are reported as yields and their
//     bodies are not descended into — the barrier internals legally use
//     channels.
//
// Step methods are matched structurally (Step(ctx, in []Incoming) bool)
// so the same pass covers sim.StepProgram, refsim.StepNode and test
// doubles. The transitive walk follows static calls to functions and
// methods declared in the same package; interface calls are opaque.
//
// Suppress a deliberate violation (e.g. a fixture proving the runtime
// panic) with //muvet:allow stepblock(reason).
var StepBlock = &analysis.Analyzer{
	Name: "stepblock",
	Doc:  "Step methods and their callees must not block, spawn goroutines, or yield",
	Run:  runStepBlock,
}

func runStepBlock(pass *analysis.Pass) error {
	report := reporter(pass)
	decls := funcDeclOf(pass)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			recv, ok := isStepMethod(pass.TypesInfo, fn)
			if !ok {
				continue
			}
			entry := "(" + recv + ").Step"
			visited := map[*types.Func]bool{}
			checkStepPath(pass, decls, fn, entry, true, visited, report)
		}
	}
	return nil
}

// checkStepPath scans one function body reachable from a Step entry for
// blocking constructs, then follows its static same-package callees.
// direct distinguishes the Step body itself from transitively reached
// helpers (the diagnostics name the path).
func checkStepPath(pass *analysis.Pass, decls map[*types.Func]*ast.FuncDecl,
	fn *ast.FuncDecl, entry string, direct bool, visited map[*types.Func]bool,
	report func(token.Pos, string, ...any)) {

	info := pass.TypesInfo
	where := entry
	if !direct {
		where = fn.Name.Name + " (reachable from " + entry + ")"
	}
	var callees []*types.Func
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			report(n.Pos(), "channel send in %s: a goroutine-free step program runs inline on a delivery worker and must not block", where)
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				report(n.Pos(), "channel receive in %s: a goroutine-free step program runs inline on a delivery worker and must not block", where)
			}
		case *ast.SelectStmt:
			report(n.Pos(), "select statement in %s: a goroutine-free step program runs inline on a delivery worker and must not block", where)
		case *ast.GoStmt:
			report(n.Pos(), "goroutine spawned in %s: step execution is goroutine-free and a spawned goroutine can outlive the round", where)
		case *ast.RangeStmt:
			if tv, ok := info.Types[n.X]; ok && tv.Type != nil {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					report(n.Pos(), "range over a channel in %s: a goroutine-free step program runs inline on a delivery worker and must not block", where)
				}
			}
		case *ast.CallExpr:
			// Yields are matched on the selector, not the resolved callee:
			// the harness twins hold their context through an interface
			// (sim.Node), whose methods have no static body. Their
			// bodies — the barrier internals — legally use channels, so a
			// yield call is reported and never descended into.
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && isYieldName(sel.Sel.Name) {
				if m, ok := info.Uses[sel.Sel].(*types.Func); ok {
					if sig, ok := m.Type().(*types.Signature); ok && sig.Recv() != nil {
						report(n.Pos(), "%s called in %s: the engine owns the round boundary (return true from Step to end the round)", sel.Sel.Name, where)
						return true
					}
				}
			}
			if path, name := pkgFunc(info, n); path == "time" && name == "Sleep" {
				report(n.Pos(), "time.Sleep in %s: a goroutine-free step program runs inline on a delivery worker and must not block", where)
				return true
			}
			callee := staticCallee(info, n)
			if callee == nil {
				return true
			}
			if callee.Pkg() != nil && callee.Pkg().Path() == "sync" && syncWaitMethods[callee.Name()] {
				report(n.Pos(), "sync.%s in %s: a goroutine-free step program runs inline on a delivery worker and must not block", callee.Name(), where)
				return true
			}
			callees = append(callees, callee)
		}
		return true
	})
	for _, callee := range callees {
		next, ok := decls[callee]
		if !ok || visited[callee] {
			continue
		}
		visited[callee] = true
		checkStepPath(pass, decls, next, entry, false, visited, report)
	}
}

// syncWaitMethods are the blocking entry points of the sync package.
var syncWaitMethods = map[string]bool{
	"Lock": true, "RLock": true, "Wait": true,
}

// isYieldName reports whether a method name is a round-boundary yield.
func isYieldName(name string) bool {
	return name == "Tick" || name == "Idle"
}
