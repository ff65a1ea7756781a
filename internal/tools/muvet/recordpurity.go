package muvet

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"mucongest/internal/tools/muvet/analysis"
)

// RecordPurity structurally pins the mucongest.records/v1 byte-identity
// contract: every serialized bench.Record field must be a deterministic
// function of (cell, seed). In package bench it flags, for Record
// composite literals and Record field assignments:
//
//   - wall-clock values (time.Now / time.Since results, or any value of
//     type time.Time / time.Duration) in any field except WallTime,
//     which is json:"-" by contract;
//   - pointer identity: fmt verbs %p (and %v applied to a pointer), or
//     uintptr / unsafe.Pointer conversions;
//   - values computed inside (or from variables assigned inside) a
//     range over a map — iteration order would leak into the bytes.
//
// The same wall-clock and pointer checks apply to the emitters: any
// function whose name starts with WriteRecords.
//
// Suppress with //muvet:allow recordpurity(reason) — and say why the
// value is deterministic anyway.
var RecordPurity = &analysis.Analyzer{
	Name: "recordpurity",
	Doc:  "serialized bench.Record fields must stay byte-deterministic",
	Run:  runRecordPurity,
}

const recordPurityScope = "mucongest/internal/bench"

func runRecordPurity(pass *analysis.Pass) error {
	if !inScope(pass.ImportPath, recordPurityScope) {
		return nil
	}
	report := reporter(pass)
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkRecordWrites(pass, fn, report)
			if strings.HasPrefix(fn.Name.Name, "WriteRecords") {
				checkEmitterBody(pass, fn, report)
			}
		}
	}
	return nil
}

// mapRangeAssigned collects the variables assigned (plain or compound)
// inside the body of any range-over-map loop in fn — the carriers of
// iteration-order taint.
func mapRangeAssigned(info *types.Info, fn *ast.FuncDecl) map[types.Object]bool {
	tainted := map[types.Object]bool{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := info.Types[rng.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		if isSortedKeysIdiom(rng) {
			return true // keys get sorted before use; order never leaks
		}
		ast.Inspect(rng.Body, func(m ast.Node) bool {
			asg, ok := m.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for _, lhs := range asg.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
					if obj := analysis.ObjOf(info, id); obj != nil {
						tainted[obj] = true
					}
				}
			}
			return true
		})
		return true
	})
	return tainted
}

// isRecordType reports whether t (possibly pointer / named) is the
// bench Record struct.
func isRecordType(t types.Type) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Record"
}

// checkRecordWrites inspects Record composite literals and
// `rec.Field = v` assignments in one function.
func checkRecordWrites(pass *analysis.Pass, fn *ast.FuncDecl, report func(token.Pos, string, ...any)) {
	info := pass.TypesInfo
	mapTainted := mapRangeAssigned(info, fn)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			tv, ok := info.Types[n]
			if !ok || !isRecordType(tv.Type) {
				return true
			}
			for _, el := range n.Elts {
				kv, ok := el.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				key, ok := kv.Key.(*ast.Ident)
				if !ok || key.Name == "WallTime" {
					continue
				}
				checkRecordValue(pass, key.Name, kv.Value, mapTainted, report)
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if i >= len(n.Rhs) {
					break
				}
				sel, ok := lhs.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name == "WallTime" {
					continue
				}
				if recv, ok := info.Types[sel.X]; ok && isRecordType(recv.Type) {
					checkRecordValue(pass, sel.Sel.Name, n.Rhs[i], mapTainted, report)
				}
			}
		}
		return true
	})
}

// checkRecordValue applies the purity rules to one field value.
func checkRecordValue(pass *analysis.Pass, field string, v ast.Expr,
	mapTainted map[types.Object]bool, report func(token.Pos, string, ...any)) {
	info := pass.TypesInfo
	if src, ok := containsWallClock(info, v); ok {
		report(v.Pos(), "Record.%s set from wall clock (%s): serialized fields must be deterministic in (cell, seed)", field, src)
	}
	if ok, what := containsPointerIdentity(info, v); ok {
		report(v.Pos(), "Record.%s set from pointer identity (%s): addresses differ run to run", field, what)
	}
	if contains(v, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		return ok && mapTainted[analysis.ObjOf(info, id)]
	}) {
		report(v.Pos(), "Record.%s set from a value built under map iteration: encode with sorted keys instead", field)
	}
}

// checkEmitterBody applies the wall-clock and pointer rules to a
// WriteRecords* emitter as a whole.
func checkEmitterBody(pass *analysis.Pass, fn *ast.FuncDecl, report func(token.Pos, string, ...any)) {
	info := pass.TypesInfo
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		e, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		if _, ok := isWallClockCall(info, e); ok {
			report(e.Pos(), "wall-clock read inside emitter %s: mucongest.records/v1 output is byte-identity pinned", fn.Name.Name)
			return false
		}
		if call, isCall := e.(*ast.CallExpr); isCall {
			if ok, what := fmtPointerVerb(info, call); ok {
				report(call.Pos(), "pointer-formatting (%s) inside emitter %s: addresses differ run to run", what, fn.Name.Name)
				return false
			}
		}
		return true
	})
}

// containsWallClock reports whether the expression subtree reads the
// wall clock or mentions a time.Time / time.Duration value.
func containsWallClock(info *types.Info, e ast.Expr) (string, bool) {
	var src string
	found := contains(e, func(n ast.Node) bool {
		if s, ok := isWallClockCall(info, n); ok {
			src = s
			return true
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return false
		}
		obj := analysis.ObjOf(info, id)
		if obj == nil || obj.Type() == nil {
			return false
		}
		if named, ok := obj.Type().(*types.Named); ok {
			tn := named.Obj()
			if tn.Pkg() != nil && tn.Pkg().Path() == "time" && (tn.Name() == "Time" || tn.Name() == "Duration") {
				src = id.Name + " (time." + tn.Name() + ")"
				return true
			}
		}
		return false
	})
	return src, found
}

// containsPointerIdentity reports fmt %p verbs, %v-on-pointer, and
// uintptr / unsafe.Pointer conversions in the subtree.
func containsPointerIdentity(info *types.Info, e ast.Expr) (bool, string) {
	var what string
	found := contains(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return false
		}
		if ok, w := fmtPointerVerb(info, call); ok {
			what = w
			return true
		}
		if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
			if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Kind() == types.Uintptr {
				what = "uintptr conversion"
				return true
			}
			if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Kind() == types.UnsafePointer {
				what = "unsafe.Pointer conversion"
				return true
			}
		}
		return false
	})
	return found, what
}

// fmtPointerVerb reports whether a fmt formatting call renders pointer
// identity: a %p verb, or a %v applied to a pointer-typed argument.
func fmtPointerVerb(info *types.Info, call *ast.CallExpr) (bool, string) {
	path, name := pkgFunc(info, call)
	if path != "fmt" || !fmtFormatFuncs[name] {
		return false, ""
	}
	args := call.Args
	if strings.HasPrefix(name, "F") && len(args) > 0 {
		args = args[1:] // skip the io.Writer
	}
	if len(args) == 0 {
		return false, ""
	}
	lit, ok := ast.Unparen(args[0]).(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		// Non-literal format (or Sprint-style): fall back to checking
		// for pointer-typed arguments.
		return fmtHasPointerArg(info, args), "pointer argument"
	}
	if strings.Contains(lit.Value, "%p") {
		return true, "%p"
	}
	if strings.Contains(lit.Value, "%v") && fmtHasPointerArg(info, args[1:]) {
		return true, "%v on a pointer"
	}
	return false, ""
}

func fmtHasPointerArg(info *types.Info, args []ast.Expr) bool {
	for _, a := range args {
		tv, ok := info.Types[a]
		if !ok || tv.Type == nil {
			continue
		}
		switch tv.Type.Underlying().(type) {
		case *types.Pointer, *types.Chan, *types.Signature:
			return true
		}
	}
	return false
}
