package muvet

import (
	"go/ast"
	"go/token"
	"go/types"

	"mucongest/internal/tools/muvet/analysis"
)

// NoDeterm forbids nondeterminism sources in the packages whose output
// is pinned byte-for-bit (engine, reference engine, record layer,
// differential harness):
//
//   - time.Now / time.Since values feeding a serialized struct field
//     (json/csv-tagged, not "-") or a fmt formatting call. Wall time
//     may be measured — bench.Record.WallTime does — as long as it
//     never reaches serialized bytes.
//   - the global math/rand RNG (rand.Intn etc. without an explicit
//     Source); all engine randomness must flow through seeded streams.
//   - `range` over a map whose body is order-sensitive: appends,
//     string building, emitted rows/records, first- or last-writer-wins
//     assignments to outer variables. The sorted-keys idiom
//     (`for k := range m { keys = append(keys, k) }` + sort) and pure
//     order-insensitive aggregation (counters, min/max, map writes)
//     are recognized and allowed.
//
// Suppress a deliberate exception with //muvet:allow nodeterm(reason).
var NoDeterm = &analysis.Analyzer{
	Name: "nodeterm",
	Doc:  "forbid wall-clock, global-RNG and map-order nondeterminism in determinism-pinned packages",
	Run:  runNoDeterm,
}

// nodetermScope lists the packages whose observable behavior is pinned
// bit-for-bit by golden digests and the differential harness.
var nodetermScope = []string{
	"mucongest/internal/sim",
	"mucongest/internal/sim/refsim",
	"mucongest/internal/bench",
	"mucongest/internal/harness",
}

// globalRandFuncs are the math/rand (and v2) package-level functions
// that draw from the unseeded process-global RNG.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Seed": true, "Read": true,
	"N": true, "IntN": true, "Int32": true, "Int32N": true, "Int64N": true,
	"Uint32N": true, "Uint64N": true, "UintN": true, "Uint": true,
}

// fmtFormatFuncs are the fmt formatting entry points treated as
// serialization sinks for tainted values.
var fmtFormatFuncs = map[string]bool{
	"Sprint": true, "Sprintf": true, "Sprintln": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
	"Print": true, "Printf": true, "Println": true,
	"Errorf": true, "Appendf": true, "Append": true, "Appendln": true,
}

// orderSensitiveMethods are method names whose invocation inside a map
// range makes iteration order observable: buffered/emitted output and
// engine effects.
var orderSensitiveMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"AddRow": true, "AddRecord": true, "Emit": true,
	"Send": true, "SendID": true, "Broadcast": true, "Charge": true, "Release": true,
}

func runNoDeterm(pass *analysis.Pass) error {
	if !inScope(pass.ImportPath, nodetermScope...) {
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
			checkGlobalRand(pass, fn, report)
			checkTimeTaint(pass, fn, report)
			checkMapRange(pass, fn, report)
		}
	}
	return nil
}

// checkGlobalRand flags calls to the process-global math/rand RNG.
func checkGlobalRand(pass *analysis.Pass, fn *ast.FuncDecl, report func(token.Pos, string, ...any)) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		path, name := pkgFunc(pass.TypesInfo, call)
		if (path == "math/rand" || path == "math/rand/v2") && globalRandFuncs[name] {
			report(call.Pos(), "call to global math/rand.%s: derive randomness from a seeded stream (sim.ShardStreamSeed or the node RNG)", name)
		}
		return true
	})
}

// isWallClockCall matches time.Now and time.Since calls.
func isWallClockCall(info *types.Info, n ast.Node) (string, bool) {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return "", false
	}
	if path, name := pkgFunc(info, call); path == "time" && (name == "Now" || name == "Since") {
		return "time." + name, true
	}
	return "", false
}

// checkTimeTaint flags wall-clock values that reach serialized bytes:
// it taints variables assigned from time.Now/time.Since within the
// function, then reports fmt formatting calls and serialized struct
// field writes whose value subtree contains a tainted variable or a
// direct wall-clock call.
func checkTimeTaint(pass *analysis.Pass, fn *ast.FuncDecl, report func(token.Pos, string, ...any)) {
	info := pass.TypesInfo
	tainted := map[types.Object]bool{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		asg, ok := n.(*ast.AssignStmt)
		if !ok || len(asg.Lhs) != len(asg.Rhs) {
			return true
		}
		for i, rhs := range asg.Rhs {
			if _, ok := isWallClockCall(info, rhs); !ok {
				continue
			}
			if id, ok := asg.Lhs[i].(*ast.Ident); ok {
				if obj := analysis.ObjOf(info, id); obj != nil {
					tainted[obj] = true
				}
			}
		}
		return true
	})
	hasTaint := func(e ast.Expr) (string, bool) {
		var src string
		found := contains(e, func(n ast.Node) bool {
			if s, ok := isWallClockCall(info, n); ok {
				src = s
				return true
			}
			if id, ok := n.(*ast.Ident); ok {
				if obj := analysis.ObjOf(info, id); obj != nil && tainted[obj] {
					src = id.Name + " (from time.Now/time.Since)"
					return true
				}
			}
			return false
		})
		return src, found
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if path, name := pkgFunc(info, n); path == "fmt" && fmtFormatFuncs[name] {
				for _, arg := range n.Args {
					if src, ok := hasTaint(arg); ok {
						report(arg.Pos(), "wall-clock value %s formatted by fmt.%s: output must be deterministic", src, name)
					}
				}
			}
		case *ast.CompositeLit:
			checkSerializedFields(info, n, hasTaint, report)
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if i >= len(n.Rhs) {
					break
				}
				sel, ok := lhs.(*ast.SelectorExpr)
				if !ok {
					continue
				}
				if fieldIsSerialized(info, sel) {
					if src, ok := hasTaint(n.Rhs[i]); ok {
						report(n.Rhs[i].Pos(), "wall-clock value %s written to serialized field %s", src, sel.Sel.Name)
					}
				}
			}
		}
		return true
	})
}

// checkSerializedFields inspects a struct composite literal and reports
// tainted values assigned to serialized (json/csv-tagged) fields.
func checkSerializedFields(info *types.Info, lit *ast.CompositeLit,
	hasTaint func(ast.Expr) (string, bool), report func(token.Pos, string, ...any)) {
	st, ok := structTypeOf(info, lit)
	if !ok {
		return
	}
	for _, el := range lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i).Name() == key.Name && isSerializedField(st, i) {
				if src, ok := hasTaint(kv.Value); ok {
					report(kv.Value.Pos(), "wall-clock value %s assigned to serialized field %s", src, key.Name)
				}
			}
		}
	}
}

// structTypeOf resolves a composite literal to its underlying struct
// type, unwrapping named types and pointers.
func structTypeOf(info *types.Info, lit *ast.CompositeLit) (*types.Struct, bool) {
	tv, ok := info.Types[lit]
	if !ok {
		return nil, false
	}
	t := tv.Type
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	return st, ok
}

// fieldIsSerialized reports whether sel names a serialized struct
// field.
func fieldIsSerialized(info *types.Info, sel *ast.SelectorExpr) bool {
	obj, ok := info.Uses[sel.Sel].(*types.Var)
	if !ok || !obj.IsField() {
		return false
	}
	recv, ok := info.Types[sel.X]
	if !ok {
		return false
	}
	t := recv.Type
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i) == obj {
			return isSerializedField(st, i)
		}
	}
	return false
}

// checkMapRange flags map iteration whose body observes the iteration
// order.
func checkMapRange(pass *analysis.Pass, fn *ast.FuncDecl, report func(token.Pos, string, ...any)) {
	info := pass.TypesInfo
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
			return true
		}
		if pos, why, sensitive := orderSensitiveSink(info, rng); sensitive {
			report(pos, "map iteration order reaches %s: collect and sort the keys first (or //muvet:allow nodeterm(reason))", why)
		}
		return true
	})
}

// isSortedKeysIdiom recognizes `for k := range m { keys = append(keys, k) }`.
func isSortedKeysIdiom(rng *ast.RangeStmt) bool {
	if len(rng.Body.List) != 1 {
		return false
	}
	asg, ok := rng.Body.List[0].(*ast.AssignStmt)
	if !ok || asg.Tok != token.ASSIGN || len(asg.Lhs) != 1 || len(asg.Rhs) != 1 {
		return false
	}
	call, ok := asg.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return false
	}
	if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "append" {
		return false
	}
	key, ok := rng.Key.(*ast.Ident)
	if !ok {
		return false
	}
	arg, ok := call.Args[1].(*ast.Ident)
	return ok && arg.Name == key.Name
}

// orderSensitiveSink scans a map-range body for a construct that makes
// iteration order observable. Order-insensitive aggregation — counters
// (x += v, x++), map writes (m[k] = v), min/max selection guarded by a
// </> comparison — passes; appends, string building, emitted output,
// channel sends and overwrite-style assignments to variables declared
// outside the loop do not. The walk keeps the stack of enclosing
// nodes so assignments can see their guarding if conditions.
func orderSensitiveSink(info *types.Info, rng *ast.RangeStmt) (token.Pos, string, bool) {
	var pos token.Pos
	var why string
	var stack []ast.Node
	declaredOutside := func(id *ast.Ident) bool {
		obj := analysis.ObjOf(info, id)
		return obj != nil && (obj.Pos() < rng.Pos() || obj.Pos() > rng.End())
	}
	found := false
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			pos, why, found = n.Pos(), "a channel send", true
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "append" {
				pos, why, found = n.Pos(), "an append", true
				break
			}
			if path, name := pkgFunc(info, n); path == "fmt" && fmtFormatFuncs[name] {
				pos, why, found = n.Pos(), "fmt."+name, true
				break
			}
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && orderSensitiveMethods[sel.Sel.Name] {
				pos, why, found = n.Pos(), "method "+sel.Sel.Name, true
			}
		case *ast.AssignStmt:
			if p, w, bad := orderSensitiveAssign(info, n, stack, declaredOutside); bad {
				pos, why, found = p, w, true
			}
		}
		return true
	})
	return pos, why, found
}

// orderSensitiveAssign classifies one assignment inside a map-range
// body. String concatenation and plain overwrites of outer variables
// are order-sensitive; numeric accumulation, map-index writes and
// assignments guarded by a </> comparison (min/max idiom) are not.
func orderSensitiveAssign(info *types.Info, asg *ast.AssignStmt, stack []ast.Node,
	declaredOutside func(*ast.Ident) bool) (token.Pos, string, bool) {
	switch asg.Tok {
	case token.ADD_ASSIGN:
		if lhs, ok := asg.Lhs[0].(*ast.Ident); ok {
			if tv, ok := info.Types[lhs]; ok {
				if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
					return asg.Pos(), "string concatenation", true
				}
			}
		}
	case token.ASSIGN:
		appendRHS := false
		if len(asg.Rhs) == 1 {
			if call, ok := asg.Rhs[0].(*ast.CallExpr); ok {
				if fid, ok := call.Fun.(*ast.Ident); ok && fid.Name == "append" {
					appendRHS = true
				}
			}
		}
		for _, lhs := range asg.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || id.Name == "_" || !declaredOutside(id) {
				continue // blank, loop-local, or an index/field write
			}
			if appendRHS {
				return asg.Pos(), "an append", true
			}
			if guardedByComparison(info, stack, analysis.ObjOf(info, id)) {
				continue // min/max selection: order-insensitive
			}
			return asg.Pos(), "an overwrite of " + id.Name + " (first/last writer wins)", true
		}
	}
	return 0, "", false
}

// guardedByComparison reports whether an enclosing if condition
// compares obj with </<=/>/>= — the min/max selection idiom, whose
// fixed point is iteration-order independent.
func guardedByComparison(info *types.Info, stack []ast.Node, obj types.Object) bool {
	if obj == nil {
		return false
	}
	for _, anc := range stack {
		ifs, ok := anc.(*ast.IfStmt)
		if !ok {
			continue
		}
		bin, ok := ifs.Cond.(*ast.BinaryExpr)
		if !ok {
			continue
		}
		switch bin.Op {
		case token.LSS, token.LEQ, token.GTR, token.GEQ:
			if contains(bin, func(n ast.Node) bool {
				i, ok := n.(*ast.Ident)
				return ok && analysis.ObjOf(info, i) == obj
			}) {
				return true
			}
		}
	}
	return false
}
