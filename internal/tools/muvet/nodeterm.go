package muvet

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"mucongest/internal/tools/muvet/analysis"
)

// NoDeterm forbids nondeterminism sources in the packages whose output
// is pinned byte for byte (engine, reference engine, record layer,
// differential harness):
//
//   - a nondeterministic value reaching serialized bytes: a fmt
//     formatting call, or a serialized field (json/csv-tagged, not "-")
//     of any struct. The sources are wall-clock reads (time.Now,
//     time.Since), pointer identity (a %p verb, %v on a pointer, a
//     uintptr or unsafe.Pointer conversion) and the variables assigned
//     from either; a serialized field also takes no time.Time or
//     time.Duration variable. Wall time may be measured —
//     bench.Record.WallTime is json:"-" — as long as it never reaches
//     serialized bytes.
//   - the global math/rand RNG (rand.Intn etc. without an explicit
//     Source); all engine randomness must flow through seeded streams.
//   - `range` over a map whose body is order-sensitive: appends,
//     string building, emitted rows/records, first- or last-writer-wins
//     assignments to outer variables. The sorted-keys idiom
//     (`for k := range m { keys = append(keys, k) }` + sort) and pure
//     order-insensitive aggregation (counters, min/max, map writes)
//     are recognized and allowed.
//   - in the engine pair (sim, refsim), a generator key that is not a
//     sanctioned derivation. The argument of rand.NewSource, and of a
//     Seed method on a math/rand type or on the engine's fault stream,
//     must come from sim.ShardStreamSeed (the per-shard OrderRandom
//     streams), sim.FaultStreamSeed (the fault streams) or the node
//     rule `seed*1_000_003 + int64(id)`. Ad-hoc seeding silently
//     re-keys golden digests and breaks refsim/engine parity.
//
// Suppress a deliberate exception with //muvet:allow nodeterm(reason).
var NoDeterm = &analysis.Analyzer{
	Name: "nodeterm",
	Doc:  "forbid wall-clock, pointer-identity, global-RNG, ad-hoc seed and map-order nondeterminism in determinism-pinned packages",
	Run:  runNoDeterm,
}

// nodetermScope lists the packages whose observable behavior is pinned
// bit-for-bit by golden digests and the differential harness, the
// engine pair first.
var nodetermScope = []string{
	"mucongest/internal/sim",
	"mucongest/internal/sim/refsim",
	"mucongest/internal/bench",
	"mucongest/internal/harness",
}

// engineScope is the engine pair, whose RNG keys refsim and the golden
// digests mirror: the only part of nodetermScope with the seed rule.
var engineScope = nodetermScope[:2]

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

// nodeRNGFactor is the documented node-RNG derivation multiplier
// (Ctx.Rand streams are keyed seed*1_000_003 + id on both engines).
const nodeRNGFactor = "1_000_003"

func runNoDeterm(pass *analysis.Pass) error {
	if !inScope(pass.ImportPath, nodetermScope...) {
		return nil
	}
	engine := inScope(pass.ImportPath, engineScope...)
	report := reporter(pass)
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f.Pos()) {
			continue
		}
		checkRand(pass.TypesInfo, f, engine, report)
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkTaint(pass.TypesInfo, fn, report)
			checkMapRange(pass.TypesInfo, fn, report)
		}
	}
	return nil
}

// checkRand flags calls to the process-global math/rand RNG and, in
// the engine pair, generator keys that are not a sanctioned derivation.
func checkRand(info *types.Info, f *ast.File, engine bool, report func(token.Pos, string, ...any)) {
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if path, name := pkgFunc(info, call); (path == "math/rand" || path == "math/rand/v2") && globalRandFuncs[name] {
			report(call.Pos(), "call to global math/rand.%s: derive randomness from a seeded stream (sim.ShardStreamSeed or the node RNG)", name)
		}
		if !engine {
			return true
		}
		if what := reKey(info, call); what != "" && (len(call.Args) != 1 || !isBlessedSeed(call.Args[0])) {
			report(call.Pos(), "ad-hoc %s seed in the engine: derive it via sim.ShardStreamSeed(seed, shard), sim.FaultStreamSeed(seed, round, shard, kind) or the node rule seed*%s+int64(id) so refsim and the golden digests stay in sync", what, nodeRNGFactor)
		}
		return true
	})
}

// reKey names the generator key call sets — "rand.NewSource", or
// "<type>.Seed" for a Seed method of a math/rand type or of the
// engine's fault stream — or returns "" when call keys none.
func reKey(info *types.Info, call *ast.CallExpr) string {
	if path, name := pkgFunc(info, call); path == "math/rand" && name == "NewSource" {
		return "rand.NewSource"
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Name() != "Seed" || fn.Pkg() == nil {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	if recv := recvTypeName(sig); fn.Pkg().Path() == "math/rand" || recv == "faultStream" {
		return recv + ".Seed"
	}
	return ""
}

// isBlessedSeed recognizes the three sanctioned derivations:
//
//	ShardStreamSeed(seed, s)                  (any qualifier)
//	FaultStreamSeed(seed, round, shard, kind) (any qualifier)
//	<seed expr>*1_000_003 + <id expr>         (either operand order)
func isBlessedSeed(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		name := calleeName(e)
		return name == "ShardStreamSeed" || name == "FaultStreamSeed"
	case *ast.BinaryExpr:
		return e.Op == token.ADD && (isNodeRNGProduct(e.X) || isNodeRNGProduct(e.Y))
	}
	return false
}

// isNodeRNGProduct matches `x * 1_000_003` in either operand order.
func isNodeRNGProduct(e ast.Expr) bool {
	bin, ok := ast.Unparen(e).(*ast.BinaryExpr)
	if !ok || bin.Op != token.MUL {
		return false
	}
	for _, x := range []ast.Expr{bin.X, bin.Y} {
		if lit, ok := ast.Unparen(x).(*ast.BasicLit); ok && (lit.Value == nodeRNGFactor || lit.Value == "1000003") {
			return true
		}
	}
	return false
}

// checkTaint flags nondeterministic values that reach serialized
// bytes. It first taints the variables assigned or declared straight
// from a source, then reports each fmt formatting call and each
// serialized field write whose value contains a source, a tainted
// variable, or — for a field — any time.Time or time.Duration
// variable. A finding sits at the source, so one value reaching
// several sinks is reported once.
func checkTaint(info *types.Info, fn *ast.FuncDecl, report func(token.Pos, string, ...any)) {
	tainted := map[types.Object]string{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		var lhs, rhs []ast.Expr
		switch n := n.(type) {
		case *ast.AssignStmt:
			lhs, rhs = n.Lhs, n.Rhs
		case *ast.ValueSpec:
			for _, id := range n.Names {
				lhs = append(lhs, id)
			}
			rhs = n.Values
		}
		if len(lhs) != len(rhs) {
			return true
		}
		for i, v := range rhs {
			id, ok := lhs[i].(*ast.Ident)
			if src := taintSource(info, ast.Unparen(v)); ok && src != "" {
				if obj := analysis.ObjOf(info, id); obj != nil {
					tainted[obj] = src
				}
			}
		}
		return true
	})
	// find returns the first nondeterministic value in e's subtree: its
	// position and description, or "" when there is none.
	find := func(e ast.Node, field bool) (pos token.Pos, src string) {
		contains(e, func(n ast.Node) bool {
			pos, src = n.Pos(), taintSource(info, n)
			if id, ok := n.(*ast.Ident); ok {
				obj := analysis.ObjOf(info, id)
				if s, ok := tainted[obj]; ok {
					src = s + " via " + id.Name
				} else if v, ok := obj.(*types.Var); ok && field && isTimeType(v.Type()) {
					src = v.Type().String() + " value " + id.Name
				}
			}
			return src != ""
		})
		return pos, src
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if path, name := pkgFunc(info, n); path == "fmt" && fmtFormatFuncs[name] {
				if pos, src := find(n, false); src != "" {
					report(pos, "%s formatted by fmt.%s: output must be deterministic", src, name)
				}
			}
		case *ast.CompositeLit:
			for _, el := range n.Elts {
				kv, ok := el.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				if key, ok := kv.Key.(*ast.Ident); ok && serialized(info.TypeOf(n), info.Uses[key]) {
					if pos, src := find(kv.Value, true); src != "" {
						report(pos, "%s assigned to serialized field %s", src, key.Name)
					}
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				sel, ok := lhs.(*ast.SelectorExpr)
				if !ok || i >= len(n.Rhs) || !serialized(info.TypeOf(sel.X), info.Uses[sel.Sel]) {
					continue
				}
				if pos, src := find(n.Rhs[i], true); src != "" {
					report(pos, "%s written to serialized field %s", src, sel.Sel.Name)
				}
			}
		}
		return true
	})
}

// taintSource describes n if it is a nondeterministic value — a
// wall-clock read, or pointer identity (a fmt call that renders an
// address, a conversion to uintptr or unsafe.Pointer) — and returns ""
// otherwise.
func taintSource(info *types.Info, n ast.Node) string {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return ""
	}
	if path, name := pkgFunc(info, call); path == "time" && (name == "Now" || name == "Since") {
		return "wall-clock value time." + name
	}
	if what, ok := fmtPointerVerb(info, call); ok {
		return "pointer identity (" + what + ")"
	}
	if tv := info.Types[call.Fun]; tv.IsType() {
		if b, ok := tv.Type.Underlying().(*types.Basic); ok && (b.Kind() == types.Uintptr || b.Kind() == types.UnsafePointer) {
			return "pointer identity (" + tv.Type.String() + " conversion)"
		}
	}
	return ""
}

// fmtPointerVerb reports whether a fmt formatting call renders pointer
// identity: a %p verb, a %v applied to a pointer-typed argument, or,
// without a literal format (a Print-style call, or a format held in a
// variable), any pointer-typed argument.
func fmtPointerVerb(info *types.Info, call *ast.CallExpr) (string, bool) {
	path, name := pkgFunc(info, call)
	if path != "fmt" || !fmtFormatFuncs[name] {
		return "", false
	}
	args := call.Args
	if len(args) > 0 && (strings.HasPrefix(name, "F") || strings.HasPrefix(name, "Append")) {
		args = args[1:] // the io.Writer or the buffer
	}
	var lit *ast.BasicLit
	if len(args) > 0 && strings.HasSuffix(name, "f") {
		lit, _ = ast.Unparen(args[0]).(*ast.BasicLit)
	}
	switch {
	case lit == nil || lit.Kind != token.STRING:
		return "pointer argument", hasPointerArg(info, args)
	case strings.Contains(lit.Value, "%p"):
		return "%p", true
	}
	return "%v on a pointer", strings.Contains(lit.Value, "%v") && hasPointerArg(info, args[1:])
}

// hasPointerArg reports whether any argument prints as an address.
func hasPointerArg(info *types.Info, args []ast.Expr) bool {
	for _, a := range args {
		if t := info.TypeOf(a); t != nil {
			switch t.Underlying().(type) {
			case *types.Pointer, *types.Chan, *types.Signature:
				return true
			}
		}
	}
	return false
}

// isTimeType reports whether t is time.Time or time.Duration.
func isTimeType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "time" && (obj.Name() == "Time" || obj.Name() == "Duration")
}

// serialized reports whether field is a serialized field of the struct
// t (or *t): its tag carries a json: or csv: key that is not "-".
// Fields without such a tag are treated as not serialized.
func serialized(t types.Type, field types.Object) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i) != field {
			continue
		}
		for _, key := range []string{"json", "csv"} {
			if v, ok := lookupTag(st.Tag(i), key); ok && v != "-" {
				return true
			}
		}
	}
	return false
}

// checkMapRange flags map iteration whose body observes the iteration
// order.
func checkMapRange(info *types.Info, fn *ast.FuncDecl, report func(token.Pos, string, ...any)) {
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
