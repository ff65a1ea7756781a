// Package muvet is the repo's static contract checker: eight analyzers
// that enforce, at `go vet` time, the engine invariants the runtime
// safety net (simdebug poisoning, golden determinism digests, the
// 0-alloc round pin, the refsim differential harness) can only catch
// after a violation executes.
//
//	nodeterm     no nondeterminism sources feeding serialized output
//	inboxalias   Tick inboxes must not escape their round
//	shardrng     engine RNGs derive from ShardStreamSeed / the node rule
//	hotalloc     //muvet:hotpath functions stay allocation-free
//	recordpurity bench.Record stays byte-deterministic
//	stepblock    Step methods and their callees never block, spawn or yield
//	stepalias    the Step inbox parameter never escapes the invocation
//	ctxretain    Program.Node never retains the node context
//
// The step-contract analyzers and the rebased inboxalias/hotalloc run
// on a shared per-function control-flow graph with a reaching-values
// lattice (internal/tools/muvet/analysis), so branch, loop back-edge
// and panic-path reasoning are dataflow facts rather than source-order
// heuristics. inboxalias, stepalias and ctxretain are one lifetime
// check (escape.go) with different seeds: one alias rule decides which
// expressions carry the tracked value, one set of sinks decides where
// it must not go, and a capturing closure is judged like the value it
// captures. Every analyzer reports through one helper (reporter), which
// applies //muvet:allow and keeps one finding per position.
//
// # Annotation grammar
//
// Findings are suppressed line by line with
//
//	//muvet:allow <analyzer>(<reason>)
//
// placed on the offending line or the line directly above it. The
// reason is mandatory — an empty pair of parentheses does not parse —
// so every suppression documents why the contract does not apply.
// Several analyzers can be allowed at once:
//
//	//muvet:allow nodeterm(cold path) hotalloc(warmup only)
//
// Hot-path functions opt in to the hotalloc check with a doc-comment
// directive on the declaration:
//
//	//muvet:hotpath
//	func (c *Ctx) Send(port int, m Msg) { ... }
package muvet

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"

	"mucongest/internal/tools/muvet/analysis"
)

// Suite returns the eight analyzers in reporting order.
func Suite() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		NoDeterm, InboxAlias, ShardRNG, HotAlloc, RecordPurity,
		StepBlock, StepAlias, CtxRetain,
	}
}

// stripTestVariant normalizes the import path of a test variant
// ("pkg [pkg.test]") to the base package path.
func stripTestVariant(path string) string {
	if i := strings.Index(path, " ["); i >= 0 {
		return path[:i]
	}
	return path
}

// inScope reports whether path (already normalized) is one of the
// given repo package paths.
func inScope(path string, pkgs ...string) bool {
	for _, p := range pkgs {
		if path == p {
			return true
		}
	}
	return false
}

// isTestFile reports whether pos sits in a _test.go file.
func isTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

// allowRx matches one clause of a //muvet:allow comment: the analyzer
// name followed by a parenthesized non-empty reason.
var allowRx = regexp.MustCompile(`([a-z]+)\(([^()]+)\)`)

// reporter returns the report function every analyzer uses. A finding
// is dropped when a //muvet:allow comment names the analyzer on its
// line or the line above (so both the end-of-line and the line-above
// placement work), and only the first finding at a position is kept.
func reporter(pass *analysis.Pass) func(pos token.Pos, format string, args ...any) {
	type line struct {
		file string
		n    int
	}
	allowed := map[line]bool{}
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//muvet:allow")
				if !ok {
					continue
				}
				p := pass.Fset.Position(c.Pos())
				for _, m := range allowRx.FindAllStringSubmatch(text, -1) {
					if m[1] == pass.Analyzer.Name {
						allowed[line{p.Filename, p.Line}] = true
						allowed[line{p.Filename, p.Line + 1}] = true
					}
				}
			}
		}
	}
	seen := map[token.Pos]bool{}
	return func(pos token.Pos, format string, args ...any) {
		p := pass.Fset.Position(pos)
		if seen[pos] || allowed[line{p.Filename, p.Line}] {
			return
		}
		seen[pos] = true
		pass.Reportf(pos, format, args...)
	}
}

// hasHotpathDirective reports whether a function declaration carries
// the //muvet:hotpath doc directive.
func hasHotpathDirective(fn *ast.FuncDecl) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if c.Text == "//muvet:hotpath" || strings.HasPrefix(c.Text, "//muvet:hotpath ") {
			return true
		}
	}
	return false
}

// contains reports whether the subtree rooted at n contains a node for
// which pred returns true.
func contains(n ast.Node, pred func(ast.Node) bool) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if found || m == nil {
			return false
		}
		if pred(m) {
			found = true
			return false
		}
		return true
	})
	return found
}

// pkgFunc resolves a call to a package-level function and returns its
// package path and name ("" , "" when the callee is not one, e.g. a
// method or a local closure).
func pkgFunc(info *types.Info, call *ast.CallExpr) (path, name string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", ""
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return "", "" // method, not a package-level function
	}
	return fn.Pkg().Path(), fn.Name()
}

// calleeName returns the bare selector or identifier name a call is
// spelled with (the syntactic callee), e.g. "ShardStreamSeed" for both
// ShardStreamSeed(...) and sim.ShardStreamSeed(...).
func calleeName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// isSerializedField reports whether the struct field obj is part of a
// serialized encoding: its tag carries a json: or csv: key that is not
// "-". Fields without such a tag are treated as not serialized.
func isSerializedField(s *types.Struct, i int) bool {
	tag := s.Tag(i)
	for _, key := range []string{"json", "csv"} {
		v, ok := lookupTag(tag, key)
		if ok && v != "-" {
			return true
		}
	}
	return false
}

// lookupTag is a minimal reflect.StructTag.Lookup clone (value up to
// the first comma), avoiding a reflect dependency in the analyzers.
func lookupTag(tag, key string) (string, bool) {
	for tag != "" {
		tag = strings.TrimLeft(tag, " ")
		i := strings.Index(tag, ":\"")
		if i < 0 {
			break
		}
		name := tag[:i]
		rest := tag[i+2:]
		j := strings.Index(rest, `"`)
		if j < 0 {
			break
		}
		val := rest[:j]
		tag = rest[j+1:]
		if name == key {
			if k := strings.Index(val, ","); k >= 0 {
				val = val[:k]
			}
			return val, true
		}
	}
	return "", false
}
