package muvet

import (
	"go/ast"
	"go/token"
	"go/types"

	"mucongest/internal/tools/muvet/analysis"
)

// ShardRNG pins the engine's RNG derivation contract: inside the
// production engine and the reference engine, every seed a generator is
// keyed or re-keyed with — the argument of rand.NewSource, and of a
// Seed method on a math/rand type (*rand.Rand, rand.Source) or on the
// engine's fault stream (faultStream) — must come from
// sim.ShardStreamSeed (the per-shard OrderRandom streams),
// sim.FaultStreamSeed (the fault-injection streams keyed
// (seed, round, shard, kind)) or the documented node-RNG derivation
// `seed*1_000_003 + int64(id)`. Ad-hoc seeding — the PR-1-era
// `rand.NewSource(seed + something)` style, or a pooled stream re-keyed
// with `Seed(seed + 1)` — silently re-keys golden digests and breaks
// refsim/engine parity, so it fails vet.
//
// Suppress a deliberate new derivation (after updating refsim and the
// determinism docs) with //muvet:allow shardrng(reason).
var ShardRNG = &analysis.Analyzer{
	Name: "shardrng",
	Doc:  "engine RNG seeds and re-keys must derive from ShardStreamSeed, FaultStreamSeed or the node-RNG rule",
	Run:  runShardRNG,
}

var shardRNGScope = []string{
	"mucongest/internal/sim",
	"mucongest/internal/sim/refsim",
}

// nodeRNGFactor is the documented node-RNG derivation multiplier
// (Ctx.Rand streams are keyed seed*1_000_003 + id on both engines).
const nodeRNGFactor = "1_000_003"

func runShardRNG(pass *analysis.Pass) error {
	if !inScope(pass.ImportPath, shardRNGScope...) {
		return nil
	}
	report := reporter(pass)
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			what := reKey(pass.TypesInfo, call)
			if what == "" || len(call.Args) == 1 && isBlessedSeed(call.Args[0]) {
				return true
			}
			report(call.Pos(), "ad-hoc %s seed in the engine: derive it via sim.ShardStreamSeed(seed, shard), sim.FaultStreamSeed(seed, round, shard, kind) or the node rule seed*%s+int64(id) so refsim and the golden digests stay in sync", what, nodeRNGFactor)
			return true
		})
	}
	return nil
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
//	<seed expr>*1_000_003 + <id expr>
func isBlessedSeed(e ast.Expr) bool {
	e = ast.Unparen(e)
	if call, ok := e.(*ast.CallExpr); ok {
		name := calleeName(call)
		return name == "ShardStreamSeed" || name == "FaultStreamSeed"
	}
	bin, ok := e.(*ast.BinaryExpr)
	if !ok || bin.Op != token.ADD {
		return false
	}
	return isNodeRNGProduct(bin.X) || isNodeRNGProduct(bin.Y)
}

// isNodeRNGProduct matches `x * 1_000_003` in either operand order.
func isNodeRNGProduct(e ast.Expr) bool {
	bin, ok := ast.Unparen(e).(*ast.BinaryExpr)
	if !ok || bin.Op != token.MUL {
		return false
	}
	return isNodeRNGLit(bin.X) || isNodeRNGLit(bin.Y)
}

func isNodeRNGLit(e ast.Expr) bool {
	lit, ok := ast.Unparen(e).(*ast.BasicLit)
	return ok && lit.Kind == token.INT && (lit.Value == nodeRNGFactor || lit.Value == "1000003")
}
