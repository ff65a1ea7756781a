package analysis

// cfg.go: a per-function control-flow graph for the muvet analyzers.
//
// The linear single-pass analyzers of the first muvet generation
// approximated control flow with source positions ("a yield textually
// between the bind and the use") and ad-hoc loop-span scans. The CFG
// makes branches, loop back edges and defers explicit, so the dataflow
// passes in flow.go compute real reaching facts: a value bound inside a
// loop is stale on the second iteration even though the invalidating
// call sits textually after the use, and a yield on a path that returns
// before the use no longer poisons the fall-through path.
//
// The builder is deliberately modest — basic blocks of statement-level
// nodes with successor edges — but it is faithful for the constructs
// that appear in node programs and engine code: if/else, for and range
// loops (with back edges), switch/type-switch (including fallthrough),
// select, labeled break/continue/goto, and early exits via return and
// panic. Deferred calls are collected on the CFG (they run at every
// exit) and nested function literals are NOT descended into: each
// literal is a separate frame with its own CFG.

import (
	"go/ast"
	"go/token"
)

// Block is one basic block: a maximal straight-line sequence of
// statement-level nodes, executed in order, ending in a transfer of
// control to one of Succs.
type Block struct {
	// Index is the block's position in CFG.Blocks (entry is 0).
	Index int
	// Nodes holds the block's statements (and the control expressions
	// of enclosing constructs: an if condition, a switch tag, the range
	// statement itself) in execution order.
	Nodes []ast.Node
	// Succs are the possible control-flow successors.
	Succs []*Block
	// Preds are the predecessors (inverse of Succs).
	Preds []*Block
}

// CFG is the control-flow graph of one function body.
type CFG struct {
	// Blocks in allocation order; Blocks[0] is the entry.
	Blocks []*Block
	// Exit is the synthetic exit block every return, panic and final
	// fall-through edge leads to. It holds no nodes.
	Exit *Block
	// Defers are the deferred calls of the body in source order. They
	// execute at every exit from the function.
	Defers []*ast.CallExpr
}

// Entry returns the function's entry block.
func (c *CFG) Entry() *Block { return c.Blocks[0] }

// BuildCFG constructs the control-flow graph of one function body.
// Nested function literals are not descended into — build a separate
// CFG per literal.
func BuildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{cfg: &CFG{}, labels: map[string]*labelBlocks{}}
	b.cfg.Exit = b.newBlock() // allocated first so Blocks[0] can be entry; fixed below
	entry := b.newBlock()
	// Keep the documented invariant Blocks[0] == entry.
	b.cfg.Blocks[0], b.cfg.Blocks[1] = b.cfg.Blocks[1], b.cfg.Blocks[0]
	b.cfg.Blocks[0].Index, b.cfg.Blocks[1].Index = 0, 1
	b.cur = entry
	b.stmtList(body.List)
	b.edgeToExit()
	return b.cfg
}

// labelBlocks records the targets a label can transfer control to.
type labelBlocks struct {
	// dest is the block the labeled statement starts in (goto target).
	dest *Block
	// brk / cont are the break/continue targets when the labeled
	// statement is a loop, switch or select.
	brk, cont *Block
}

type cfgBuilder struct {
	cfg *CFG
	// cur is the block under construction; nil after a terminator
	// (return, panic, break, ...) until the next statement opens a
	// fresh — possibly unreachable — block.
	cur *Block
	// breaks / conts are the innermost break and continue targets.
	breaks []*Block
	conts  []*Block
	labels map[string]*labelBlocks
	// pendingLabel is set while building the statement of a
	// LabeledStmt, so loops and switches can register their break and
	// continue targets under the label.
	pendingLabel string
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

// use returns the block to append to, opening a fresh (unreachable)
// block when the previous statement terminated control flow.
func (b *cfgBuilder) use() *Block {
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	return b.cur
}

func (b *cfgBuilder) add(n ast.Node) {
	blk := b.use()
	blk.Nodes = append(blk.Nodes, n)
}

func edge(from, to *Block) {
	if from == nil || to == nil {
		return
	}
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// edgeToExit closes the current block into the synthetic exit.
func (b *cfgBuilder) edgeToExit() {
	edge(b.cur, b.cfg.Exit)
	b.cur = nil
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// takeLabel consumes the pending label for the construct that claims
// it, registering the given break/continue targets.
func (b *cfgBuilder) takeLabel(brk, cont *Block) {
	if b.pendingLabel == "" {
		return
	}
	lb := b.labels[b.pendingLabel]
	lb.brk, lb.cont = brk, cont
	b.pendingLabel = ""
}

// ensureLabel returns (creating on demand) the label record; forward
// gotos reference labels before their LabeledStmt is reached.
func (b *cfgBuilder) ensureLabel(name string) *labelBlocks {
	lb := b.labels[name]
	if lb == nil {
		lb = &labelBlocks{dest: b.newBlock()}
		b.labels[name] = lb
	}
	return lb
}

// isPanicCall matches a direct panic(...) call statement, a terminator
// for CFG purposes.
func isPanicCall(s ast.Stmt) bool {
	es, ok := s.(*ast.ExprStmt)
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

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.IfStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s.Cond)
		head := b.cur
		after := b.newBlock()
		thenB := b.newBlock()
		edge(head, thenB)
		b.cur = thenB
		b.stmtList(s.Body.List)
		edge(b.cur, after)
		if s.Else != nil {
			elseB := b.newBlock()
			edge(head, elseB)
			b.cur = elseB
			b.stmt(s.Else)
			edge(b.cur, after)
		} else {
			edge(head, after)
		}
		b.cur = after

	case *ast.ForStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		head := b.newBlock()
		edge(b.cur, head)
		b.cur = head
		if s.Cond != nil {
			b.add(s.Cond)
		}
		after := b.newBlock()
		if s.Cond != nil {
			edge(head, after)
		}
		cont := head
		var post *Block
		if s.Post != nil {
			post = b.newBlock()
			cont = post
		}
		b.takeLabel(after, cont)
		b.breaks = append(b.breaks, after)
		b.conts = append(b.conts, cont)
		body := b.newBlock()
		edge(head, body)
		b.cur = body
		b.stmtList(s.Body.List)
		if post != nil {
			edge(b.cur, post)
			post.Nodes = append(post.Nodes, s.Post)
			edge(post, head) // back edge
		} else {
			edge(b.cur, head) // back edge
		}
		b.breaks = b.breaks[:len(b.breaks)-1]
		b.conts = b.conts[:len(b.conts)-1]
		b.cur = after

	case *ast.RangeStmt:
		head := b.newBlock()
		edge(b.cur, head)
		// The range statement itself carries the per-iteration key and
		// value assignment; transfers treat it as such, and Inspect
		// walks only its key, value and operand.
		head.Nodes = append(head.Nodes, s)
		after := b.newBlock()
		edge(head, after)
		b.takeLabel(after, head)
		b.breaks = append(b.breaks, after)
		b.conts = append(b.conts, head)
		body := b.newBlock()
		edge(head, body)
		b.cur = body
		b.stmtList(s.Body.List)
		edge(b.cur, head) // back edge
		b.breaks = b.breaks[:len(b.breaks)-1]
		b.conts = b.conts[:len(b.conts)-1]
		b.cur = after

	case *ast.SwitchStmt, *ast.TypeSwitchStmt:
		var init ast.Stmt
		var guard ast.Node
		var clauses []ast.Stmt
		switch sw := s.(type) {
		case *ast.SwitchStmt:
			init, guard, clauses = sw.Init, sw.Tag, sw.Body.List
		case *ast.TypeSwitchStmt:
			init, guard, clauses = sw.Init, sw.Assign, sw.Body.List
		}
		if init != nil {
			b.stmt(init)
		}
		if guard != nil {
			b.add(guard)
		}
		head := b.use()
		after := b.newBlock()
		b.takeLabel(after, nil)
		b.breaks = append(b.breaks, after)
		// Allocate every clause block first so fallthrough can edge to
		// the next clause.
		blocks := make([]*Block, len(clauses))
		hasDefault := false
		for i, cl := range clauses {
			blocks[i] = b.newBlock()
			edge(head, blocks[i])
			if cc, ok := cl.(*ast.CaseClause); ok && cc.List == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			edge(head, after)
		}
		for i, cl := range clauses {
			cc := cl.(*ast.CaseClause)
			b.cur = blocks[i]
			for _, e := range cc.List {
				b.add(e)
			}
			fallsThrough := false
			bodyStmts := cc.Body
			if n := len(bodyStmts); n > 0 {
				if br, ok := bodyStmts[n-1].(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
					fallsThrough = true
					bodyStmts = bodyStmts[:n-1]
				}
			}
			b.stmtList(bodyStmts)
			if fallsThrough && i+1 < len(blocks) {
				edge(b.cur, blocks[i+1])
			} else {
				edge(b.cur, after)
			}
		}
		b.breaks = b.breaks[:len(b.breaks)-1]
		b.cur = after

	case *ast.SelectStmt:
		head := b.use()
		after := b.newBlock()
		b.takeLabel(after, nil)
		b.breaks = append(b.breaks, after)
		for _, cl := range s.Body.List {
			cc := cl.(*ast.CommClause)
			blk := b.newBlock()
			edge(head, blk)
			b.cur = blk
			if cc.Comm != nil {
				b.stmt(cc.Comm)
			}
			b.stmtList(cc.Body)
			edge(b.cur, after)
		}
		b.breaks = b.breaks[:len(b.breaks)-1]
		b.cur = after

	case *ast.LabeledStmt:
		lb := b.ensureLabel(s.Label.Name)
		edge(b.cur, lb.dest)
		b.cur = lb.dest
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""

	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			target := b.branchTarget(s, true)
			b.add(s)
			edge(b.cur, target)
			b.cur = nil
		case token.CONTINUE:
			target := b.branchTarget(s, false)
			b.add(s)
			edge(b.cur, target)
			b.cur = nil
		case token.GOTO:
			b.add(s)
			edge(b.cur, b.ensureLabel(s.Label.Name).dest)
			b.cur = nil
		case token.FALLTHROUGH:
			// Handled by the switch builder; reaching here means a
			// malformed tree — treat as a no-op.
		}

	case *ast.ReturnStmt:
		b.add(s)
		b.edgeToExit()

	case *ast.DeferStmt:
		b.add(s)
		b.cfg.Defers = append(b.cfg.Defers, s.Call)

	case *ast.ExprStmt:
		b.add(s)
		if isPanicCall(s) {
			b.edgeToExit()
		}

	case nil:
		// nothing

	default:
		// Assign, Decl, IncDec, Send, Go, Empty, Bad: straight-line.
		b.add(s)
	}
}

// branchTarget resolves a break/continue statement's destination.
func (b *cfgBuilder) branchTarget(s *ast.BranchStmt, isBreak bool) *Block {
	if s.Label != nil {
		if lb := b.labels[s.Label.Name]; lb != nil {
			if isBreak && lb.brk != nil {
				return lb.brk
			}
			if !isBreak && lb.cont != nil {
				return lb.cont
			}
		}
		return b.cfg.Exit // unknown label: be conservative
	}
	stack := b.breaks
	if !isBreak {
		stack = b.conts
	}
	if len(stack) == 0 {
		return b.cfg.Exit
	}
	return stack[len(stack)-1]
}

// Inspect walks the subtree rooted at each of the given nodes like
// ast.Inspect, but does not descend into nested function literals:
// their bodies are separate frames with their own CFGs. The
// *ast.FuncLit node itself is still visited. A range statement as the
// root is the loop head a block holds: only its key, value and operand
// are walked, since the body's statements are nodes of other blocks.
func Inspect(root ast.Node, f func(ast.Node) bool) {
	if rs, ok := root.(*ast.RangeStmt); ok {
		if f(rs) {
			for _, e := range []ast.Expr{rs.Key, rs.Value, rs.X} {
				if e != nil {
					Inspect(e, f)
				}
			}
		}
		return
	}
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			return true
		}
		if lit, ok := n.(*ast.FuncLit); ok && lit != root {
			f(lit)
			return false
		}
		return f(n)
	})
}

// Dominators computes the immediate-dominator relation of the CFG with
// the classic iterative algorithm (the graphs here are tiny). The
// returned map is idom[b] for every reachable block except the entry.
func (c *CFG) Dominators() map[*Block]*Block {
	entry := c.Entry()
	// Reverse postorder over reachable blocks.
	var order []*Block
	seen := make(map[*Block]bool, len(c.Blocks))
	var dfs func(*Block)
	dfs = func(b *Block) {
		seen[b] = true
		for _, s := range b.Succs {
			if !seen[s] {
				dfs(s)
			}
		}
		order = append(order, b)
	}
	dfs(entry)
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	rpo := make(map[*Block]int, len(order))
	for i, b := range order {
		rpo[b] = i
	}

	idom := map[*Block]*Block{entry: entry}
	intersect := func(a, b *Block) *Block {
		for a != b {
			for rpo[a] > rpo[b] {
				a = idom[a]
			}
			for rpo[b] > rpo[a] {
				b = idom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for _, b := range order {
			if b == entry {
				continue
			}
			var newIdom *Block
			for _, p := range b.Preds {
				if idom[p] == nil {
					continue // unreachable or not yet processed
				}
				if newIdom == nil {
					newIdom = p
				} else {
					newIdom = intersect(newIdom, p)
				}
			}
			if newIdom != nil && idom[b] != newIdom {
				idom[b] = newIdom
				changed = true
			}
		}
	}
	delete(idom, entry)
	return idom
}

// Dominated reports whether block b is dominated by dom: every path
// from the entry to b passes through dom. A block dominates itself.
func Dominated(idom map[*Block]*Block, b, dom *Block) bool {
	for b != nil {
		if b == dom {
			return true
		}
		next := idom[b]
		if next == b {
			return false
		}
		b = next
	}
	return false
}
