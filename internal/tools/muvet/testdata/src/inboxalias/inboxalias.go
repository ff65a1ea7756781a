// Corpus for the inboxalias analyzer: every way a Tick inbox can
// escape its round, plus the copying idioms that are fine.
package inboxalias

type Msg struct{ A int64 }

// Ctx mimics the engine node context shape: Tick yields the inbox
// slice (an aliased, reused buffer), Idle yields without messages.
type Ctx struct{ buf []Msg }

func (c *Ctx) Tick() []Msg { return c.buf }
func (c *Ctx) Idle()       {}

var global []Msg

type holder struct{ in []Msg }

type fieldHolder struct{ p *int64 }

func escapeToGlobal(c *Ctx) {
	in := c.Tick()
	global = in // want `inbox slice assigned to global, declared outside this function`
}

func escapeToField(c *Ctx, h *holder) {
	in := c.Tick()
	h.in = in // want `inbox slice stored in field in`
}

func escapeToChannel(c *Ctx, ch chan []Msg) {
	in := c.Tick()
	ch <- in // want `inbox slice sent on a channel`
}

func escapeByReturn(c *Ctx) []Msg {
	return c.Tick() // want `inbox slice returned from the function`
}

func escapeViaAppend(c *Ctx, history [][]Msg) [][]Msg {
	in := c.Tick()
	history = append(history, in) // want `inbox slice stored via append`
	return history
}

func copyViaAppendOK(c *Ctx, log []Msg) []Msg {
	in := c.Tick()
	log = append(log, in...) // spreading copies the messages
	return log
}

func captureInClosure(c *Ctx) func() int {
	in := c.Tick()
	return func() int { return len(in) } // want `inbox slice returned from the function`
}

func useAfterTick(c *Ctx) int64 {
	in := c.Tick()
	c.Tick()
	return in[0].A // want `use of inbox in after a later Tick`
}

func useAfterIdle(c *Ctx) int {
	in := c.Tick()
	c.Idle()
	return len(in) // want `use of inbox in after a later Tick`
}

func staleAcrossRounds(c *Ctx) int64 {
	in := c.Tick()
	var sum int64
	for i := 0; i < 3; i++ {
		sum += in[0].A // want `use of inbox in inside a loop that Ticks without rebinding it`
		c.Tick()
	}
	return sum
}

func rebindEachRoundOK(c *Ctx) int64 {
	var sum int64
	in := c.Tick()
	for i := 0; i < 3; i++ {
		sum += in[0].A
		in = c.Tick()
	}
	return sum
}

func deliberateStashAllowed(c *Ctx) {
	in := c.Tick()
	//muvet:allow inboxalias(poisoning-test fixture retains the slice on purpose)
	global = in
}

// allowNamesAnotherAnalyzer is not suppressed: an annotation silences
// only the analyzers it names.
func allowNamesAnotherAnalyzer(c *Ctx) {
	in := c.Tick()
	//muvet:allow stepalias(names another analyzer, so inboxalias still reports)
	global = in // want `inbox slice assigned to global`
}

// bindInLoopStale goes stale over the loop back edge: the binding
// happens inside the loop, so the old linear pass (which required the
// binding to precede the loop) missed it. The CFG dataflow sees the
// Idle on iteration k invalidating the binding read on iteration k+1.
func bindInLoopStale(c *Ctx) int64 {
	var sum int64
	var in []Msg
	for i := 0; i < 3; i++ {
		if i == 0 {
			in = c.Tick()
		}
		sum += in[0].A // want `use of inbox in inside a loop that Ticks without rebinding it`
		c.Idle()
	}
	return sum
}

// yieldNotOnPath must NOT be flagged: the Idle sits textually between
// the bind and the use, but on a branch that returns before the use —
// the fall-through path never yields. The old linear rule ("a yield
// between the bind and the use") reported a false positive here.
func yieldNotOnPath(c *Ctx, p bool) int {
	in := c.Tick()
	if p {
		c.Idle()
		return 0
	}
	return len(in)
}

// escapeThroughCopy escapes via a local alias: the old pass only
// tracked variables bound directly to a Tick call, so the copy washed
// the taint off. The reaching-values lattice propagates it.
func escapeThroughCopy(c *Ctx, h *holder) {
	in := c.Tick()
	alias := in
	h.in = alias // want `inbox slice stored in field in`
}

// The shapes below are the escapes stepalias and ctxretain check too:
// one alias rule and one set of sinks serve all three analyzers.

func escapeSubslice(c *Ctx, h *holder) {
	in := c.Tick()
	h.in = in[1:] // want `inbox slice stored in field in`
}

func escapeElementPointer(c *Ctx, p **Msg) {
	in := c.Tick()
	*p = &in[0] // want `inbox slice stored through a pointer`
}

func escapeFieldPointer(c *Ctx, h *fieldHolder) {
	in := c.Tick()
	h.p = &in[0].A // want `inbox slice stored in field p`
}

func escapeInLiteral(c *Ctx, hs []holder) []holder {
	in := c.Tick()
	hs = append(hs, holder{in: in}) // want `inbox slice stored via append`
	return hs
}

func escapeToContainer(c *Ctx, byRound map[int][]Msg) {
	in := c.Tick()
	byRound[0] = in // want `inbox slice stored into a container`
}

func escapeToGoroutine(c *Ctx) {
	in := c.Tick()
	go func() { _ = len(in) }() // want `inbox slice passed to a goroutine`
}

// iifeOK reads the inbox in a literal invoked on the spot, within the
// round: the closure reaches no sink, so it is fine.
func iifeOK(c *Ctx) int {
	in := c.Tick()
	return func() int { return len(in) }()
}

// rangeOverStale ranges over a retired inbox: the loop head reads its
// operand.
func rangeOverStale(c *Ctx) int64 {
	in := c.Tick()
	c.Tick()
	var sum int64
	for _, m := range in { // want `use of inbox in after a later Tick`
		sum += m.A
	}
	return sum
}

// rebindPerRangeOK binds a fresh inbox on every iteration of a range
// loop, like rebindEachRoundOK does under a three-clause for.
func rebindPerRangeOK(c *Ctx, xs []int) int {
	n := 0
	for range xs {
		in := c.Tick()
		n += len(in)
		c.Tick()
	}
	return n
}

func staleAcrossRange(c *Ctx, xs []int) int {
	in := c.Tick()
	n := 0
	for range xs {
		n += len(in) // want `use of inbox in inside a loop that Ticks without rebinding it`
		c.Tick()
	}
	return n
}

// staleThroughAlias reads a sub-slice and a closure after the Tick that
// retired the buffer they carry: the alias rule feeds the stale-read
// check too.
func staleThroughAlias(c *Ctx) int {
	in := c.Tick()
	tail := in[1:]
	count := func() int { return len(in) }
	c.Tick()
	return len(tail) + count() // want `use of inbox tail after a later Tick` `use of inbox count after a later Tick`
}

// storeInsideLiteral stores from inside a deferred literal: the literal
// is checked as a body of its own, seeded with the inbox it captures.
func storeInsideLiteral(c *Ctx, h *holder) {
	in := c.Tick()
	defer func() { h.in = in }() // want `inbox slice stored in field in`
}

// escapeThroughField stores a field read off a local that holds the
// inbox: the selection carries what its operand carries.
func escapeThroughField(c *Ctx) {
	in := c.Tick()
	h := holder{in: in}
	global = h.in // want `inbox slice assigned to global, declared outside this function`
}

// escapeByNamedResult binds the inbox to a named result: declared in
// the signature, yet it outlives the call through the bare return.
func escapeByNamedResult(c *Ctx) (res []Msg) {
	res = c.Tick() // want `inbox slice assigned to result res`
	return
}
