package sim

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Violation records a node exceeding its memory bound μ. One Violation
// is recorded per offending node per run: Round and Words describe the
// node's first overrun, OverRounds counts every round the node spent
// over μ.
type Violation struct {
	Node       int
	Round      int   // round of the node's first overrun
	Words      int64 // live words at the first overrun
	OverRounds int   // total rounds this node exceeded μ during the run
}

func (v Violation) String() string {
	return fmt.Sprintf("node %d exceeded μ at round %d with %d words (%d rounds over μ)",
		v.Node, v.Round, v.Words, v.OverRounds)
}

// Result summarizes one simulated execution.
type Result struct {
	// Rounds is the number of communication rounds, i.e. the maximum
	// number of Tick calls performed by any node.
	Rounds int
	// Messages is the total number of messages delivered.
	Messages int64
	// Dropped counts undelivered messages: messages addressed to nodes
	// that had already terminated, plus — when a fault plan is active —
	// messages lost to injected faults. Sent = Messages + Dropped
	// always holds; FaultDrops is the fault-induced subset.
	Dropped int64
	// FaultDrops counts the messages dropped by the fault layer
	// (message loss, down edges, parked destinations). Always ≤ Dropped
	// and 0 without WithFaults.
	FaultDrops int64
	// Crashes counts fault-layer node crashes over the whole run;
	// Restarts counts the crashed nodes that were restarted (a node
	// still parked — or terminated by an abort while parked — when the
	// run ends has crashed without restarting).
	Crashes  int64
	Restarts int64
	// Outputs holds, per node, the values emitted via Ctx.Emit.
	Outputs [][]any
	// PeakWords holds, per node, the peak live memory in words
	// (algorithm charges plus inbox).
	PeakWords []int64
	// Violations lists the μ overruns, one entry per offending node in
	// order of first occurrence (empty when μ ≤ 0, i.e. unbounded).
	Violations []Violation
}

// MaxPeakWords returns the largest per-node memory peak.
func (r *Result) MaxPeakWords() int64 {
	var m int64
	for _, w := range r.PeakWords {
		if w > m {
			m = w
		}
	}
	return m
}

// OverMuRounds returns the total number of (node, round) pairs that
// exceeded μ, i.e. the sum of OverRounds over all violations.
func (r *Result) OverMuRounds() int {
	t := 0
	for _, v := range r.Violations {
		t += v.OverRounds
	}
	return t
}

// Option configures an Engine.
type Option func(*Engine)

// WithMu sets the per-node memory bound μ in words. μ ≤ 0 means
// unbounded (classic CONGEST).
func WithMu(mu int64) Option { return func(e *Engine) { e.mu = mu } }

// WithSeed seeds the engine and per-node RNGs. Runs with equal seeds and
// inputs are deterministic.
func WithSeed(seed int64) Option { return func(e *Engine) { e.seed = seed } }

// WithEdgeCap sets the number of messages allowed per directed edge per
// round (default 1, the CONGEST bandwidth).
func WithEdgeCap(c int) Option { return func(e *Engine) { e.edgeCap = c } }

// WithInboxOrder selects how each round's inbox is ordered.
func WithInboxOrder(o InboxOrder) Option { return func(e *Engine) { e.order = o } }

// WithStrictMemory makes a μ violation abort the run with an error
// instead of merely being recorded.
func WithStrictMemory() Option { return func(e *Engine) { e.strict = true } }

// WithMaxRounds bounds the execution length as a runaway guard
// (default 2,000,000 rounds).
func WithMaxRounds(r int) Option { return func(e *Engine) { e.maxRounds = r } }

// WithSimWorkers sets the number of delivery workers the engine's round
// loop shards routing, inbox ordering, memory accounting and the resume
// fan-out across. w ≥ 1 is an explicit count; w < 1 selects
// runtime.GOMAXPROCS(0). The effective pool is capped at the shard
// count, so small topologies always run the serial inline path.
// Results are bit-for-bit identical for every worker count.
func WithSimWorkers(w int) Option {
	return func(e *Engine) {
		if w < 1 {
			w = 0 // resolved to GOMAXPROCS at Run
		}
		e.workers = w
	}
}

// defaultWorkers is the process-wide worker count used by engines built
// without WithSimWorkers: 1 (serial) unless SetDefaultWorkers was called.
var defaultWorkers = func() *atomic.Int32 {
	v := new(atomic.Int32)
	v.Store(1)
	return v
}()

// SetDefaultWorkers sets the process-wide default delivery worker count
// for engines created without an explicit WithSimWorkers option — the
// hook cmd/muexp's -simworkers flag uses to reach the engines the
// experiment runners construct internally. w < 1 selects
// runtime.GOMAXPROCS(0). Safe for concurrent use; affects engines
// created after the call.
func SetDefaultWorkers(w int) {
	if w < 1 {
		w = 0
	}
	defaultWorkers.Store(int32(w))
}

// ErrMaxRounds is returned when the round limit is exceeded.
var ErrMaxRounds = errors.New("sim: maximum round count exceeded")

// ErrMemory is returned in strict mode when a node exceeds μ.
var ErrMemory = errors.New("sim: node exceeded memory bound μ")

// Engine executes one program on a topology under μ-CONGEST rules.
type Engine struct {
	topo      Topology
	mu        int64
	seed      int64
	edgeCap   int
	order     InboxOrder
	strict    bool
	maxRounds int
	workers   int // configured; 0 = GOMAXPROCS, resolved at Run

	n     int
	round int
	nodes []nodeRT
	ctxs  []Ctx // flat per-node Ctx slots, from the run scratch
	// state holds each node's status bits (stDone, stParked,
	// stFinished), one byte per node, so the route phase's cross-shard
	// drop checks read one byte per message instead of a nodeRT.
	state []uint8
	// prog is the bound program, retained for the whole run (not just
	// phaseBind) so the fault layer can re-invoke Node on restart.
	prog    Program
	aborted bool
	runErr  error

	// Fault-injection state (see faults.go). hasFaults gates every
	// fault branch so an empty plan keeps the fault-free hot path
	// byte-identical and allocation-free.
	faults    FaultPlan
	hasFaults bool

	// senderOut[id] is node id's staged sends for the round: its span of
	// its shard's send arena, written by the worker that stepped the node.
	// A non-empty span doubles as the "has staged messages" bit the route
	// phase scans.
	senderOut []span

	// Sharded delivery state — see deliver.go.
	nshards  int
	gsize    int // shards per route group
	ngroups  int
	shards   []*shardState
	poolSize int
	workCh   chan phaseKind
	workDone chan struct{}
	poolLive sync.WaitGroup // the running delivery workers
	cursor   atomic.Int64
}

type routed struct {
	from, to int
	msg      Msg
}

// span is the half-open range [lo, hi) of a shard's send arena holding
// one node's sends for the round.
type span struct{ lo, hi int }

// Node status bits, one byte per node in Engine.state. stDone is the
// node's termination bit: set (with nodeErr) by the phase that ran the
// node's last step, never cleared, so it is stable while the engine
// owns the round and the route phase's drop check may read any node's.
// stFinished is the engine-side acknowledgment of stDone, set by the
// owning shard's account phase. stParked means the node crashed and
// awaits restart (written only by its shard in the fault phase); it
// stays set on a node the abort path terminates while parked.
const (
	stDone uint8 = 1 << iota
	stFinished
	stParked
)

type nodeRT struct {
	// step is the node's bound program, driven inline by the delivery
	// workers (see step.go): the node's own StepProgram, or co for a
	// blocking program (co is nil for a stepped node).
	step StepProgram
	co   *coroutine
	// inboxWords is the memory charge of the inbox delivered at the last
	// barrier. It stays charged until the next barrier overwrites it:
	// the engine cannot observe the node dropping the slice earlier, so
	// strict-mode Charge accounting conservatively includes it.
	inboxWords int64
	live       int64 // words charged by the algorithm
	peak       int64
	ticks      int
	// sleep is the number of rounds a blocking node still sleeps through
	// in Ctx.Idle: stepNode completes them without resuming it. As an
	// int32 it shares the 8 bytes before nodeErr with the two bools, so
	// the slot stays at 128 B and every field a round reads sits in its
	// first 64.
	sleep     int32
	crashing  bool // node's program is being unwound by crashNode right now
	violation bool // a Violation was already recorded for this node (dedup)
	nodeErr   error
	// Fault-layer state, all written by the node's shard in the fault
	// phase: a parked node restarts at restartRound.
	restartRound int
	restarts     int
	vioIdx       int // index of this node's Violation in the run's slice
	outputs      []any
}

// runScratch is the per-run state whose allocation and zeroing dominate
// engine setup at large n: the node runtime slots, the Ctx slots (with
// their bandwidth-meter buffers), the status bytes, the staged-span
// table and the shard scratch with its arenas. It is
// recycled across runs — of any engine, experiment sweeps run
// thousands back to back — through scratchPool. Everything semantic is
// reset in grab/initShards; only buffer capacities and shard RNG
// sources survive, none of which is observable.
// release scrubs every reference to run-owned data before the state is
// pooled, so a pooled runScratch keeps nothing alive.
type runScratch struct {
	nodes     []nodeRT
	ctxs      []Ctx
	state     []uint8
	senderOut []span
	shards    []*shardState
}

var scratchPool = sync.Pool{New: func() any { return new(runScratch) }}

// grab checks a runScratch out of the pool and sizes it for n nodes,
// resetting every reused slot to its run-start state. senderOut needs no
// reset: every run ends with each span consumed by the route phase.
func grab(n int) *runScratch {
	sc := scratchPool.Get().(*runScratch)
	if cap(sc.nodes) < n {
		sc.nodes = make([]nodeRT, n)
		sc.ctxs = make([]Ctx, n)
		sc.state = make([]uint8, n)
		sc.senderOut = make([]span, n)
		return sc
	}
	sc.nodes = sc.nodes[:n]
	sc.ctxs = sc.ctxs[:n]
	sc.state = sc.state[:n]
	sc.senderOut = sc.senderOut[:n]
	clear(sc.state)
	for i := range sc.nodes {
		rt := &sc.nodes[i]
		rt.step = nil
		rt.inboxWords = 0
		rt.live = 0
		rt.peak = 0
		rt.ticks = 0
		rt.violation = false
		rt.vioIdx = 0
		rt.crashing = false
		rt.sleep = 0
		rt.restartRound = 0
		rt.restarts = 0
	}
	return sc
}

// release scrubs the references the finished run left behind (outputs
// now belong to the Result, programs, engine references and errors to
// nobody) and returns the scratch to the pool. Buffer capacities and
// shard state stay for the next run to reuse.
func (sc *runScratch) release() {
	for i := range sc.nodes {
		rt := &sc.nodes[i]
		rt.step = nil
		rt.co = nil
		rt.outputs = nil
		rt.nodeErr = nil
		c := &sc.ctxs[i]
		c.eng, c.rt, c.rng = nil, nil, nil
		// Reset the bandwidth meter with the slot: stale stamps must not
		// alias a future run's stamp space once sentRound restarts (its
		// wraparound bound is per run, not per pooled-slot lifetime).
		clear(c.sent)
		c.sentRound = 0
	}
	for _, st := range sc.shards {
		st.err = nil
	}
	scratchPool.Put(sc)
}

// New creates an engine over topo. The zero μ (unset WithMu) means
// unbounded memory.
func New(topo Topology, opts ...Option) *Engine {
	e := &Engine{
		topo:      topo,
		seed:      1,
		edgeCap:   1,
		maxRounds: 2_000_000,
		n:         topo.N(),
		workers:   int(defaultWorkers.Load()),
	}
	for _, o := range opts {
		o(e)
	}
	return e
}

// N returns the node count.
func (e *Engine) N() int { return e.n }

// Run executes program on every node and returns the aggregated result.
// program receives the node's Ctx; returning from program terminates the
// node. Run returns an error if the round limit was hit, a node
// panicked, or (in strict mode) μ was violated. Every node runs the
// classic blocking form; use RunProgram with a Steps program to write
// nodes as explicit state machines instead.
func (e *Engine) Run(program func(*Ctx)) (*Result, error) {
	return e.RunProgram(Func(program))
}

// RunProgram executes p on every node and returns the aggregated
// result. p picks each node's execution form (see Program): both forms
// are driven inline by the delivery workers — a blocking program as a
// coroutine — and the two interleave freely in one run. Both forms, at
// every worker count, produce bit-for-bit identical results — the
// golden-digest and differential-oracle suites pin this.
func (e *Engine) RunProgram(p Program) (*Result, error) {
	sc := grab(e.n)
	e.nodes = sc.nodes
	e.ctxs = sc.ctxs
	e.round = 0
	e.aborted = false
	e.runErr = nil
	e.prog = p
	var violations []Violation

	e.state = sc.state
	e.senderOut = sc.senderOut
	e.initShards(sc)
	e.startPool()
	defer e.stopPool()
	// A run that exits normally has finished every coroutine (every node
	// terminated); one exiting by panic must not leave any suspended.
	returned := false
	defer func() {
		if !returned {
			e.stopCoroutines()
		}
	}()

	// Bind every node and run its first step: by the time the phase
	// completes, every node has staged its round-0 sends.
	e.runPhase(phaseBind)

	active := e.n
	for active > 0 {
		// Fault point: with every node quiescent between phases, each
		// shard performs its due restarts and draws its crash decisions
		// (see faultShard). Loss and edge churn act in the route phase,
		// so only a crash plan has a fault phase. Worker count and
		// execution form are invisible here by construction.
		if e.faults.Crash {
			e.runPhase(phaseFaults)
		}
		// The route phase also performs the barrier bookkeeping — counting
		// newly finished nodes and harvesting their errors per shard — so
		// it parallelizes with routing.
		e.runPhase(phaseRoute)
		// Shards are drained in ascending order and each harvests in
		// ascending node id, so the reported error is deterministically
		// the lowest failing node's.
		var nodeErr error
		for _, st := range e.shards {
			active -= st.newlyFinished
			st.newlyFinished = 0
			if st.err != nil {
				if nodeErr == nil {
					nodeErr = st.err
				}
				st.err = nil
			}
		}
		if nodeErr != nil {
			e.aborted = true
			if e.runErr == nil {
				e.runErr = nodeErr
			}
		}
		// Violations recorded this barrier carry the pre-increment round
		// counter, matching the pre-sharding engine's stamps.
		r := e.round
		e.round++
		if e.round > e.maxRounds && active > 0 {
			e.aborted = true
			if e.runErr == nil {
				e.runErr = ErrMaxRounds
			}
		}
		if e.strict {
			// Strict mode needs every shard's accounting before the abort
			// decision, so delivery and resume are separate phases.
			e.runPhase(phaseAccount)
			e.mergeRound(r, &violations)
			if len(violations) > 0 {
				e.aborted = true
				if e.runErr == nil {
					e.runErr = fmt.Errorf("%w: %v", ErrMemory, violations[0])
				}
			}
			e.runPhase(phaseResume)
		} else {
			// Fused fast path: each shard steps its own nodes as soon as
			// their inboxes are ordered and accounted — no second barrier.
			e.runPhase(phaseAccountResume)
			e.mergeRound(r, &violations)
		}
	}
	returned = true

	res := &Result{
		Outputs:    make([][]any, e.n),
		PeakWords:  make([]int64, e.n),
		Violations: violations,
	}
	for _, st := range e.shards {
		res.Messages += st.messages
		res.Dropped += st.dropped
		res.FaultDrops += st.faultDropped
		res.Crashes += st.crashes
		res.Restarts += st.restarts
	}
	for i := range e.nodes {
		rt := &e.nodes[i]
		res.Outputs[i] = rt.outputs
		res.PeakWords[i] = rt.peak
		if rt.ticks > res.Rounds {
			res.Rounds = rt.ticks
		}
	}
	// Every node has terminated, its last touch of run state inside a
	// completed phase, so the scratch can go back to the pool.
	sc.release()
	e.nodes, e.ctxs, e.state, e.senderOut, e.shards, e.prog = nil, nil, nil, nil, nil, nil
	return res, e.runErr
}

// mergeRound folds the per-shard μ overruns of one barrier into the
// run's Violation list. Shards are visited in ascending order and each
// shard's overruns are recorded in ascending node id, so the merged
// order is identical to the pre-sharding per-node sweep.
func (e *Engine) mergeRound(round int, violations *[]Violation) {
	for _, st := range e.shards {
		for _, o := range st.over {
			rt := &e.nodes[o.node]
			if rt.violation {
				(*violations)[rt.vioIdx].OverRounds++
			} else {
				rt.violation = true
				rt.vioIdx = len(*violations)
				*violations = append(*violations,
					Violation{Node: o.node, Round: round, Words: o.words, OverRounds: 1})
			}
		}
		st.over = st.over[:0]
	}
}

// resolveWorkers resolves the configured worker count against
// GOMAXPROCS and the shard count (one worker per shard at most).
func (e *Engine) resolveWorkers() int {
	w := e.workers
	if w < 1 {
		w = runtime.GOMAXPROCS(0)
	}
	return max(1, min(w, e.nshards))
}

// startPool launches the persistent delivery workers when more than one
// is useful (poolSize is resolved by initShards). The pool lives for the
// whole Run; phases are dispatched through workCh.
func (e *Engine) startPool() {
	w := e.poolSize
	if w == 1 {
		return
	}
	e.workCh = make(chan phaseKind)
	e.workDone = make(chan struct{}, w)
	e.poolLive.Add(w)
	for i := 0; i < w; i++ {
		go e.deliveryWorker(e.workCh)
	}
}

// stopPool closes the phase channel and waits for every worker to exit,
// so no worker of a finished run is still alive when the next run
// spawns its own.
func (e *Engine) stopPool() {
	if e.workCh != nil {
		close(e.workCh)
		e.workCh = nil
		e.poolLive.Wait()
	}
}

// tasks returns how many tasks phase k splits into: one per route group
// for the route phase, one per shard for every other phase.
func (e *Engine) tasks(k phaseKind) int {
	if k == phaseRoute {
		return e.ngroups
	}
	return e.nshards
}

// runPhase executes one delivery phase over every task: inline when the
// pool is serial, otherwise fanned out to the workers, which pull task
// indices from a shared cursor. Task-to-worker assignment is arbitrary;
// every task's computation is self-contained (own RNGs, own buckets,
// own sender or destination range), so results do not depend on it.
func (e *Engine) runPhase(k phaseKind) {
	if e.poolSize == 1 {
		for i, n := 0, e.tasks(k); i < n; i++ {
			e.runTask(k, i)
		}
		return
	}
	e.cursor.Store(0)
	for i := 0; i < e.poolSize; i++ {
		e.workCh <- k
	}
	for i := 0; i < e.poolSize; i++ {
		<-e.workDone
	}
}

// deliveryWorker takes its channel as an argument rather than reading
// e.workCh: the workers scheduled first can drain every phase of a run,
// so a worker may first run after stopPool has nilled the field, and
// ranging over a nil channel would park it forever.
func (e *Engine) deliveryWorker(work <-chan phaseKind) {
	defer e.poolLive.Done()
	for k := range work {
		n := e.tasks(k)
		for {
			i := int(e.cursor.Add(1) - 1)
			if i >= n {
				break
			}
			e.runTask(k, i)
		}
		e.workDone <- struct{}{}
	}
}

// poisonInbox overwrites a retired inbox arena with sentinel values.
// Only called under the simdebug build tag — see debugPoison.
func poisonInbox(retired []Incoming) {
	for i := range retired {
		retired[i] = Incoming{From: -1, Msg: Msg{Kind: -1, A: -1, B: -1, C: -1}}
	}
}

var errAbort = errors.New("sim: run aborted")

// errCrash unwinds a blocking node the fault layer crashed: the node's
// Tick panics it when crashNode resumes the node with its crashing flag
// set.
var errCrash = errors.New("sim: node crashed by fault injection")
