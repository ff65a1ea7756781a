// Package refsim is the differential-verification oracle for the
// μ-CONGEST engine: a deliberately simple reference implementation of
// the exact observable contract of package sim — same Topology
// interface, same node contract (its Ctx is a sim.Node), same
// μ-accounting (including the strict-mode abort timing), same inbox
// orders and per-shard RNG stream derivation, same error strings —
// built for obviousness, not speed.
//
// Everything the production engine does cleverly, refsim does naively:
//
//   - No sharding, no worker pool, no buffer pooling, no stamp-packed
//     meters. Plain maps and freshly allocated slices everywhere.
//   - One logical thread of control. Node programs need goroutines to
//     block inside Tick, but the engine steps them strictly one at a
//     time (resume node, wait for it to yield), so at any instant at
//     most one goroutine runs. Execution is sequential and
//     deterministic by construction.
//
// Because refsim reproduces the engine's externally visible behavior
// bit for bit — round counts, message/drop totals, per-node outputs
// and memory peaks, violation records, abort identity including error
// strings, and every OrderRandom permutation — any func(sim.Node)
// program, from a randomized harness behavior to the paper's own
// algorithms, can be executed on both engines and compared field by
// field. The internal/harness package does exactly that. A future
// engine rewrite is correct when it still matches refsim everywhere;
// refsim itself is pinned against the golden digests recorded on the
// original pre-sharding engine.
package refsim

import (
	"errors"
	"fmt"
	"math/rand"

	"mucongest/internal/sim"
)

// Config mirrors package sim's options as one plain struct. The zero
// value means the same thing as a sim.New call with no options: seed 1,
// edge capacity 1, unbounded memory, OrderBySender, lenient μ, round
// limit 2,000,000.
type Config struct {
	Mu        int64
	Seed      int64 // 0 selects the engine default seed 1
	EdgeCap   int   // 0 selects the default capacity 1
	Order     sim.InboxOrder
	Strict    bool
	MaxRounds int // 0 selects the default limit 2,000,000
	// Faults mirrors sim.WithFaults: the same plan must produce
	// bit-identical crashes, restarts and drops on both engines, since
	// every fault decision derives from sim.FaultStreamSeed.
	Faults sim.FaultPlan
}

// RoundStats is the reference engine's per-round message ledger,
// recorded at each barrier: how many words were staged by senders, how
// many reached an inbox and how many were dropped because the
// destination had terminated. Sent == Delivered + Dropped holds for
// every round by conservation.
type RoundStats struct {
	Sent      int64
	Delivered int64
	Dropped   int64
	// DroppedFault is the fault-induced subset of Dropped this round:
	// loss draws, down edges and parked destinations. The finished-node
	// drops the ledger always counted are Dropped - DroppedFault.
	DroppedFault int64
}

// Stats is the side-channel record a reference run produces on top of
// the sim.Result, feeding the harness's metamorphic invariants.
type Stats struct {
	PerRound []RoundStats
	// MaxInboxWords is, per node, the largest inbox (in words) the node
	// was ever handed. PeakWords can never be below it.
	MaxInboxWords []int64
}

// Engine is the reference engine. Create with New, run once with Run.
type Engine struct {
	topo    sim.Topology
	cfg     Config
	n       int
	nodes   []nodeState
	rngs    []*rand.Rand // one OrderRandom stream per ShardSpan id range
	step    chan struct{}
	aborted bool
	runErr  error

	messages   int64
	dropped    int64
	faultDrops int64
	crashes    int64
	restarts   int64
	stats      Stats
}

type nodeState struct {
	resume chan struct{}
	// staged is the outbox the node handed over at its last yield
	// (Tick or termination), in send order.
	staged []staged
	// inbox accumulates this barrier's deliveries; handed to the node at
	// resume as a fresh slice (no reuse, no aliasing contract needed).
	inbox      []sim.Incoming
	inboxWords int64
	live       int64
	peak       int64
	ticks      int
	done       bool
	err        error
	finished   bool
	outputs    []any
	violation  bool
	vioIdx     int
	// Fault-layer state, mirroring sim.nodeRT: parked nodes crashed and
	// await restart at restartRound; crashing flags the node currently
	// being unwound through the errCrash panic.
	parked       bool
	crashing     bool
	restartRound int
	restarts     int
}

type staged struct {
	to  int
	msg sim.Msg
}

// errAbort is the engine→node unwind sentinel, mirroring sim's.
var errAbort = errors.New("refsim: run aborted")

// errCrash unwinds a node the fault layer crashed, mirroring sim's:
// the crash is a parking, not a termination, so runNode publishes
// nothing when it recovers this sentinel.
var errCrash = errors.New("refsim: node crashed by fault injection")

// New creates a reference engine over topo.
func New(topo sim.Topology, cfg Config) *Engine {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.EdgeCap == 0 {
		cfg.EdgeCap = 1
	}
	if cfg.MaxRounds == 0 {
		cfg.MaxRounds = 2_000_000
	}
	return &Engine{topo: topo, cfg: cfg, n: topo.N()}
}

// Stats returns the ledger of the completed run. Valid after Run.
func (e *Engine) Stats() *Stats { return &e.stats }

// Run executes program on every node and returns the aggregated
// result, shaped exactly like the production engine's: same Result
// fields, same Violation records, same error values and strings.
func (e *Engine) Run(program func(sim.Node)) (*sim.Result, error) {
	n := e.n
	e.nodes = make([]nodeState, n)
	e.step = make(chan struct{})
	// Like the production engine, an Engine is reusable: every piece of
	// run state is reset here, nothing carries over.
	e.aborted = false
	e.runErr = nil
	e.messages = 0
	e.dropped = 0
	e.faultDrops = 0
	e.crashes = 0
	e.restarts = 0
	e.stats = Stats{MaxInboxWords: make([]int64, n)}
	nshards := (n + sim.ShardSpan - 1) / sim.ShardSpan
	if nshards < 1 {
		nshards = 1
	}
	e.rngs = make([]*rand.Rand, nshards)
	for s := range e.rngs {
		e.rngs[s] = rand.New(rand.NewSource(sim.ShardStreamSeed(e.cfg.Seed, s)))
	}

	// Start the nodes one at a time: each runs until its first Tick (or
	// termination) before the next is spawned, keeping execution
	// sequential from the very first instruction.
	for id := 0; id < n; id++ {
		e.nodes[id].resume = make(chan struct{})
		go e.runNode(newCtx(e, id), program)
		<-e.step
	}

	active := n
	round := 0
	var violations []sim.Violation
	for active > 0 {
		// Barrier: every live node has yielded (staged its outbox, and —
		// if it terminated — published done and its error).

		// 0. Fault point, mirroring the production engine's: before this
		// barrier's terminations are even collected, perform the restarts
		// due this round and draw crash decisions from per-shard streams
		// keyed (seed, round, shard) in ascending shard and node order.
		// On an aborted run, terminate parked nodes instead so the run
		// can end.
		if !e.cfg.Faults.Empty() {
			e.applyFaults(round, program)
		}

		// 1. Collect newly terminated nodes; the reported error is
		// deterministically the lowest failing node's, skipping the
		// engine's own abort sentinel.
		var nodeErr error
		for id := range e.nodes {
			nd := &e.nodes[id]
			if nd.done && !nd.finished {
				active--
				if nd.err != nil {
					if nodeErr == nil && !errors.Is(nd.err, errAbort) {
						nodeErr = nd.err
					}
					nd.err = nil
				}
			}
		}
		if nodeErr != nil {
			e.aborted = true
			if e.runErr == nil {
				e.runErr = nodeErr
			}
		}
		// 2. Violations recorded at this barrier carry the pre-increment
		// round counter; the runaway guard fires after the increment.
		r := round
		round++
		if round > e.cfg.MaxRounds && active > 0 {
			e.aborted = true
			if e.runErr == nil {
				e.runErr = sim.ErrMaxRounds
			}
		}
		// 3. Route: ascending sender id, send order within a sender.
		// Messages to terminated nodes are dropped; with a fault plan
		// active, the production engine's drop chain follows — parked
		// destination, down edge, then the loss draw from the sender
		// shard's per-round stream, consumed only for messages that
		// survived the earlier checks. The fault keys use r, the
		// pre-increment round counter, exactly like the engine's route
		// phase (which runs before its round increment).
		var rs RoundStats
		fp := e.cfg.Faults
		haveFaults := !fp.Empty()
		var lrng *rand.Rand
		curShard := -1
		for id := range e.nodes {
			nd := &e.nodes[id]
			if haveFaults && fp.Loss {
				if s := id / sim.ShardSpan; s != curShard {
					curShard = s
					lrng = rand.New(rand.NewSource(sim.FaultStreamSeed(e.cfg.Seed, r, s, sim.FaultKindLoss)))
				}
			}
			out := nd.staged
			nd.staged = nil
			rs.Sent += int64(len(out))
			for _, m := range out {
				if e.nodes[m.to].done {
					rs.Dropped++
					continue
				}
				if haveFaults {
					if e.nodes[m.to].parked {
						rs.Dropped++
						rs.DroppedFault++
						continue
					}
					if fp.EdgeDown && fp.EdgeIsDown(e.cfg.Seed, r, id, m.to) {
						rs.Dropped++
						rs.DroppedFault++
						continue
					}
					if fp.Loss && lrng.Float64() < fp.LossP {
						rs.Dropped++
						rs.DroppedFault++
						continue
					}
				}
				dst := &e.nodes[m.to]
				dst.inbox = append(dst.inbox, sim.Incoming{From: id, Msg: m.msg})
				rs.Delivered++
			}
		}
		e.messages += rs.Delivered
		e.dropped += rs.Dropped
		e.faultDrops += rs.DroppedFault
		e.stats.PerRound = append(e.stats.PerRound, rs)
		// 4. Account every live node in ascending id: order the inbox
		// (OrderRandom consumes the node's shard stream once per
		// non-empty inbox), charge the delivered words, update the peak,
		// and record μ overruns — including charge-only and quiet rounds.
		for id := range e.nodes {
			nd := &e.nodes[id]
			if nd.finished {
				continue
			}
			if nd.done {
				// Terminated at this barrier: acknowledge and skip —
				// no ordering, metering or resume.
				nd.finished = true
				continue
			}
			if nd.parked {
				// Crashed and awaiting restart: nothing was delivered,
				// the node holds no memory, no stream is consumed.
				continue
			}
			if len(nd.inbox) > 0 {
				switch e.cfg.Order {
				case sim.OrderRandom:
					rng := e.rngs[id/sim.ShardSpan]
					rng.Shuffle(len(nd.inbox), func(i, j int) {
						nd.inbox[i], nd.inbox[j] = nd.inbox[j], nd.inbox[i]
					})
				case sim.OrderReversed:
					for i, j := 0, len(nd.inbox)-1; i < j; i, j = i+1, j-1 {
						nd.inbox[i], nd.inbox[j] = nd.inbox[j], nd.inbox[i]
					}
				}
			}
			nd.inboxWords = int64(len(nd.inbox)) * sim.MsgWords
			if nd.inboxWords > e.stats.MaxInboxWords[id] {
				e.stats.MaxInboxWords[id] = nd.inboxWords
			}
			total := nd.live + nd.inboxWords
			if total > nd.peak {
				nd.peak = total
			}
			if e.cfg.Mu > 0 && total > e.cfg.Mu {
				if nd.violation {
					violations[nd.vioIdx].OverRounds++
				} else {
					nd.violation = true
					nd.vioIdx = len(violations)
					violations = append(violations,
						sim.Violation{Node: id, Round: r, Words: total, OverRounds: 1})
				}
			}
		}
		// 5. Strict mode aborts on the first recorded violation, after
		// every node's accounting but before any node is resumed.
		if e.cfg.Strict && len(violations) > 0 {
			e.aborted = true
			if e.runErr == nil {
				e.runErr = fmt.Errorf("%w: %v", sim.ErrMemory, violations[0])
			}
		}
		// 6. Resume the live nodes one at a time, waiting for each to
		// yield again before touching the next.
		for id := range e.nodes {
			nd := &e.nodes[id]
			if nd.finished || nd.parked {
				continue
			}
			nd.resume <- struct{}{}
			<-e.step
		}
	}

	res := &sim.Result{
		Messages:   e.messages,
		Dropped:    e.dropped,
		FaultDrops: e.faultDrops,
		Crashes:    e.crashes,
		Restarts:   e.restarts,
		Outputs:    make([][]any, n),
		PeakWords:  make([]int64, n),
		Violations: violations,
	}
	for id := range e.nodes {
		nd := &e.nodes[id]
		res.Outputs[id] = nd.outputs
		res.PeakWords[id] = nd.peak
		if nd.ticks > res.Rounds {
			res.Rounds = nd.ticks
		}
	}
	return res, e.runErr
}

// applyFaults is the reference fault point, mirroring the production
// engine's: restarts due this round first (a restarted node consumes no
// crash draw), then crash draws from per-shard streams keyed (seed,
// round, shard) in ascending shard and node order. On an aborted run it
// terminates parked nodes so the run can end, exactly like the engine.
func (e *Engine) applyFaults(round int, program func(sim.Node)) {
	if e.aborted {
		for id := range e.nodes {
			if nd := &e.nodes[id]; nd.parked && !nd.done {
				nd.done = true
			}
		}
		return
	}
	fp := e.cfg.Faults
	var crng *rand.Rand
	curShard := -1
	for id := range e.nodes {
		nd := &e.nodes[id]
		if nd.parked {
			if nd.restartRound == round {
				e.restartNode(id, program)
			}
			continue
		}
		if nd.done || nd.finished || !fp.Crash {
			continue
		}
		if s := id / sim.ShardSpan; s != curShard {
			curShard = s
			crng = rand.New(rand.NewSource(sim.FaultStreamSeed(e.cfg.Seed, round, s, sim.FaultKindCrash)))
		}
		if crng.Float64() < fp.CrashP {
			e.crashNode(id, round)
		}
	}
}

// crashNode parks one node: the goroutine parked in Tick is unwound
// through the errCrash panic (the crashing flag plus a resume wakes it;
// the step ack confirms the goroutine is gone), its staged sends from
// the barrier it already passed stay routable — fail-stop — and its
// memory is freed. Outputs, the peak high-water mark and any recorded
// violation survive for the eventual restart.
func (e *Engine) crashNode(id, round int) {
	nd := &e.nodes[id]
	nd.crashing = true
	nd.resume <- struct{}{}
	<-e.step
	nd.crashing = false
	nd.parked = true
	nd.restartRound = round + e.cfg.Faults.RestartDelay()
	nd.live = 0
	nd.inboxWords = 0
	nd.inbox = nil
	e.crashes++
}

// restartNode revives a parked node with a fresh Ctx — private RNG
// replaying its stream from the start, reset meter, Round() back at 0 —
// and re-runs program from its first instruction, sequentially like the
// initial spawn: the node runs until its first Tick (or termination)
// before the engine moves on.
func (e *Engine) restartNode(id int, program func(sim.Node)) {
	nd := &e.nodes[id]
	nd.parked = false
	nd.restartRound = 0
	nd.restarts++
	nd.ticks = 0
	e.restarts++
	go e.runNode(newCtx(e, id), program)
	<-e.step
}

// runNode wraps one node's program, translating returns and panics into
// the termination record exactly as the production engine does: the
// abort sentinel and ErrMemory pass through, anything else becomes a
// "panicked" error; sends staged before termination are still routed.
// The crash sentinel is the exception — a crashed node is parked, not
// terminated, so nothing is published and only the step ack fires.
func (e *Engine) runNode(c *Ctx, program func(sim.Node)) {
	defer func() {
		nd := &e.nodes[c.id]
		if r := recover(); r != nil {
			if err, ok := r.(error); ok && errors.Is(err, errCrash) {
				e.step <- struct{}{}
				return
			}
			if err, ok := r.(error); ok && (errors.Is(err, errAbort) || errors.Is(err, sim.ErrMemory)) {
				nd.err = err
			} else {
				nd.err = fmt.Errorf("sim: node %d panicked: %v", c.id, r)
			}
		}
		nd.done = true
		nd.staged = c.outbox
		c.outbox = nil
		e.step <- struct{}{}
	}()
	program(c)
}
