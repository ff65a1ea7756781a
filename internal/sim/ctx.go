package sim

import (
	"fmt"
	"math"
	"math/rand"
)

// Ctx is a node's handle to the simulation: its identity, topology view,
// messaging, memory meter, output channel and RNG. A Ctx belongs to its
// node's program and must not be shared with other nodes or goroutines.
//
// The topology view holds only the degree: ports resolve through the
// Topology on every use, so engine setup stays O(1) per node even on
// implicit topologies like Complete. The private RNG is created on
// first Rand.
type Ctx struct {
	eng *Engine
	rt  *nodeRT // this node's runtime slot, cached off the hot paths
	id  int
	deg int
	rng *rand.Rand // lazily created on first Rand

	// sh is the node's shard: sends append to its send arena, and the
	// messages appended since sendLo are the node's outbox for the round
	// (see openSends and stage).
	sh     *shardState
	sendLo int

	// Per-edge bandwidth meter. sent[p] packs the round stamp (high 32
	// bits) over the count of messages sent on port p (low 32 bits); an
	// entry is valid only while its stamp equals sentRound, so stage's
	// reset is an O(1) stamp bump instead of a per-round clear. The
	// array is sized lazily by the highest port actually used, so a
	// node that sends on few ports of a huge degree stays cheap.
	// sentRound wraps at 2³², far beyond any bounded run (WithMaxRounds
	// defaults to 2·10⁶).
	sent      []uint64
	sentRound uint32
	sentCap   uint32 // edgeCap clamped to uint32, cached off the Engine
}

// newCtx initializes the node's slot of the engine's flat Ctx slice —
// one allocation per run, not per node — and returns it.
func newCtx(e *Engine, ctxs []Ctx, id int) *Ctx {
	c := &ctxs[id]
	c.eng, c.rt, c.id, c.deg = e, &e.nodes[id], id, e.topo.Degree(id)
	c.sh = e.shards[id/ShardSpan]
	switch {
	case e.edgeCap > math.MaxInt32:
		c.sentCap = math.MaxInt32
	case e.edgeCap < 0:
		// A negative cap must stay fail-fast (the first Send panics),
		// not wrap to an effectively unlimited uint32.
		c.sentCap = 0
	default:
		c.sentCap = uint32(e.edgeCap)
	}
	return c
}

// ID returns this node's id in 0..N-1.
func (c *Ctx) ID() int { return c.id }

// N returns the number of nodes in the network.
func (c *Ctx) N() int { return c.eng.n }

// Mu returns the memory bound μ in words (≤ 0 when unbounded).
func (c *Ctx) Mu() int64 { return c.eng.mu }

// Degree returns the number of neighbors.
func (c *Ctx) Degree() int { return c.deg }

// Neighbors returns this node's neighbor ids. The slice must not be
// modified.
func (c *Ctx) Neighbors() []int { return c.eng.topo.Neighbors(c.id) }

// Neighbor returns the id of the neighbor on the given port. It panics
// unless 0 ≤ port < Degree().
//
//muvet:hotpath
func (c *Ctx) Neighbor(port int) int {
	c.checkPort(port)
	return c.eng.topo.NeighborAt(c.id, port)
}

// checkPort panics unless port is one of the node's ports, with one
// message whatever the topology type.
//
//muvet:hotpath
func (c *Ctx) checkPort(port int) {
	if uint(port) >= uint(c.deg) {
		panic(fmt.Sprintf("sim: node %d has no port %d (degree %d)", c.id, port, c.deg))
	}
}

// PortOf returns the port of neighbor id, or -1 if id is not adjacent.
//
//muvet:hotpath
func (c *Ctx) PortOf(id int) int { return c.eng.topo.PortOf(c.id, id) }

// Rand returns this node's deterministic private RNG. The stream depends
// only on the engine seed and the node id.
func (c *Ctx) Rand() *rand.Rand {
	if c.rng == nil {
		c.rng = rand.New(rand.NewSource(c.eng.seed*1_000_003 + int64(c.id)))
	}
	return c.rng
}

// Round returns the number of Tick calls this node has performed.
// A fault-layer restart resets the count: the restarted program is a
// fresh execution and sees Round() grow from 0 again.
func (c *Ctx) Round() int { return c.rt.ticks }

// Restarts returns how many times this node has been crashed and
// restarted by the fault layer (see WithFaults). Always 0 in
// fault-free runs; a freshly restarted program observes the
// incremented count from its first instruction.
func (c *Ctx) Restarts() int { return c.rt.restarts }

// meter charges one message against the per-edge cap of port (already
// checked to be one of the node's ports), growing the stamped count
// array to cover it first.
//
//muvet:hotpath
func (c *Ctx) meter(port int) {
	if port >= len(c.sent) {
		c.growSent(port + 1)
	}
	v := c.sent[port]
	if uint32(v>>32) != c.sentRound {
		v = uint64(c.sentRound) << 32 // stale stamp: count restarts at 0
	}
	if uint32(v) >= c.sentCap {
		panic(fmt.Sprintf("sim: node %d exceeded edge capacity %d to port %d in one round",
			c.id, c.eng.edgeCap, port))
	}
	c.sent[port] = v + 1
}

// growSent extends the bandwidth-meter array to at least n ≤ degree
// entries (doubling, capped at the degree) so repeated growth on
// ascending ports stays amortized O(1).
func (c *Ctx) growSent(n int) {
	size := min(max(2*len(c.sent), n), c.deg)
	sent := make([]uint64, size)
	copy(sent, c.sent)
	c.sent = sent
}

// Send queues one message to the neighbor on port for delivery at the
// start of the next round. It panics unless 0 ≤ port < Degree(), and if
// the per-edge bandwidth cap is exceeded within the current round.
//
//muvet:hotpath
func (c *Ctx) Send(port int, m Msg) {
	c.checkPort(port)
	c.meter(port)
	sh := c.sh
	sh.send = append(sh.send, routed{from: c.id, to: c.eng.topo.NeighborAt(c.id, port), msg: m})
}

// SendID queues one message to the adjacent node with the given id.
//
//muvet:hotpath
func (c *Ctx) SendID(id int, m Msg) {
	p := c.PortOf(id)
	if p < 0 {
		panic(fmt.Sprintf("sim: node %d attempted to send to non-neighbor %d", c.id, id))
	}
	c.Send(p, m)
}

// Broadcast queues one copy of m to every neighbor. It meters and
// resolves all ports in single passes instead of re-deriving each
// neighbor through the generic Send path.
//
//muvet:hotpath
func (c *Ctx) Broadcast(m Msg) {
	deg := c.deg
	if deg == 0 {
		return
	}
	if len(c.sent) < deg {
		c.growSent(deg)
	}
	stamp := uint64(c.sentRound) << 32
	for p := 0; p < deg; p++ {
		v := c.sent[p]
		if uint32(v>>32) != c.sentRound {
			v = stamp
		}
		if uint32(v) >= c.sentCap {
			panic(fmt.Sprintf("sim: node %d exceeded edge capacity %d to port %d in one round",
				c.id, c.eng.edgeCap, p))
		}
		c.sent[p] = v + 1
	}
	sh := c.sh
	out := sh.send
	if need := len(out) + deg; cap(out) < need {
		// One growth instead of doubling through the append loop; at
		// least 2x so the shard's later sends stay amortized.
		if dbl := 2 * cap(out); need < dbl {
			need = dbl
		}
		grown := make([]routed, len(out), need)
		copy(grown, out)
		out = grown
	}
	topo := c.eng.topo
	for p := 0; p < deg; p++ {
		out = append(out, routed{from: c.id, to: topo.NeighborAt(c.id, p), msg: m})
	}
	sh.send = out
}

// Tick ends the node's current round: queued messages are handed to the
// engine, the node waits until every node reaches the barrier, and the
// messages that arrived are returned. The returned inbox counts toward
// the node's memory until it drops the slice.
//
// The returned slice aliases the node's region of an engine-owned arena
// that the next delivery rewrites, with other nodes' messages too: it is
// valid only until this node's next Tick call. Copy any messages that
// must outlive the round. Its capacity ends with the node's region, so
// appending to it copies instead of writing into another node's inbox.
// Build with `-tags simdebug` to poison retired arenas and surface
// violations of this contract as sentinel messages (From/Kind = -1).
//
// Tick yields the node's coroutine back to the delivery worker driving
// it; the engine stages the outbox and counts the tick, and resumes the
// node with its next inbox (see coroutine in step.go).
//
//muvet:hotpath
func (c *Ctx) Tick() []Incoming {
	rt := c.rt
	co := rt.co
	if co == nil {
		// Only a blocking program runs as a coroutine; a StepProgram has
		// no coroutine to yield from. Fail as a node error.
		panic(fmt.Sprintf("sim: node %d runs a step program; the engine owns its round boundary (return true from Step instead of calling Tick)", c.id))
	}
	// yield reports false when the engine stops the coroutine to unwind
	// it: the node is crashing, or its run is exiting by panic. The
	// crash check precedes the abort check: the fault point only crashes
	// nodes on non-aborted rounds, and a crashing node must unwind as a
	// crash, not as an abort.
	resumed := co.yield(struct{}{})
	if rt.crashing {
		panic(errCrash)
	}
	if !resumed || c.eng.aborted {
		panic(errAbort)
	}
	return co.in
}

// Idle performs k rounds with no sends, discarding any received
// messages.
func (c *Ctx) Idle(k int) {
	for i := 0; i < k; i++ {
		c.Tick()
	}
}

// Emit outputs v. Per the μ-CONGEST model, emitted outputs leave the
// node immediately and consume no memory.
//
//muvet:hotpath
func (c *Ctx) Emit(v any) {
	c.rt.outputs = append(c.rt.outputs, v)
}

// Charge records that the algorithm now holds `words` additional words
// of memory. Peak usage and μ violations are tracked by the engine.
// Negative words are rejected with a panic: silently shrinking the
// meter would bypass Release's underflow check and could drive the
// live count negative. Use Release to return memory.
//
// The words delivered to the node at the last barrier stay charged
// alongside the algorithm's live words — the engine cannot observe the
// node dropping the inbox slice before its next Tick — so both the peak
// update and the strict-mode abort check match the engine's barrier
// accounting: a node that charges over μ while still holding its inbox
// aborts (strict) and has the overrun reflected in PeakWords.
//
//muvet:hotpath
func (c *Ctx) Charge(words int64) {
	if words < 0 {
		panic(fmt.Sprintf("sim: node %d Charge(%d): negative words (use Release to return memory)",
			c.id, words))
	}
	rt := c.rt
	rt.live += words
	if total := rt.live + rt.inboxWords; total > rt.peak {
		rt.peak = total
	}
	if c.eng.strict && c.eng.mu > 0 && rt.live+rt.inboxWords > c.eng.mu {
		panic(fmt.Errorf("%w: node %d holds %d live + %d inbox words > μ=%d",
			ErrMemory, c.id, rt.live, rt.inboxWords, c.eng.mu))
	}
}

// Release returns `words` words to the memory meter. Negative words are
// rejected with a panic, symmetrically with Charge.
//
//muvet:hotpath
func (c *Ctx) Release(words int64) {
	if words < 0 {
		panic(fmt.Sprintf("sim: node %d Release(%d): negative words (use Charge to add memory)",
			c.id, words))
	}
	rt := c.rt
	rt.live -= words
	if rt.live < 0 {
		panic(fmt.Sprintf("sim: node %d released more memory than charged", c.id))
	}
}

// Live returns the words currently charged by the algorithm (excluding
// the in-flight inbox).
func (c *Ctx) Live() int64 { return c.rt.live }

// openSends starts the node's outbox for a round: every message
// appended to the shard's send arena from here to the next stage call
// is the node's. A round's outbox opens before Program.Node at bind —
// sends Node makes ride with the first step's — and before the step
// otherwise; sends made while a crash unwinds the node fall outside
// every opened outbox and are never published.
func (c *Ctx) openSends() { c.sendLo = len(c.sh.send) }

// stage hands the node's outbox to the engine — its span of the shard's
// send arena becomes senderOut[id], which the route phase reads — and
// bumps the round stamp, invalidating every per-port send count in O(1).
//
//muvet:hotpath
func (c *Ctx) stage() {
	if hi := len(c.sh.send); hi > c.sendLo {
		c.eng.senderOut[c.id] = span{c.sendLo, hi}
	}
	c.sentRound++
}
