package sim

import (
	"errors"
	"math/rand"
	"slices"
)

// Sharded delivery: the engine's per-round work — routing staged sends
// into inboxes, applying the inbox order, memory accounting and the
// resume fan-out — is partitioned into shards of ShardSpan consecutive
// node ids. Per-destination routing and inbox ordering are independent
// across destinations, so shards never contend; a persistent worker pool
// (see Engine.startPool) executes the shards of each phase in parallel.
//
// Determinism for every worker count rests on two invariants:
//
//  1. The shard layout is a pure function of n (fixed ShardSpan), never
//     of the worker count. Workers pull whole shards (or route groups of
//     them), so any schedule computes the same per-shard results.
//  2. OrderRandom draws from a per-shard RNG stream derived only from
//     the engine seed and the shard index, consumed in ascending node
//     id within the shard. Shard 0's stream is seeded exactly like the
//     pre-sharding engine RNG, so single-shard runs (n ≤ ShardSpan,
//     i.e. every run the old golden digests were recorded on) reproduce
//     the historical draw sequence bit for bit.
//
// Messages live in flat per-shard arenas. A stepping node appends its
// sends to its shard's send arena, and senderOut[id] records its span.
// The route phase runs one task per group of gsize consecutive shards:
// it walks the group's senders in ascending id and copies every
// surviving message into the group leader's bucket for the destination
// shard. The account phase of each shard drains the buckets addressed
// to it in ascending group order — which concatenates back to the
// global ascending sender order — and counting-sorts them by
// destination into the shard's inbox arena, so node v's inbox is one
// contiguous region of it, ascending sender id, send order within a
// sender. The group size only decides how the sender range is cut into
// tasks; any cut concatenates to the same per-destination order, so it
// is invisible in every result.

// ShardSpan is the number of consecutive node ids per delivery shard.
// It must stay fixed: shard boundaries feed the per-shard RNG streams,
// so changing it re-keys every OrderRandom run with n > ShardSpan.
//
// ShardSpan and ShardStreamSeed are exported as part of the engine's
// determinism contract: OrderRandom shuffles node v's inbox with the
// stream of shard v/ShardSpan, consumed once per non-empty inbox in
// ascending node id. The refsim reference engine reproduces the
// engine's draws from these two values alone.
const ShardSpan = 512

// phaseKind selects the work a delivery phase performs on each task.
type phaseKind uint8

const (
	// phaseRoute buckets a route group's staged sends by destination
	// shard, counting drops to finished nodes. It also performs the
	// group's slice of the barrier bookkeeping: counting newly finished
	// nodes and harvesting their errors.
	phaseRoute phaseKind = iota
	// phaseAccount drains the buckets addressed to the shard into its
	// inbox arena, applies the inbox order and charges memory.
	phaseAccount
	// phaseAccountResume is phaseAccount fused with the resume fan-out:
	// each node is stepped as soon as its own inbox is ready (non-strict
	// runs only — strict aborts need all shards accounted first).
	phaseAccountResume
	// phaseResume steps every live node with its inbox (strict runs,
	// after the abort decision).
	phaseResume
	// phaseBind materializes the shard's node contexts, binds each
	// node's program form and runs its first step at run start (see
	// bindNode in step.go).
	phaseBind
	// phaseFaults is the shard's slice of the fault point before the
	// route phase: due restarts and crash draws (see faultShard in
	// faults.go).
	phaseFaults
)

// shardState is one shard's scratch, reused across rounds so the hot
// loop is allocation-free in steady state. It is written only by the
// worker currently holding the shard or its route group (phase barriers
// order the cross-shard bucket reads).
type shardState struct {
	// rng is the shard's OrderRandom stream, created only for runs
	// with that inbox order.
	rng *rand.Rand
	// send is the shard's send arena: the messages its nodes staged
	// since the shard last stepped them, in step order; senderOut[id] is
	// node id's span of it. A restart at the fault point appends after
	// the previous phase's sends, so only the span table, not the arena
	// order, says which sender a message belongs to. Reset when the shard
	// next steps its nodes, after the route phase has consumed every span.
	send []routed
	// xfer is a route group's bucket table, kept by the group's leader
	// (its first shard) only: xfer[t] holds the messages the group's
	// senders staged for destination shard t this round, ascending
	// sender id, send order within a sender. Filled by the group's route
	// task, drained (and truncated) by shard t's account phase.
	xfer [][]routed
	// inbox is the shard's inbox arena, rebuilt by every account phase:
	// node lo+i's inbox is inbox[off[i]:off[i+1]] (see inboxOf). One
	// arena suffices, because a shard's account phase runs only after
	// every node it handed a region to has crossed its next barrier.
	// simdebug builds alternate with retired, which keeps the last
	// round's arena poisoned for a round instead of overwriting it at
	// once.
	inbox   []Incoming
	retired []Incoming
	off     []int
	// messages counts deliveries to this shard's destinations, dropped
	// the drops of this shard's senders, whole run.
	messages int64
	dropped  int64
	// faultDropped is the fault-induced subset of dropped (loss draws,
	// down edges, parked destinations). Only counted when a fault plan
	// is active.
	faultDropped int64
	over         []overrun

	// frng is the shard's fault stream, created only when a fault plan
	// is active. It is re-keyed at every use point from FaultStreamSeed
	// — with the crash tag in the fault phase, with the loss tag when
	// the route phase reaches the shard's senders — so one stream serves
	// both processes without interference.
	frng *faultStream
	// crashes and restarts count the fault layer's crashes and restarts
	// of this shard's nodes, whole run.
	crashes  int64
	restarts int64

	// Barrier bookkeeping staged by phaseRoute and drained (and reset)
	// by the engine between phases: how many of the shard's nodes
	// terminated at this barrier, and the error of the lowest-id node
	// that failed (excluding the engine's own abort sentinel).
	newlyFinished int
	err           error
}

// overrun is one node's μ overrun at the current barrier, staged
// per-shard and merged into the run's Violation list by mergeRound.
type overrun struct {
	node  int
	words int64
}

// ShardStreamSeed derives shard s's RNG seed. Shard 0 keeps the raw
// engine seed — the pre-sharding engine drew OrderRandom permutations
// from rand.NewSource(seed), and single-shard runs must keep
// reproducing the golden digests recorded then. Higher shards get
// splitmix64-finalized streams. Exported as part of the determinism
// contract (see ShardSpan).
func ShardStreamSeed(seed int64, s int) int64 {
	if s == 0 {
		return seed
	}
	x := uint64(seed) ^ (uint64(s) * 0x9E3779B97F4A7C15)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x)
}

// routeGroupSize is the number of consecutive shards one route task
// walks: about four groups per worker, so the cursor can balance uneven
// groups, and as few bucket tables (one per group) as that allows.
func routeGroupSize(nshards, workers int) int { return max(1, nshards/(4*workers)) }

// initShards sizes the shard scratch for this run, reusing pooled shard
// states where available: arenas and buckets keep their capacity, RNGs
// keep their source (an OrderRandom stream is re-seeded below, so its
// draws are exactly those of a fresh run; a fault stream is re-keyed at
// every use), and counters reset. It also resolves the worker count
// and, from it and n, the route groups.
func (e *Engine) initShards(sc *runScratch) {
	e.nshards = max(1, (e.n+ShardSpan-1)/ShardSpan)
	e.poolSize = e.resolveWorkers()
	e.gsize = routeGroupSize(e.nshards, e.poolSize)
	e.ngroups = (e.nshards + e.gsize - 1) / e.gsize
	for len(sc.shards) < e.nshards {
		sc.shards = append(sc.shards, &shardState{})
	}
	e.shards = sc.shards[:e.nshards]
	for s, st := range e.shards {
		if e.order == OrderRandom {
			if st.rng == nil {
				st.rng = rand.New(rand.NewSource(ShardStreamSeed(e.seed, s)))
			} else {
				st.rng.Seed(ShardStreamSeed(e.seed, s))
			}
		}
		switch {
		case s%e.gsize != 0:
			st.xfer = nil
		case cap(st.xfer) < e.nshards:
			st.xfer = make([][]routed, e.nshards)
		default:
			st.xfer = st.xfer[:e.nshards]
			for t := range st.xfer {
				st.xfer[t] = st.xfer[t][:0]
			}
		}
		lo, hi := e.shardRange(s)
		// Two spare slots: the counting sort counts into off[i+2] and
		// scatters through off[i+1] (see accountShard).
		if need := hi - lo + 2; cap(st.off) < need {
			st.off = make([]int, need)
		} else {
			st.off = st.off[:need]
		}
		st.send = st.send[:0]
		st.inbox = st.inbox[:0]
		st.retired = st.retired[:0]
		st.over = st.over[:0]
		st.messages = 0
		st.dropped = 0
		st.faultDropped = 0
		st.crashes = 0
		st.restarts = 0
		if e.hasFaults && st.frng == nil {
			st.frng = new(faultStream)
		}
		st.newlyFinished = 0
		st.err = nil
	}
}

// shardRange returns shard s's node id range [lo, hi).
func (e *Engine) shardRange(s int) (lo, hi int) {
	lo = s * ShardSpan
	return lo, min(lo+ShardSpan, e.n)
}

// inboxOf returns the inbox of the shard's j-th node: its region of the
// inbox arena, capacity clipped to the region. off is only rebuilt for a
// round that delivered something, so an empty arena answers nil.
func (st *shardState) inboxOf(j int) []Incoming {
	if len(st.inbox) == 0 {
		return nil
	}
	return st.inbox[st.off[j]:st.off[j+1]:st.off[j+1]]
}

// runTask runs task i of phase k: route group i for the route phase,
// shard i for every other phase.
func (e *Engine) runTask(k phaseKind, i int) {
	if k == phaseRoute {
		e.routeGroup(i)
		return
	}
	st := e.shards[i]
	lo, hi := e.shardRange(i)
	switch k {
	case phaseAccount:
		e.accountShard(st, i, lo, hi, false)
	case phaseAccountResume:
		e.accountShard(st, i, lo, hi, true)
	case phaseResume:
		st.send = st.send[:0]
		for id := lo; id < hi; id++ {
			// The account phase acknowledged every done node as finished,
			// so a zero state is exactly a live, unparked node.
			if e.state[id] == 0 {
				c := &e.ctxs[id]
				c.openSends()
				e.stepNode(c, &e.nodes[id], st.inboxOf(id-lo))
			}
		}
	case phaseBind:
		st.send = st.send[:0]
		for id := lo; id < hi; id++ {
			e.bindNode(id)
		}
	case phaseFaults:
		e.faultShard(st, i, lo, hi)
	}
}

// routeGroup walks the senders of route group g — its shards in
// ascending order, each shard's nodes in ascending id, each node's span
// of its shard's send arena in send order — and buckets every message
// into the group leader's table by destination shard. Walking by id,
// not in arena order, keeps a restarted node's span (appended after the
// previous phase's sends) in its sender position. Messages to finished
// nodes are dropped here, before they cost any downstream work.
//
// The walk doubles as the group's slice of barrier collection: nodes
// whose done bit is newly set are counted and their errors harvested
// into their shard's scratch — the engine folds those into active and
// runErr between phases. The drop checks read the destination's status
// byte: its done bit is written only by the phase that ran the node's
// last step and its parked bit only by its shard in the fault phase, so
// both are immutable during the route phase and safe to read across
// shards.
//
//muvet:hotpath
func (e *Engine) routeGroup(g int) {
	nodes := e.nodes
	state := e.state
	senderOut := e.senderOut
	xfer := e.shards[g*e.gsize].xfer
	// Fault state for the round: each shard's loss stream is re-keyed
	// (seed, round, shard) when the walk reaches the shard, consumed
	// once per message that survived the earlier drop checks, in
	// ascending sender id and send order — the exact walk refsim replays.
	faults := e.hasFaults
	var fp FaultPlan
	if faults {
		fp = e.faults
	}
	round := e.round
	first, end := g*e.gsize, min((g+1)*e.gsize, e.nshards)
	// A full bucket grows by at least the group's average share per
	// destination shard, so a cold round fills most buckets in one or two
	// allocations instead of a doubling chain from one.
	staged := 0
	for s := first; s < end; s++ {
		staged += len(e.shards[s].send)
	}
	share := staged / e.nshards
	for s := first; s < end; s++ {
		st := e.shards[s]
		var lrng *faultStream
		if faults && fp.Loss {
			lrng = st.frng
			lrng.Seed(FaultStreamSeed(e.seed, round, s, FaultKindLoss))
		}
		send := st.send
		lo, hi := e.shardRange(s)
		for id := lo; id < hi; id++ {
			f := state[id]
			if f&stFinished != 0 {
				continue // terminated at an earlier barrier; nothing staged
			}
			if f&stDone != 0 {
				st.newlyFinished++
				if rt := &nodes[id]; rt.nodeErr != nil {
					if st.err == nil && !errors.Is(rt.nodeErr, errAbort) {
						st.err = rt.nodeErr
					}
					rt.nodeErr = nil
				}
			}
			sp := senderOut[id]
			if sp.hi == sp.lo {
				continue
			}
			senderOut[id] = span{}
			for i := sp.lo; i < sp.hi; i++ {
				m := &send[i]
				if d := state[m.to]; d != 0 {
					// Drop order is part of the determinism contract: done
					// (finished implies done) before parked, so a parked
					// node the abort path terminated is an ordinary drop.
					st.dropped++
					if d&stDone == 0 {
						st.faultDropped++
					}
					continue
				}
				if faults {
					// Then the down edge, then the loss draw — the draw is
					// consumed only for messages surviving every earlier
					// check, so the stream position is a pure function of
					// the (deterministic) message sequence.
					if fp.EdgeDown && fp.EdgeIsDown(e.seed, round, m.from, m.to) {
						st.dropped++
						st.faultDropped++
						continue
					}
					if lrng != nil && lrng.Float64() < fp.LossP {
						st.dropped++
						st.faultDropped++
						continue
					}
				}
				t := m.to / ShardSpan
				if b := xfer[t]; len(b) == cap(b) {
					xfer[t] = slices.Grow(b, max(len(b), share))
				}
				xfer[t] = append(xfer[t], *m)
			}
		}
	}
}

// accountShard delivers, orders and accounts the inboxes of the shard's
// destination range [lo, hi), then (when resume is set) steps each node
// with its inbox. The buckets addressed to the shard are counting-sorted
// by destination into the shard's inbox arena — stable, so each inbox
// keeps the buckets' ascending sender order — and every handed inbox's
// capacity is clipped to its own region, so appending to it cannot
// reach a neighbour's. OrderRandom must consume the shard RNG once per
// non-empty inbox in ascending node id: the determinism golden tests pin
// this draw sequence. Memory is evaluated for every live node —
// including nodes that received nothing — so OverRounds counts
// charge-only and quiet rounds too.
//
//muvet:hotpath
func (e *Engine) accountShard(st *shardState, s, lo, hi int, resume bool) {
	nodes := e.nodes
	state := e.state
	delivered := 0
	for g := 0; g < e.ngroups; g++ {
		delivered += len(e.shards[g*e.gsize].xfer[s])
	}
	if debugPoison {
		// Every node handed a region of the arena last round has crossed
		// its next barrier, so the whole arena is retired: poison it and
		// build this round's inboxes in the other buffer, so a slice kept
		// against the aliasing contract reads sentinels for a round.
		poisonInbox(st.inbox)
		st.inbox, st.retired = st.retired, st.inbox
	}
	arena := st.inbox[:0]
	if delivered > 0 {
		if cap(arena) < delivered {
			arena = make([]Incoming, delivered)
		}
		arena = arena[:delivered]
		// Count each destination's deliveries into off[v-lo+2], so that
		// after the prefix sum off[i+1] is node lo+i's first slot, and the
		// scatter's increments leave node lo+i's region at off[i]:off[i+1].
		off := st.off
		clear(off)
		for g := 0; g < e.ngroups; g++ {
			b := e.shards[g*e.gsize].xfer[s]
			for i := range b {
				off[b[i].to-lo+2]++
			}
		}
		for i := 2; i < len(off); i++ {
			off[i] += off[i-1]
		}
		for g := 0; g < e.ngroups; g++ {
			lead := e.shards[g*e.gsize]
			b := lead.xfer[s]
			for i := range b {
				m := &b[i]
				j := m.to - lo + 1
				arena[off[j]] = Incoming{From: m.from, Msg: m.msg}
				off[j]++
			}
			lead.xfer[s] = b[:0]
		}
	}
	st.inbox = arena
	st.messages += int64(delivered)
	if resume {
		st.send = st.send[:0]
	}
	order, mu := e.order, e.mu
	for id := lo; id < hi; id++ {
		if f := state[id]; f != 0 {
			if f&(stDone|stFinished) == stDone {
				// Terminated at this barrier: acknowledge so later rounds skip
				// the node everywhere. No ordering, metering or resume — the
				// pre-barrier engine skipped nodes it had just collected as
				// finished the same way.
				state[id] = f | stFinished
			}
			// Finished earlier, or crashed and awaiting restart: a parked
			// node was delivered nothing (the route phase dropped it),
			// holds no memory and has no program to step.
			continue
		}
		in := st.inboxOf(id - lo)
		if len(in) > 0 && order != OrderBySender {
			switch order {
			case OrderRandom:
				//muvet:allow hotalloc(rand.Shuffle swap closure does not escape; the alloc-free pin in TestSteadyStateRoundAllocFree covers this path)
				st.rng.Shuffle(len(in), func(i, j int) {
					in[i], in[j] = in[j], in[i]
				})
			case OrderReversed:
				for i, j := 0, len(in)-1; i < j; i, j = i+1, j-1 {
					in[i], in[j] = in[j], in[i]
				}
			}
		}
		rt := &nodes[id]
		rt.inboxWords = int64(len(in)) * MsgWords
		total := rt.live + rt.inboxWords
		if total > rt.peak {
			rt.peak = total
		}
		if mu > 0 && total > mu {
			st.over = append(st.over, overrun{node: id, words: total})
		}
		if resume {
			c := &e.ctxs[id]
			c.openSends()
			e.stepNode(c, rt, in)
		}
	}
}
