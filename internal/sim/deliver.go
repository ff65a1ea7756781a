package sim

import (
	"errors"
	"math/rand"
)

// Sharded delivery: the engine's per-round work — routing staged
// outboxes into inboxes, applying the inbox order, memory accounting and
// the resume fan-out — is partitioned into shards of ShardSpan
// consecutive node ids. Per-destination routing and inbox ordering are
// independent across destinations, so shards never contend; a persistent
// worker pool (see Engine.startPool) executes the shards of each phase
// in parallel.
//
// Determinism for every worker count rests on two invariants:
//
//  1. The shard layout is a pure function of n (fixed ShardSpan), never
//     of the worker count. Workers pull whole shards, so any schedule
//     computes the same per-shard results.
//  2. OrderRandom draws from a per-shard RNG stream derived only from
//     the engine seed and the shard index, consumed in ascending node
//     id within the shard. Shard 0's stream is seeded exactly like the
//     pre-sharding engine RNG, so single-shard runs (n ≤ ShardSpan,
//     i.e. every run the old golden digests were recorded on) reproduce
//     the historical draw sequence bit for bit.
//
// Routing preserves the documented inbox order (ascending sender id,
// send order within a sender) with O(m) total work via a two-phase
// exchange: the route phase walks each shard's own sender range in
// ascending id and buckets messages by destination shard; the account
// phase drains the buckets addressed to its shard in ascending
// sender-shard order, which concatenates back to the global ascending
// sender order per destination.

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

// phaseKind selects the work a delivery phase performs on each shard.
type phaseKind uint8

const (
	// phaseRoute buckets the shard's staged sender outboxes by
	// destination shard, counting drops to finished nodes. It also
	// performs the shard's slice of the barrier bookkeeping the engine
	// used to do serially: poisoning retired inboxes (simdebug),
	// counting newly finished nodes and harvesting their errors.
	phaseRoute phaseKind = iota
	// phaseAccount drains the buckets addressed to the shard into its
	// destination inboxes, applies the inbox order and charges memory.
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
)

// shardState is one shard's scratch, reused across rounds so the hot
// loop is allocation-free in steady state. It is written only by the
// worker currently holding the shard (phase barriers order the
// cross-shard xfer reads).
type shardState struct {
	rng *rand.Rand
	// xfer[t] holds the messages this shard's senders staged for
	// destination shard t this round: ascending sender id, send order
	// within a sender. Filled in phaseRoute, drained (and truncated) by
	// shard t's account phase.
	xfer     [][]routed
	messages int64 // delivered to this shard's destinations, whole run
	dropped  int64 // dropped by this shard's senders, whole run
	// faultDropped is the fault-induced subset of dropped (loss draws,
	// down edges, parked destinations). Only counted when a fault plan
	// is active.
	faultDropped int64
	over         []overrun

	// frng is the shard's fault-stream RNG, created only when a fault
	// plan is active. It is re-seeded at every use point from
	// FaultStreamSeed — with the crash tag at the serial fault point,
	// with the loss tag at the top of the shard's route phase — so one
	// source serves both streams without interference.
	frng *rand.Rand

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

// initShards sizes the shard scratch for this run, reusing pooled shard
// states where available: buckets keep their capacity, RNGs keep their
// source (re-seeded below, so the draw stream is exactly that of a
// fresh run), and counters reset.
func (e *Engine) initShards(sc *runScratch) {
	e.nshards = (e.n + ShardSpan - 1) / ShardSpan
	if e.nshards < 1 {
		e.nshards = 1
	}
	for len(sc.shards) < e.nshards {
		sc.shards = append(sc.shards, &shardState{})
	}
	e.shards = sc.shards[:e.nshards]
	for s, st := range e.shards {
		if st.rng == nil {
			st.rng = rand.New(rand.NewSource(ShardStreamSeed(e.seed, s)))
		} else {
			st.rng.Seed(ShardStreamSeed(e.seed, s))
		}
		if cap(st.xfer) < e.nshards {
			st.xfer = make([][]routed, e.nshards)
		} else {
			st.xfer = st.xfer[:e.nshards]
			for t := range st.xfer {
				st.xfer[t] = st.xfer[t][:0]
			}
		}
		st.over = st.over[:0]
		st.messages = 0
		st.dropped = 0
		st.faultDropped = 0
		if e.hasFaults && st.frng == nil {
			st.frng = rand.New(rand.NewSource(FaultStreamSeed(e.seed, 0, s, FaultKindCrash)))
		}
		st.newlyFinished = 0
		st.err = nil
	}
}

// shardPhase runs one phase on one shard.
func (e *Engine) shardPhase(k phaseKind, s int) {
	lo := s * ShardSpan
	hi := lo + ShardSpan
	if hi > e.n {
		hi = e.n
	}
	switch k {
	case phaseRoute:
		e.routeShard(e.shards[s], lo, hi)
	case phaseAccount:
		e.accountShard(e.shards[s], s, lo, hi, false)
	case phaseAccountResume:
		e.accountShard(e.shards[s], s, lo, hi, true)
	case phaseResume:
		for id := lo; id < hi; id++ {
			if rt := &e.nodes[id]; !rt.finished && !rt.parked {
				e.stepNode(&e.ctxs[id], rt)
			}
		}
	case phaseBind:
		for id := lo; id < hi; id++ {
			e.bindNode(id)
		}
	}
}

// routeShard walks the shard's own sender range in ascending id (the
// non-nil senderOut entries form a dense "staged this round" bitmap —
// no sorted sender list needed) and buckets every message by its
// destination shard. Messages to finished nodes are dropped here, before
// they cost any downstream work.
//
// The walk doubles as the shard's slice of barrier collection: every
// node that arrived at this barrier (ticked or just terminated) gets
// its retired inbox poisoned under simdebug, and nodes whose done bit
// is newly set are counted and their errors harvested into the shard
// scratch — the engine folds those into active/runErr between phases.
// The drop check reads the done bit, not finished: done is written only
// by the phase that ran the node's last step, so it is immutable during
// the route phase and safe to read across shards; finished is the
// owning shard's acknowledgment, written in its account phase.
//
//muvet:hotpath
func (e *Engine) routeShard(st *shardState, lo, hi int) {
	nodes := e.nodes
	senderOut := e.senderOut
	// Fault state for the round, resolved once per shard: the loss
	// stream is re-keyed (seed, round, shard) here, consumed below once
	// per message that survived the earlier drop checks, in ascending
	// sender id and send order — the exact walk refsim replays.
	faults := e.hasFaults
	var (
		fp   FaultPlan
		lrng *rand.Rand
	)
	round := e.round
	if faults {
		fp = e.faults
		if fp.Loss {
			lrng = st.frng
			lrng.Seed(FaultStreamSeed(e.seed, round, lo/ShardSpan, FaultKindLoss))
		}
	}
	for id := lo; id < hi; id++ {
		rt := &nodes[id]
		if rt.finished {
			continue // terminated at an earlier barrier; nothing staged
		}
		if debugPoison {
			// The node just passed its Tick barrier (or finished), so by
			// the Tick aliasing contract it may no longer read the inbox
			// slice it was handed last round. Poison the retired buffer
			// so contract violations read sentinels, not silently stale
			// or clobbered messages.
			poisonStale(rt)
		}
		if rt.done {
			st.newlyFinished++
			if rt.nodeErr != nil {
				if st.err == nil && !errors.Is(rt.nodeErr, errAbort) {
					st.err = rt.nodeErr
				}
				rt.nodeErr = nil
			}
		}
		out := senderOut[id]
		if out == nil {
			continue
		}
		senderOut[id] = nil
		for _, m := range out {
			if nodes[m.to].done {
				st.dropped++
				continue
			}
			if faults {
				// Drop order is part of the determinism contract: parked
				// destination, then down edge, then the loss draw — the
				// draw is consumed only for messages surviving the first
				// two, so the stream position is a pure function of the
				// (deterministic) message sequence.
				if nodes[m.to].parked {
					st.dropped++
					st.faultDropped++
					continue
				}
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
			st.xfer[t] = append(st.xfer[t], m)
		}
	}
}

// accountShard delivers, orders and accounts the inboxes of the shard's
// destination range [lo, hi), then (when resume is set) steps each node
// with its inbox. OrderRandom must consume the shard RNG once per non-empty
// inbox in ascending node id: the determinism golden tests pin this draw
// sequence. Memory is evaluated for every live node — including nodes
// that received nothing — so OverRounds counts charge-only and quiet
// rounds too.
//
//muvet:hotpath
func (e *Engine) accountShard(st *shardState, s, lo, hi int, resume bool) {
	nodes := e.nodes
	for _, src := range e.shards {
		b := src.xfer[s]
		if len(b) == 0 {
			continue
		}
		for _, m := range b {
			rt := &nodes[m.to]
			rt.inbox = append(rt.inbox, Incoming{From: m.from, Msg: m.msg})
		}
		st.messages += int64(len(b))
		src.xfer[s] = b[:0]
	}
	order, mu := e.order, e.mu
	for id := lo; id < hi; id++ {
		rt := &nodes[id]
		if rt.finished {
			continue
		}
		if rt.done {
			// Terminated at this barrier: acknowledge so later rounds skip
			// the node everywhere. No ordering, metering or resume — the
			// pre-barrier engine skipped nodes it had just collected as
			// finished the same way.
			rt.finished = true
			continue
		}
		if rt.parked {
			// Crashed and awaiting restart: nothing was delivered (the
			// route phase dropped it), the node holds no memory, and
			// there is no program to step.
			continue
		}
		if len(rt.inbox) > 0 && order != OrderBySender {
			switch order {
			case OrderRandom:
				//muvet:allow hotalloc(rand.Shuffle swap closure does not escape; the alloc-free pin in TestSteadyStateRoundAllocFree covers this path)
				st.rng.Shuffle(len(rt.inbox), func(i, j int) {
					rt.inbox[i], rt.inbox[j] = rt.inbox[j], rt.inbox[i]
				})
			case OrderReversed:
				for i, j := 0, len(rt.inbox)-1; i < j; i, j = i+1, j-1 {
					rt.inbox[i], rt.inbox[j] = rt.inbox[j], rt.inbox[i]
				}
			}
		}
		rt.inboxWords = int64(len(rt.inbox)) * MsgWords
		total := rt.live + rt.inboxWords
		if total > rt.peak {
			rt.peak = total
		}
		if mu > 0 && total > mu {
			st.over = append(st.over, overrun{node: id, words: total})
		}
		if resume {
			e.stepNode(&e.ctxs[id], rt)
		}
	}
}
