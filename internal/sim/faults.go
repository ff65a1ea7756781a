package sim

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Fault injection: seeded, deterministic failure processes layered on
// the engine's existing phase structure. A FaultPlan composes up to
// three independent processes:
//
//   - message loss   — every routed message is dropped i.i.d. with
//     probability p, after the usual finished-destination drop check;
//   - node crash     — every live node crashes i.i.d. per round with
//     probability p, parks for `restart` rounds, then restarts through
//     its Program/StepProgram from scratch (Ctx.Restarts counts);
//   - edge churn     — every undirected edge goes down i.i.d. per
//     round with probability p and stays down for `up` rounds;
//     messages routed over a down edge are dropped.
//
// All three draw from dedicated RNG streams keyed (seed, round, shard)
// via FaultStreamSeed — never from the engine's OrderRandom streams or
// the node RNGs — so enabling faults does not perturb any existing
// stream, fault-free runs reproduce every historical golden digest,
// and faulty runs are bit-for-bit identical across worker counts and
// across the blocking/step execution forms. The refsim reference
// engine reproduces the draws from the exported derivation alone; the
// differential harness certifies the parity.

// FaultPlan selects which fault processes a run injects and with what
// parameters. The zero value injects nothing. Plans parse from and
// print to a spec string in the topo-spec idiom, with clauses joined
// by '+':
//
//	loss:p=0.01
//	crash:p=0.001,restart=5
//	edgedown:p=0.005,up=3
//	loss:p=0.1+crash:p=0.05,restart=2
type FaultPlan struct {
	// Loss enables i.i.d. message loss with probability LossP per
	// routed message.
	Loss  bool
	LossP float64

	// Crash enables i.i.d. node crashes with probability CrashP per
	// live node per round; a crashed node parks for Restart rounds
	// (≥ 1) and then restarts its program from scratch.
	Crash   bool
	CrashP  float64
	Restart int

	// EdgeDown enables i.i.d. edge failures with probability EdgeDownP
	// per undirected edge per round; a failed edge drops messages in
	// both directions for Up rounds (≥ 1).
	EdgeDown  bool
	EdgeDownP float64
	Up        int
}

// Empty reports whether the plan injects no faults at all. Engines
// treat an empty plan exactly like no WithFaults option: the fault
// branches are skipped and no fault stream is ever consumed.
func (p FaultPlan) Empty() bool { return !p.Loss && !p.Crash && !p.EdgeDown }

// RestartDelay returns the crash parking duration in rounds, clamping
// hand-built plans to the minimum of one round (a zero delay would
// schedule the restart at a fault point that has already passed).
func (p FaultPlan) RestartDelay() int {
	if p.Restart < 1 {
		return 1
	}
	return p.Restart
}

// upRounds is RestartDelay's twin for the edge-churn outage length.
func (p FaultPlan) upRounds() int {
	if p.Up < 1 {
		return 1
	}
	return p.Up
}

// String renders the plan in canonical spec form: clauses in the fixed
// order loss, crash, edgedown, every parameter explicit, probabilities
// in shortest round-tripping decimal form, and the restart and up
// lengths as the effective values the engine runs with (a hand-built
// zero prints as 1). ParseFaults(p.String()) reproduces every parsed
// plan exactly and every hand-built one up to that clamping; the empty
// plan prints as "".
func (p FaultPlan) String() string {
	var parts []string
	if p.Loss {
		parts = append(parts, "loss:p="+formatProb(p.LossP))
	}
	if p.Crash {
		parts = append(parts, fmt.Sprintf("crash:p=%s,restart=%d", formatProb(p.CrashP), p.RestartDelay()))
	}
	if p.EdgeDown {
		parts = append(parts, fmt.Sprintf("edgedown:p=%s,up=%d", formatProb(p.EdgeDownP), p.upRounds()))
	}
	return strings.Join(parts, "+")
}

func formatProb(p float64) string { return strconv.FormatFloat(p, 'g', -1, 64) }

// faultNames lists the valid clause names for error messages, sorted.
func faultNames() string {
	names := []string{"loss", "crash", "edgedown"}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// ParseFaults parses a fault-plan spec string. The grammar mirrors the
// topo-spec idiom: '+'-joined clauses of the form name:key=value,...
// with per-clause defaults (loss p=0.01; crash p=0.001, restart=5;
// edgedown p=0.005, up=3). The empty string parses to the empty plan.
func ParseFaults(spec string) (FaultPlan, error) {
	var p FaultPlan
	if spec == "" {
		return p, nil
	}
	for _, clause := range strings.Split(spec, "+") {
		name, rest, _ := strings.Cut(clause, ":")
		name = strings.TrimSpace(name)
		var err error
		switch name {
		case "loss":
			if p.Loss {
				return FaultPlan{}, fmt.Errorf("sim: faults: duplicate clause %q", name)
			}
			p.Loss, p.LossP = true, 0.01
			err = parseFaultArgs(name, rest, map[string]func(string) error{
				"p": func(v string) error { return parseProb(name, v, &p.LossP) },
			})
		case "crash":
			if p.Crash {
				return FaultPlan{}, fmt.Errorf("sim: faults: duplicate clause %q", name)
			}
			p.Crash, p.CrashP, p.Restart = true, 0.001, 5
			err = parseFaultArgs(name, rest, map[string]func(string) error{
				"p":       func(v string) error { return parseProb(name, v, &p.CrashP) },
				"restart": func(v string) error { return parsePosInt(name, "restart", v, &p.Restart) },
			})
		case "edgedown":
			if p.EdgeDown {
				return FaultPlan{}, fmt.Errorf("sim: faults: duplicate clause %q", name)
			}
			p.EdgeDown, p.EdgeDownP, p.Up = true, 0.005, 3
			err = parseFaultArgs(name, rest, map[string]func(string) error{
				"p":  func(v string) error { return parseProb(name, v, &p.EdgeDownP) },
				"up": func(v string) error { return parsePosInt(name, "up", v, &p.Up) },
			})
		default:
			return FaultPlan{}, fmt.Errorf("sim: faults: unknown fault %q (valid: %s)", name, faultNames())
		}
		if err != nil {
			return FaultPlan{}, err
		}
	}
	return p, nil
}

// MustParseFaults is ParseFaults that panics on error, for tests and
// compile-time-known specs.
func MustParseFaults(spec string) FaultPlan {
	p, err := ParseFaults(spec)
	if err != nil {
		panic(err)
	}
	return p
}

// parseFaultArgs applies the clause's key=value arguments through the
// per-parameter setters, enforcing the shared malformed/duplicate/
// unknown-parameter error shapes of the topo-spec idiom.
func parseFaultArgs(clause, rest string, params map[string]func(string) error) error {
	if rest == "" {
		return nil
	}
	seen := map[string]bool{}
	for _, kv := range strings.Split(rest, ",") {
		k, v, ok := strings.Cut(kv, "=")
		k, v = strings.TrimSpace(k), strings.TrimSpace(v)
		if !ok || k == "" || v == "" {
			return fmt.Errorf("sim: faults: %s: malformed argument %q (want key=value)", clause, kv)
		}
		set, known := params[k]
		if !known {
			names := make([]string, 0, len(params))
			for name := range params {
				names = append(names, name)
			}
			sort.Strings(names)
			return fmt.Errorf("sim: faults: %s has no parameter %q (valid: %s)", clause, k, strings.Join(names, ", "))
		}
		if seen[k] {
			return fmt.Errorf("sim: faults: %s: duplicate argument %q", clause, k)
		}
		seen[k] = true
		if err := set(v); err != nil {
			return err
		}
	}
	return nil
}

func parseProb(clause, v string, dst *float64) error {
	f, err := strconv.ParseFloat(v, 64)
	if err != nil || f < 0 || f > 1 || f != f {
		return fmt.Errorf("sim: faults: %s: parameter p=%q is not a probability in [0,1]", clause, v)
	}
	*dst = f
	return nil
}

func parsePosInt(clause, key, v string, dst *int) error {
	n, err := strconv.Atoi(v)
	if err != nil || n < 1 {
		return fmt.Errorf("sim: faults: %s: parameter %s=%q is not a positive integer", clause, key, v)
	}
	*dst = n
	return nil
}

// WithFaults applies a fault plan to the run. An empty plan is a no-op:
// the engine keeps its allocation-free fault-free hot path and consumes
// no fault streams, so results are identical to a run without the
// option (the golden digests pin this).
func WithFaults(p FaultPlan) Option {
	return func(e *Engine) {
		e.faults = p
		e.hasFaults = !p.Empty()
	}
}

// Fault stream kinds: the domain-separation tags FaultStreamSeed mixes
// in so the loss, crash and edge-churn processes draw from disjoint
// streams even at equal (seed, round, shard).
const (
	// FaultKindLoss keys the per-shard message-loss streams: shard s's
	// stream for round r is rand.NewSource(FaultStreamSeed(seed, r, s,
	// FaultKindLoss)), consumed once per message that survived the
	// finished/parked/edge-down drops, walking the shard's senders in
	// ascending id and each sender's messages in send order.
	FaultKindLoss uint32 = 1
	// FaultKindCrash keys the per-shard crash streams: consumed once
	// per crash-eligible node (live, not parked, not restarted this
	// round) in ascending id within the shard, at the serial fault
	// point before the round's route phase.
	FaultKindCrash uint32 = 2
	// FaultKindEdge keys the stateless edge-churn draws — see
	// FaultPlan.EdgeIsDown. The "shard" operand of the derivation is
	// repurposed as an edge-endpoint mix, not a shard index.
	FaultKindEdge uint32 = 3
)

// FaultStreamSeed derives the fault-stream seed for one (engine seed,
// round, shard, kind) cell. It is splitmix64-style like ShardStreamSeed
// but mixes a distinct constant tuple plus the kind tag, so fault
// streams never collide with the OrderRandom shard streams or with each
// other. Exported as part of the determinism contract: refsim and the
// production engine must derive every fault decision from this exact
// function so parity is checkable by construction.
func FaultStreamSeed(seed int64, round, shard int, kind uint32) int64 {
	x := uint64(seed)
	x ^= uint64(round)*0xA24BAED4963EE407 + uint64(shard)*0x9FB21C651E98DF25 + uint64(kind)*0xD6E8FEB86659FD93
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x)
}

// edgeFailsAt draws the stateless per-round edge-failure bit for the
// undirected edge {u, v} (u < v expected): a pure hash of (seed, round,
// edge) compared against p. No stream state is consumed, so engine and
// refsim evaluate it independently at any point with identical results.
//
//muvet:hotpath
func edgeFailsAt(seed int64, round, u, v int, p float64) bool {
	x := uint64(FaultStreamSeed(seed, round, u*0x1F123BB5+v, FaultKindEdge))
	// 53-bit mantissa → uniform in [0,1), the same construction
	// rand.Float64 uses.
	return float64(x>>11)/(1<<53) < p
}

// applyFaults is the engine's serial per-round fault point, run before
// the route phase — the one moment every node is quiescent between
// phases. It performs the restarts due this round, then draws crash
// decisions from per-shard streams keyed (seed, round, shard) in
// ascending shard and node order.
//
// On an aborted run it instead terminates every parked node — their
// programs are long unwound, so the engine publishes the done bit
// itself and the route phase harvests them like any other finished
// node, letting the run end.
func (e *Engine) applyFaults() {
	if e.aborted {
		for id, f := range e.state {
			if f&(stParked|stDone) == stParked {
				e.state[id] = f | stDone
				e.parkedN--
			}
		}
		return
	}
	fp := e.faults
	if !fp.Crash && e.parkedN == 0 {
		return // loss/churn-only plan with nothing parked: no per-node walk
	}
	round := e.round
	for s := 0; s < e.nshards; s++ {
		lo, hi := e.shardRange(s)
		st := e.shards[s]
		if fp.Crash {
			st.frng.Seed(FaultStreamSeed(e.seed, round, s, FaultKindCrash))
		}
		for id := lo; id < hi; id++ {
			f := e.state[id]
			if f&stParked != 0 {
				// A node restarted this round consumes no crash draw and
				// cannot crash again until the next fault point.
				if rt := &e.nodes[id]; rt.restartRound == round {
					e.restartNode(id, rt)
				}
				continue
			}
			if f != 0 || !fp.Crash {
				continue // done or finished
			}
			if st.frng.Float64() < fp.CrashP {
				e.crashNode(id, round)
			}
		}
	}
}

// crashNode parks one node: a stepped node's machine is discarded, a
// blocking node — sleeping in Idle or not — is unwound with its
// crashing flag set, so its Tick panics errCrash, the program's
// deferred code runs and its coroutine finishes. Sends the unwinding
// program makes are cut off the shard's send arena again, unpublished.
// The node's staged sends from the round boundary it already passed
// still route — fail-stop at the barrier, not retroactive — but from
// this round on it receives nothing and holds no memory.
func (e *Engine) crashNode(id, round int) {
	rt := &e.nodes[id]
	if rt.co != nil {
		sh := e.ctxs[id].sh
		staged := len(sh.send)
		rt.crashing = true
		rt.co.unwind()
		rt.crashing = false
		sh.send = sh.send[:staged]
	}
	rt.step = nil
	rt.co = nil
	rt.sleep = 0
	e.state[id] |= stParked
	rt.restartRound = round + e.faults.RestartDelay()
	rt.live = 0
	rt.inboxWords = 0
	e.crashes++
	e.parkedN++
}

// restartNode revives a parked node through the bound Program, exactly
// like run-start binding: the Ctx slot is rebuilt from scratch (a
// private RNG replaying its stream from the start, a
// reset bandwidth meter, Round() back at 0 — only Restarts() tells a
// restarted execution from a fresh one), Node is re-invoked, and the
// node runs its first step inline. Emitted outputs, the peak-memory
// high-water mark and any recorded μ violation survive the crash.
func (e *Engine) restartNode(id int, rt *nodeRT) {
	e.state[id] &^= stParked
	rt.restartRound = 0
	rt.restarts++
	rt.ticks = 0
	e.restarts++
	e.parkedN--
	c := &e.ctxs[id]
	c.rng = nil
	clear(c.sent)
	c.sentRound = 0
	e.bindNode(id)
}

// EdgeIsDown reports whether the undirected edge {u, v} is down at
// round r: some round in the window [r-up+1, r] drew a failure. The
// check is a pure function of (seed, round, edge) — O(up) hash
// evaluations, no state — so routing workers evaluate it on the fly
// without any per-edge bookkeeping, in any order, on any engine.
//
//muvet:hotpath
func (p FaultPlan) EdgeIsDown(seed int64, round, u, v int) bool {
	if !p.EdgeDown {
		return false
	}
	if u > v {
		u, v = v, u
	}
	lo := round - p.upRounds() + 1
	if lo < 0 {
		lo = 0
	}
	for r := lo; r <= round; r++ {
		if edgeFailsAt(seed, r, u, v, p.EdgeDownP) {
			return true
		}
	}
	return false
}
