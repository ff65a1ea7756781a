package harness

import (
	"fmt"
	"math/rand"
	"slices"

	"mucongest/internal/graph"
	"mucongest/internal/sim"
	"mucongest/internal/sim/refsim"
	"mucongest/internal/topo"
)

// BuildTopology materializes the scenario's communication graph through
// the topo registry: the flat *graph.Graph of Spec.Build by default,
// or — for compact scenarios — the registry's compact representation
// (topo.Spec.BuildTopology: the same graph, or engine-native implicit
// arithmetic for grid/torus/hypercube/complete). Both satisfy the same
// sim.Topology contract.
func BuildTopology(sc Scenario) (sim.Topology, error) {
	spec, err := topo.Parse(sc.TopoSpec)
	if err != nil {
		return nil, err
	}
	var t sim.Topology
	if sc.Compact {
		t, err = spec.BuildTopology(rand.New(rand.NewSource(sc.TopoSeed)))
	} else {
		t, err = buildGraph(spec, sc.TopoSeed)
	}
	if err != nil {
		return nil, err
	}
	if t.N() != sc.N {
		return nil, fmt.Errorf("harness: %q built %d nodes, scenario recorded %d", sc.TopoSpec, t.N(), sc.N)
	}
	return t, nil
}

func buildGraph(spec topo.Spec, seed int64) (*graph.Graph, error) {
	return spec.Build(rand.New(rand.NewSource(seed)))
}

// repr names the representation class of a built topology.
func repr(t sim.Topology) string {
	if _, ok := t.(*graph.Graph); ok {
		return "csr"
	}
	return "implicit"
}

// Outcome summarizes what a checked scenario's (agreed-upon) execution
// did, for corpus coverage accounting.
type Outcome struct {
	Aborted    bool
	Violations int
	// Stepped reports that the scenario's behavior has a step-form twin
	// and the cross-check also ran it: natively stepped on the
	// production engine at every worker count, and through
	// refsim.DriveSteps on the reference engine.
	Stepped bool
	// Faulty reports a non-empty fault plan; the counters echo the
	// agreed-upon fault ledger so the corpus test can assert the plans
	// actually bit (real crashes, real restarts, real fault drops) and
	// not just parsed.
	Faulty     bool
	Crashes    int64
	Restarts   int64
	FaultDrops int64
	// Repr is the representation class the scenario actually ran on
	// ("csr" or "implicit"), for corpus coverage accounting.
	Repr string
}

// simStep adapts an engine-agnostic refsim.StepNode machine to the
// production engine's concrete StepProgram contract.
type simStep struct{ m refsim.StepNode }

func (s simStep) Step(c *sim.Ctx, in []sim.Incoming) bool { return s.m.Step(c, in) }

// CheckScenario runs sc on the reference engine and on the production
// engine — in both execution modes — at every given worker count, and
// returns a descriptive error on the first divergence: run error
// identity (down to the string), round/message/drop totals, per-node
// outputs (the behaviors emit one order-sensitive inbox fold per round,
// so this is a round-by-round digest), per-node PeakWords, and the full
// violation list. The step-form twin of the behavior is checked two
// ways against the blocking reference run: through refsim.DriveSteps on
// the reference engine (certifying the hand-written machine itself) and
// natively stepped on the production engine (certifying the engine's
// step dispatch). It then checks the metamorphic
// invariants the reference run's ledger implies.
func CheckScenario(sc Scenario, workers ...int) (Outcome, error) {
	g, err := BuildTopology(sc)
	if err != nil {
		return Outcome{}, err
	}
	mk, ok := Behaviors[sc.Behavior]
	if !ok {
		return Outcome{}, fmt.Errorf("harness: unknown behavior %q", sc.Behavior)
	}
	program := mk(sc)
	plan, err := sim.ParseFaults(sc.Faults)
	if err != nil {
		return Outcome{}, fmt.Errorf("harness: fault spec %q: %w", sc.Faults, err)
	}
	cfg := refsim.Config{
		Mu:      sc.Mu,
		Seed:    sc.Seed,
		EdgeCap: sc.EdgeCap,
		Order:   sc.Order,
		Strict:  sc.Strict,
		Faults:  plan,
	}

	ref := refsim.New(g, cfg)
	refRes, refErr := ref.Run(program)
	out := Outcome{
		Aborted:    refErr != nil,
		Violations: len(refRes.Violations),
		Faulty:     !plan.Empty(),
		Crashes:    refRes.Crashes,
		Restarts:   refRes.Restarts,
		FaultDrops: refRes.FaultDrops,
		Repr:       repr(g),
	}

	// A scenario on an implicit topology additionally certifies the
	// representation itself: the reference engine rerun on the flat
	// graph of Spec.Build (same spec, same topology seed) must agree
	// byte-for-byte with the run on the implicit topology — any
	// adjacency, ordering or port skew between the two diverges here
	// before it can masquerade as an engine bug. Every other family's
	// compact topology is that graph already.
	if out.Repr == "implicit" {
		spec, err := topo.Parse(sc.TopoSpec)
		if err != nil {
			return out, err
		}
		eg, err := buildGraph(spec, sc.TopoSeed)
		if err != nil {
			return out, fmt.Errorf("harness: flat-graph twin of %q: %w", sc.TopoSpec, err)
		}
		twinRes, twinErr := refsim.New(eg, cfg).Run(program)
		if err := compareErrors(refErr, twinErr); err != nil {
			return out, fmt.Errorf("flat-graph twin: %w", err)
		}
		if err := compareResults(refRes, twinRes); err != nil {
			return out, fmt.Errorf("flat-graph twin: %w", err)
		}
	}

	blocking := func(e *sim.Engine) (*sim.Result, error) {
		return e.Run(func(c *sim.Ctx) { program(c) })
	}
	if err := matchEngine(g, cfg, refRes, refErr, blocking, workers, ""); err != nil {
		return out, err
	}

	if stepMk, ok := StepBehaviors[sc.Behavior]; ok {
		mkNode := stepMk(sc)
		stepWant := withoutDeferred(refRes)
		// The step machine driven as a blocking program on the reference
		// engine must match the blocking original: this isolates bugs in
		// the hand-written step form from bugs in the step runtime.
		stepRefRes, stepRefErr := refsim.New(g, cfg).Run(refsim.DriveSteps(mkNode))
		if err := compareErrors(refErr, stepRefErr); err != nil {
			return out, fmt.Errorf("reference-driven step form: %w", err)
		}
		if err := compareResults(stepWant, stepRefRes); err != nil {
			return out, fmt.Errorf("reference-driven step form: %w", err)
		}
		// Natively stepped on the production engine.
		prog := sim.Steps(func(c *sim.Ctx) sim.StepProgram { return simStep{mkNode(c)} })
		stepped := func(e *sim.Engine) (*sim.Result, error) { return e.RunProgram(prog) }
		if err := matchEngine(g, cfg, stepWant, refErr, stepped, workers, " step mode"); err != nil {
			return out, err
		}
		out.Stepped = true
	}
	return out, checkInvariants(sc, plan, refRes, refErr, ref.Stats())
}

// matchEngine runs a program on the production engine, configured like
// the reference run cfg describes, at every worker count, and compares
// each run field by field with the reference result. run starts the
// program on a fresh engine; label tags the divergence message.
func matchEngine(g sim.Topology, cfg refsim.Config, refRes *sim.Result, refErr error,
	run func(*sim.Engine) (*sim.Result, error), workers []int, label string) error {
	for _, w := range workers {
		opts := []sim.Option{
			sim.WithMu(cfg.Mu), sim.WithSeed(cfg.Seed), sim.WithEdgeCap(cfg.EdgeCap),
			sim.WithInboxOrder(cfg.Order), sim.WithSimWorkers(w), sim.WithFaults(cfg.Faults),
		}
		if cfg.Strict {
			opts = append(opts, sim.WithStrictMemory())
		}
		res, runErr := run(sim.New(g, opts...))
		if err := compareErrors(refErr, runErr); err != nil {
			return fmt.Errorf("workers=%d%s: %w", w, label, err)
		}
		if err := compareResults(refRes, res); err != nil {
			return fmt.Errorf("workers=%d%s: %w", w, label, err)
		}
	}
	return nil
}

// withoutDeferred returns a copy of res with the deferred values dropped
// from its outputs: the result the blocking program's step twin must
// reproduce.
func withoutDeferred(res *sim.Result) *sim.Result {
	cp := *res
	cp.Outputs = make([][]any, len(res.Outputs))
	for v, vals := range res.Outputs {
		cp.Outputs[v] = slices.DeleteFunc(slices.Clone(vals), isDeferred)
	}
	return &cp
}

func isDeferred(v any) bool {
	_, ok := v.(deferred)
	return ok
}

func compareErrors(ref, got error) error {
	switch {
	case ref == nil && got == nil:
		return nil
	case ref == nil:
		return fmt.Errorf("engine aborted (%v) but reference completed", got)
	case got == nil:
		return fmt.Errorf("reference aborted (%v) but engine completed", ref)
	case ref.Error() != got.Error():
		return fmt.Errorf("abort identity differs:\n  reference: %v\n  engine:    %v", ref, got)
	}
	return nil
}

func compareResults(ref, got *sim.Result) error {
	if ref.Rounds != got.Rounds {
		return fmt.Errorf("rounds: reference %d, engine %d", ref.Rounds, got.Rounds)
	}
	if ref.Messages != got.Messages {
		return fmt.Errorf("messages: reference %d, engine %d", ref.Messages, got.Messages)
	}
	if ref.Dropped != got.Dropped {
		return fmt.Errorf("dropped: reference %d, engine %d", ref.Dropped, got.Dropped)
	}
	if ref.FaultDrops != got.FaultDrops {
		return fmt.Errorf("fault drops: reference %d, engine %d", ref.FaultDrops, got.FaultDrops)
	}
	if ref.Crashes != got.Crashes {
		return fmt.Errorf("crashes: reference %d, engine %d", ref.Crashes, got.Crashes)
	}
	if ref.Restarts != got.Restarts {
		return fmt.Errorf("restarts: reference %d, engine %d", ref.Restarts, got.Restarts)
	}
	if len(ref.Outputs) != len(got.Outputs) {
		return fmt.Errorf("node count: reference %d, engine %d", len(ref.Outputs), len(got.Outputs))
	}
	for v := range ref.Outputs {
		if a, b := fmt.Sprint(ref.Outputs[v]), fmt.Sprint(got.Outputs[v]); a != b {
			return fmt.Errorf("node %d outputs (round-by-round digests):\n  reference: %s\n  engine:    %s", v, a, b)
		}
		if ref.PeakWords[v] != got.PeakWords[v] {
			return fmt.Errorf("node %d peak words: reference %d, engine %d", v, ref.PeakWords[v], got.PeakWords[v])
		}
	}
	if len(ref.Violations) != len(got.Violations) {
		return fmt.Errorf("violation count: reference %d (%v), engine %d (%v)",
			len(ref.Violations), ref.Violations, len(got.Violations), got.Violations)
	}
	for i := range ref.Violations {
		if ref.Violations[i] != got.Violations[i] {
			return fmt.Errorf("violation %d: reference %+v, engine %+v", i, ref.Violations[i], got.Violations[i])
		}
	}
	return nil
}

// checkInvariants verifies the metamorphic properties the reference
// run's ledger implies — true for any correct engine regardless of the
// scenario drawn.
func checkInvariants(sc Scenario, plan sim.FaultPlan, res *sim.Result, runErr error, st *refsim.Stats) error {
	var delivered, dropped, faultDropped int64
	for r, rs := range st.PerRound {
		if rs.Sent != rs.Delivered+rs.Dropped {
			return fmt.Errorf("round %d conservation: sent %d != delivered %d + dropped %d",
				r, rs.Sent, rs.Delivered, rs.Dropped)
		}
		// Fault drops are a subset of the conserved drop ledger, never a
		// separate pool: a fault-dropped message was still sent and still
		// counts against Dropped.
		if rs.DroppedFault < 0 || rs.DroppedFault > rs.Dropped {
			return fmt.Errorf("round %d: fault drops %d outside total drops %d", r, rs.DroppedFault, rs.Dropped)
		}
		delivered += rs.Delivered
		dropped += rs.Dropped
		faultDropped += rs.DroppedFault
	}
	if delivered != res.Messages || dropped != res.Dropped {
		return fmt.Errorf("ledger totals (%d delivered, %d dropped) != result (%d, %d)",
			delivered, dropped, res.Messages, res.Dropped)
	}
	if faultDropped != res.FaultDrops {
		return fmt.Errorf("per-round fault drops sum to %d, result records %d", faultDropped, res.FaultDrops)
	}
	if plan.Empty() && (res.FaultDrops != 0 || res.Crashes != 0 || res.Restarts != 0) {
		return fmt.Errorf("fault-free run has non-zero fault ledger: drops=%d crashes=%d restarts=%d",
			res.FaultDrops, res.Crashes, res.Restarts)
	}
	if !plan.Crash && (res.Crashes != 0 || res.Restarts != 0) {
		return fmt.Errorf("plan without crashes recorded crashes=%d restarts=%d", res.Crashes, res.Restarts)
	}
	if !plan.Loss && !plan.EdgeDown && !plan.Crash && res.FaultDrops != 0 {
		return fmt.Errorf("plan drops nothing but FaultDrops=%d", res.FaultDrops)
	}
	if res.Restarts > res.Crashes {
		return fmt.Errorf("more restarts (%d) than crashes (%d)", res.Restarts, res.Crashes)
	}
	// A completed run has no parked nodes left: every crash was restarted
	// and the node finished. Only an abort may strand crashed-not-yet-
	// restarted nodes.
	if runErr == nil && res.Restarts != res.Crashes {
		return fmt.Errorf("completed run stranded %d crashed nodes (crashes=%d restarts=%d)",
			res.Crashes-res.Restarts, res.Crashes, res.Restarts)
	}
	for v, w := range st.MaxInboxWords {
		if res.PeakWords[v] < w {
			return fmt.Errorf("node %d: peak %d below largest delivered inbox %d words", v, res.PeakWords[v], w)
		}
	}
	if sc.Mu <= 0 && len(res.Violations) != 0 {
		return fmt.Errorf("unbounded run recorded violations: %v", res.Violations)
	}
	for _, vio := range res.Violations {
		if vio.Words <= sc.Mu {
			return fmt.Errorf("violation %+v does not exceed μ=%d", vio, sc.Mu)
		}
		if res.PeakWords[vio.Node] < vio.Words {
			return fmt.Errorf("violation %+v exceeds node peak %d", vio, res.PeakWords[vio.Node])
		}
		// Bound by the wall-round ledger, not res.Rounds: Rounds is the
		// max per-node tick count, and a crash/restart cycle resets a
		// node's ticks, so a faulty run's violations can legitimately be
		// stamped past it.
		wall := len(st.PerRound)
		if wall < res.Rounds {
			wall = res.Rounds
		}
		if vio.OverRounds < 1 || vio.Round < 0 || vio.Round >= wall+1 {
			return fmt.Errorf("violation %+v out of range (rounds=%d, wall=%d)", vio, res.Rounds, wall)
		}
	}
	return nil
}
