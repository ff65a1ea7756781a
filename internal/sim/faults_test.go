package sim

import (
	"fmt"
	"strings"
	"testing"

	"mucongest/internal/graph"
)

// TestFaultPlanParse pins the spec grammar: per-clause defaults, the
// canonical String rendering, the exact error shapes of the topo-spec
// idiom, and the Parse∘String round trip for every valid case.
func TestFaultPlanParse(t *testing.T) {
	valid := []struct {
		spec      string
		want      FaultPlan
		canonical string
	}{
		{"", FaultPlan{}, ""},
		{"loss", FaultPlan{Loss: true, LossP: 0.01}, "loss:p=0.01"},
		{"loss:p=0.25", FaultPlan{Loss: true, LossP: 0.25}, "loss:p=0.25"},
		{"crash", FaultPlan{Crash: true, CrashP: 0.001, Restart: 5}, "crash:p=0.001,restart=5"},
		{"crash:restart=2", FaultPlan{Crash: true, CrashP: 0.001, Restart: 2}, "crash:p=0.001,restart=2"},
		{"crash:p=0.30,restart=1", FaultPlan{Crash: true, CrashP: 0.3, Restart: 1}, "crash:p=0.3,restart=1"},
		{"edgedown", FaultPlan{EdgeDown: true, EdgeDownP: 0.005, Up: 3}, "edgedown:p=0.005,up=3"},
		{"edgedown:up=1,p=0.5", FaultPlan{EdgeDown: true, EdgeDownP: 0.5, Up: 1}, "edgedown:p=0.5,up=1"},
		{
			"edgedown:p=0.005,up=3+loss:p=0.1+crash:p=0.05,restart=2",
			FaultPlan{Loss: true, LossP: 0.1, Crash: true, CrashP: 0.05, Restart: 2, EdgeDown: true, EdgeDownP: 0.005, Up: 3},
			"loss:p=0.1+crash:p=0.05,restart=2+edgedown:p=0.005,up=3",
		},
		{" loss : p = 0.1 ", FaultPlan{Loss: true, LossP: 0.1}, "loss:p=0.1"},
	}
	for _, tc := range valid {
		p, err := ParseFaults(tc.spec)
		if err != nil {
			t.Errorf("ParseFaults(%q): unexpected error: %v", tc.spec, err)
			continue
		}
		if p != tc.want {
			t.Errorf("ParseFaults(%q) = %+v, want %+v", tc.spec, p, tc.want)
		}
		if got := p.String(); got != tc.canonical {
			t.Errorf("ParseFaults(%q).String() = %q, want %q", tc.spec, got, tc.canonical)
		}
		rt, err := ParseFaults(p.String())
		if err != nil || rt != p {
			t.Errorf("round trip of %q: ParseFaults(%q) = %+v, %v; want %+v", tc.spec, p.String(), rt, err, p)
		}
	}

	// Hand-built plans with a zero Restart or Up render the effective
	// one-round length the engine clamps them to, so String stays a spec
	// ParseFaults accepts, and reparses to the clamped plan.
	handBuilt := []struct {
		plan      FaultPlan
		canonical string
		reparsed  FaultPlan
	}{
		{FaultPlan{Crash: true, CrashP: 0.1}, "crash:p=0.1,restart=1", FaultPlan{Crash: true, CrashP: 0.1, Restart: 1}},
		{FaultPlan{EdgeDown: true, EdgeDownP: 0.2}, "edgedown:p=0.2,up=1", FaultPlan{EdgeDown: true, EdgeDownP: 0.2, Up: 1}},
		{
			FaultPlan{Loss: true, LossP: 0.5, Crash: true, CrashP: 0.1, Restart: -3, EdgeDown: true, EdgeDownP: 0.2},
			"loss:p=0.5+crash:p=0.1,restart=1+edgedown:p=0.2,up=1",
			FaultPlan{Loss: true, LossP: 0.5, Crash: true, CrashP: 0.1, Restart: 1, EdgeDown: true, EdgeDownP: 0.2, Up: 1},
		},
	}
	for _, tc := range handBuilt {
		s := tc.plan.String()
		if s != tc.canonical {
			t.Errorf("%+v.String() = %q, want %q", tc.plan, s, tc.canonical)
		}
		rt, err := ParseFaults(s)
		if err != nil || rt != tc.reparsed {
			t.Errorf("ParseFaults(%q) = %+v, %v; want %+v", s, rt, err, tc.reparsed)
		}
	}

	invalid := []struct {
		spec    string
		errFrag string
	}{
		{"flood", `unknown fault "flood" (valid: crash, edgedown, loss)`},
		{"loss:q=0.1", `loss has no parameter "q" (valid: p)`},
		{"crash:p=0.1,up=2", `crash has no parameter "up" (valid: p, restart)`},
		{"loss:p=2", `parameter p="2" is not a probability in [0,1]`},
		{"loss:p=-0.1", `is not a probability in [0,1]`},
		{"loss:p=nope", `is not a probability in [0,1]`},
		{"loss:p=NaN", `is not a probability in [0,1]`},
		{"crash:restart=0", `parameter restart="0" is not a positive integer`},
		{"edgedown:up=-3", `parameter up="-3" is not a positive integer`},
		{"crash:restart=2,restart=3", `duplicate argument "restart"`},
		{"loss+loss", `duplicate clause "loss"`},
		{"loss:p", `malformed argument "p" (want key=value)`},
		{"loss:p=", `malformed argument`},
		{"loss:=0.1", `malformed argument`},
	}
	for _, tc := range invalid {
		p, err := ParseFaults(tc.spec)
		if err == nil {
			t.Errorf("ParseFaults(%q) = %+v, want error containing %q", tc.spec, p, tc.errFrag)
			continue
		}
		if !strings.Contains(err.Error(), tc.errFrag) {
			t.Errorf("ParseFaults(%q) error = %q, want it to contain %q", tc.spec, err, tc.errFrag)
		}
		if p != (FaultPlan{}) {
			t.Errorf("ParseFaults(%q) returned non-zero plan %+v alongside error", tc.spec, p)
		}
	}
}

// FuzzFaultPlanParse is the fault-spec twin of FuzzTopoParse: ParseFaults
// must never panic, and any spec it accepts must reach a canonical fixed
// point — String renders a spec that reparses to the identical plan and
// re-renders byte for byte.
func FuzzFaultPlanParse(f *testing.F) {
	for _, seed := range []string{
		"", "loss", "loss:p=0.01", "crash:p=0.001,restart=5", "edgedown:p=0.005,up=3",
		"loss:p=0.1+crash:p=0.05,restart=2+edgedown:p=0.5,up=1",
		"flood", "loss:q=1", "loss:p=2", "crash:restart=0", "loss+loss", "loss:p", "+", "a:b=c,,",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParseFaults(spec)
		if err != nil {
			return
		}
		s := p.String()
		p2, err := ParseFaults(s)
		if err != nil {
			t.Fatalf("ParseFaults(%q) ok but canonical form %q rejected: %v", spec, s, err)
		}
		if p2 != p {
			t.Fatalf("round trip of %q changed plan: %+v -> %+v", spec, p, p2)
		}
		if s2 := p2.String(); s2 != s {
			t.Fatalf("String not a fixed point for %q: %q -> %q", spec, s, s2)
		}
	})
}

// faultDetPlan exercises all three fault processes at once with rates
// high enough that every counter is non-zero on the corpus below.
const faultDetSpec = "loss:p=0.05+crash:p=0.02,restart=2+edgedown:p=0.05,up=2"

// FaultDetSpec and RouteGroupSize export a test fixture and an
// internal to the package's external tests.
const FaultDetSpec = faultDetSpec

var RouteGroupSize = routeGroupSize

// TestFaultDrawDeterminismAcrossWorkersAndModes pins the tentpole
// invariant of the fault layer: with all three fault processes active on
// a multi-shard topology, the full execution record — including the
// fault ledger — is bit-for-bit identical across worker counts {1,2,4,
// max} and across the goroutine, step and mixed execution modes, because
// every fault decision is drawn from a stream keyed only by
// (seed, round, shard, kind).
func TestFaultDrawDeterminismAcrossWorkersAndModes(t *testing.T) {
	topo := graph.Cycle(1536) // 3 shards
	plan := MustParseFaults(faultDetSpec)
	modes := []struct {
		name string
		prog Program
	}{
		{"goroutine", Func(detProgram)},
		{"step", detSteps},
		{"mixed", mixedDet{}},
	}
	var ref *Result
	var refDigest uint64
	for _, mode := range modes {
		for _, w := range []int{1, 2, 4, 0} {
			e := New(topo, WithSeed(7), WithSimWorkers(w), WithFaults(plan))
			res, err := e.RunProgram(mode.prog)
			if err != nil {
				t.Fatalf("mode=%s workers=%d: %v", mode.name, w, err)
			}
			if ref == nil {
				ref, refDigest = res, digestResult(res)
				// The plan must actually bite, or the parity claim is vacuous.
				if res.Crashes == 0 || res.Restarts == 0 || res.FaultDrops == 0 {
					t.Fatalf("fault plan %q never fired: %+v", faultDetSpec, res)
				}
				continue
			}
			if got := digestResult(res); got != refDigest {
				t.Errorf("mode=%s workers=%d: digest = %#x, want %#x", mode.name, w, got, refDigest)
			}
			if res.FaultDrops != ref.FaultDrops || res.Crashes != ref.Crashes || res.Restarts != ref.Restarts {
				t.Errorf("mode=%s workers=%d: fault ledger (drops=%d crashes=%d restarts=%d) differs from reference (drops=%d crashes=%d restarts=%d)",
					mode.name, w, res.FaultDrops, res.Crashes, res.Restarts, ref.FaultDrops, ref.Crashes, ref.Restarts)
			}
		}
	}
}

// TestFaultFreeRunsUnchanged pins that the fault layer is invisible when
// unused: an explicit empty plan reproduces every historical golden
// digest (WithFaults(FaultPlan{}) is byte-identical to no option at
// all), a faulty run visibly diverges from the goldens, and the fault
// ledger of a fault-free run is all zeros.
func TestFaultFreeRunsUnchanged(t *testing.T) {
	for order, want := range goldenComplete12 {
		res := runDet(t, order, 42, WithFaults(FaultPlan{}))
		if got := digestResult(res); got != want {
			t.Errorf("order %v: empty-plan digest = %#x, want golden %#x", order, got, want)
		}
		if res.FaultDrops != 0 || res.Crashes != 0 || res.Restarts != 0 {
			t.Errorf("order %v: fault-free run has non-zero fault ledger: %+v", order, res)
		}
	}
	// Sanity: a biting plan must not silently reproduce the golden.
	res := runDet(t, OrderBySender, 42, WithFaults(MustParseFaults("loss:p=0.3")))
	if digestResult(res) == goldenComplete12[OrderBySender] {
		t.Error("loss plan reproduced the fault-free golden digest; faults are not being applied")
	}
	if res.FaultDrops == 0 {
		t.Error("loss:p=0.3 on a complete graph dropped nothing")
	}
}

// restartCounter emits its Restarts() count at the start of every
// execution, then runs a fixed broadcast workload. Crash/restart
// semantics fall out of the output record: node i's outputs must be
// exactly 0,1,...,k_i (one execution per restart, state reset each
// time, prior outputs surviving the crash).
func restartCounter(c *Ctx) {
	c.Emit(int64(c.Restarts()))
	for r := 0; r < 6; r++ {
		c.Broadcast(Msg{Kind: 1, A: int64(c.ID()), B: int64(r)})
		c.Tick()
	}
}

// restartCounterStep is restartCounter's step-form twin.
type restartCounterStep struct {
	r       int
	emitted bool
}

func (s *restartCounterStep) Step(c *Ctx, in []Incoming) bool {
	if !s.emitted {
		c.Emit(int64(c.Restarts()))
		s.emitted = true
	}
	if s.r >= 6 {
		return false
	}
	c.Broadcast(Msg{Kind: 1, A: int64(c.ID()), B: int64(s.r)})
	s.r++
	return true
}

// TestCrashRestartSemantics certifies fail-stop crash semantics through
// the output record, in both execution modes: every execution of a node
// emits its current Restarts() value first, so each node's outputs must
// read 0,1,...,k_i; the k_i must sum to Result.Restarts; and — because a
// parked node blocks run completion until it restarts and finishes —
// every crash is eventually restarted, so Restarts == Crashes.
func TestCrashRestartSemantics(t *testing.T) {
	plan := MustParseFaults("crash:p=0.05,restart=2")
	modes := []struct {
		name string
		prog Program
	}{
		{"goroutine", Func(restartCounter)},
		{"step", Steps(func(c *Ctx) StepProgram { return new(restartCounterStep) })},
	}
	var ref *Result
	for _, mode := range modes {
		res, err := New(graph.Cycle(64), WithSeed(3), WithFaults(plan)).RunProgram(mode.prog)
		if err != nil {
			t.Fatalf("mode=%s: %v", mode.name, err)
		}
		if res.Crashes == 0 {
			t.Fatalf("mode=%s: plan never crashed a node; raise p or change the seed", mode.name)
		}
		if res.Restarts != res.Crashes {
			t.Errorf("mode=%s: Restarts=%d != Crashes=%d (every parked node must restart before the run can end)",
				mode.name, res.Restarts, res.Crashes)
		}
		var totalRestarts int64
		for id, outs := range res.Outputs {
			for j, v := range outs {
				if got, ok := v.(int64); !ok || got != int64(j) {
					t.Fatalf("mode=%s: node %d output %d = %v, want %d (execution-start emits must read 0,1,2,...)",
						mode.name, id, j, v, j)
				}
			}
			totalRestarts += int64(len(outs) - 1)
		}
		if totalRestarts != res.Restarts {
			t.Errorf("mode=%s: per-node restart sum %d != Result.Restarts %d", mode.name, totalRestarts, res.Restarts)
		}
		if ref == nil {
			ref = res
		} else if digestResult(res) != digestResult(ref) ||
			res.Crashes != ref.Crashes || res.Restarts != ref.Restarts {
			t.Errorf("mode=%s: crash/restart record diverges from goroutine mode", mode.name)
		}
	}
}

// TestEdgeIsDownWindow pins the churn outage semantics: an edge is down
// at round r under up=k exactly when some round in [r-k+1, r] drew a
// failure — i.e. EdgeIsDown with up=3 equals the OR of the up=1 check
// over the three-round window, including the clamp at round 0.
func TestEdgeIsDownWindow(t *testing.T) {
	const seed = 99
	up3 := FaultPlan{EdgeDown: true, EdgeDownP: 0.2, Up: 3}
	up1 := FaultPlan{EdgeDown: true, EdgeDownP: 0.2, Up: 1}
	var downs int
	for u := 0; u < 8; u++ {
		for v := u + 1; v < 8; v++ {
			for r := 0; r < 24; r++ {
				want := false
				for w := r - 2; w <= r; w++ {
					if w >= 0 && up1.EdgeIsDown(seed, w, u, v) {
						want = true
					}
				}
				if got := up3.EdgeIsDown(seed, r, u, v); got != want {
					t.Fatalf("EdgeIsDown(seed=%d, r=%d, {%d,%d}) = %v, want OR over [%d,%d] = %v",
						seed, r, u, v, got, r-2, r, want)
				}
				// Orientation must not matter for an undirected edge.
				if up3.EdgeIsDown(seed, r, v, u) != up3.EdgeIsDown(seed, r, u, v) {
					t.Fatalf("EdgeIsDown not symmetric for edge {%d,%d} at round %d", u, v, r)
				}
				if up3.EdgeIsDown(seed, r, u, v) {
					downs++
				}
			}
		}
	}
	if downs == 0 {
		t.Fatal("p=0.2, up=3 never downed an edge over 28 edges × 24 rounds; the draw is broken")
	}
	if !(FaultPlan{}).EdgeIsDown(seed, 5, 1, 2) == false {
		t.Fatal("plan without EdgeDown reported a down edge")
	}
}

// TestFaultStreamSeedDomainSeparation spot-checks that the three fault
// kinds and the OrderRandom shard streams are pairwise distinct at equal
// (seed, round, shard): a collision would silently correlate supposedly
// independent processes.
func TestFaultStreamSeedDomainSeparation(t *testing.T) {
	seen := map[int64]string{}
	for round := 0; round < 8; round++ {
		for shard := 0; shard < 4; shard++ {
			for _, kind := range []uint32{FaultKindLoss, FaultKindCrash, FaultKindEdge} {
				s := FaultStreamSeed(42, round, shard, kind)
				key := fmt.Sprintf("r=%d s=%d k=%d", round, shard, kind)
				if prev, ok := seen[s]; ok {
					t.Fatalf("FaultStreamSeed collision: %s and %s both map to %#x", prev, key, uint64(s))
				}
				seen[s] = key
			}
			if s := ShardStreamSeed(42, shard); seen[s] != "" {
				t.Fatalf("FaultStreamSeed collides with ShardStreamSeed at r=%d s=%d", round, shard)
			}
		}
	}
}

// MustParseFaults is ParseFaults that panics on error, for the specs
// tests spell out. Being in an internal test file, it is also
// sim.MustParseFaults to the package's external tests.
func MustParseFaults(spec string) FaultPlan {
	p, err := ParseFaults(spec)
	if err != nil {
		panic(err)
	}
	return p
}
