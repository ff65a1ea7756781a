package sim_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"mucongest/internal/graph"
	"mucongest/internal/sim"
	"mucongest/internal/sim/refsim"
)

// groupDet is the determinism suite's mixed workload (random sends,
// order-sensitive inbox folds, early termination, memory traffic) as a
// step machine over the node contract both engines share. Its coins
// hash (node, round, port) instead of drawing from the private RNG,
// whose seeding would dominate the test's time at this n.
type groupDet struct{ r int }

func (s *groupDet) Step(c refsim.NodeCtx, in []sim.Incoming) bool {
	if s.r == 0 {
		c.Charge(int64(c.ID()%3 + 1))
	} else {
		var h int64
		for i, m := range in {
			h = h*1_000_003 + int64(m.From+1)*31 + m.Msg.C + int64(i+1)
		}
		c.Emit(h)
		if s.r == 8 || c.ID()%5 == 2 && s.r == 4 {
			return false
		}
	}
	for p := 0; p < c.Degree(); p++ {
		if x := mix(uint64(c.ID())<<32 | uint64(s.r)<<24 | uint64(p)); x&1 == 0 {
			c.Send(p, sim.Msg{Kind: 1, A: int64(c.ID()), B: int64(s.r), C: int64(x >> 44)})
		}
	}
	s.r++
	return true
}

// engineStep runs a groupDet machine on the production engine.
type engineStep struct{ m *groupDet }

func (a engineStep) Step(c *sim.Ctx, in []sim.Incoming) bool { return a.m.Step(c, in) }

// mix is the splitmix64 finalizer.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	return x ^ x>>31
}

// TestRouteGroupsInvisible pins that the route phase's shard groups —
// whose size follows the worker count — never show in a result. On 16
// shards, workers 1, 2 and 4 walk groups of 4, 2 and 1 shards, so every
// inbox is concatenated from buckets cut three different ways; each run
// must equal the reference engine's, which has no shards at all, for
// every inbox order, with and without the fault plan, strict or not.
func TestRouteGroupsInvisible(t *testing.T) {
	const n = 16 * sim.ShardSpan
	for w, want := range map[int]int{1: 4, 2: 2, 4: 1} {
		if got := sim.RouteGroupSize(n/sim.ShardSpan, w); got != want {
			t.Fatalf("workers %d: route groups of %d shards, want %d; the coverage claim above needs updating", w, got, want)
		}
	}
	topos := []struct {
		name string
		topo sim.Topology
	}{
		{"cycle", graph.Cycle(n)},
		{"powerlaw", graph.BarabasiAlbert(n, 3, rand.New(rand.NewSource(13)))},
	}
	workers := []int{1, 2, 4}
	if p := runtime.GOMAXPROCS(0); !slices.Contains(workers, p) {
		workers = append(workers, p)
	}
	engineProg := sim.Steps(func(*sim.Ctx) sim.StepProgram { return engineStep{new(groupDet)} })
	refProg := refsim.DriveSteps(func(refsim.NodeCtx) refsim.StepNode { return new(groupDet) })
	for _, tp := range topos {
		for _, order := range []sim.InboxOrder{sim.OrderBySender, sim.OrderRandom, sim.OrderReversed} {
			for _, faults := range []string{"", sim.FaultDetSpec} {
				for _, strict := range []bool{false, true} {
					cfg := refsim.Config{Seed: 7, Order: order, Faults: sim.MustParseFaults(faults)}
					if strict {
						cfg.Mu, cfg.Strict = 1<<40, true
					}
					name := fmt.Sprintf("%s order=%v faults=%q strict=%v", tp.name, order, faults, strict)
					ref, err := refsim.New(tp.topo, cfg).Run(refProg)
					if err != nil {
						t.Fatalf("%s: refsim: %v", name, err)
					}
					for _, w := range workers {
						opts := []sim.Option{sim.WithSeed(cfg.Seed), sim.WithInboxOrder(order),
							sim.WithSimWorkers(w), sim.WithFaults(cfg.Faults)}
						if strict {
							opts = append(opts, sim.WithMu(cfg.Mu), sim.WithStrictMemory())
						}
						got, err := sim.New(tp.topo, opts...).RunProgram(engineProg)
						if err != nil {
							t.Fatalf("%s workers %d: %v", name, w, err)
						}
						if !reflect.DeepEqual(got, ref) {
							t.Errorf("%s workers %d: result differs (messages %d/%d, dropped %d/%d, fault drops %d/%d, crashes %d/%d)",
								name, w, got.Messages, ref.Messages, got.Dropped, ref.Dropped,
								got.FaultDrops, ref.FaultDrops, got.Crashes, ref.Crashes)
						}
					}
					if faults != "" && (ref.Crashes == 0 || ref.Restarts == 0 || ref.FaultDrops == 0) {
						t.Fatalf("%s: the fault plan never fired: %+v", name, ref)
					}
				}
			}
		}
	}
}
