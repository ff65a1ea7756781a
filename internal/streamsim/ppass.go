package streamsim

import (
	"fmt"

	"mucongest/internal/congest"
	"mucongest/internal/graph"
	"mucongest/internal/sim"
)

// MaxDegreeNode returns the paper's simulator choice: the node with the
// largest degree (ties to the smallest id).
func MaxDegreeNode(g *graph.Graph) int {
	best, bestDeg := 0, -1
	for v := 0; v < g.N(); v++ {
		if d := g.Degree(v); d > bestDeg {
			best, bestDeg = v, d
		}
	}
	return best
}

// PPassProgram builds the single-node p-pass edge-streaming simulation.
// With cached=false it is the naive baseline: every pass re-collects all
// edges at the sink (Θ(collection)·p rounds, the Theorem 1.4 regime).
// With cached=true it is Theorem 1.3: the first pass caches edges at
// the sink's neighbors (≤ ⌈m/Δ⌉ ≤ n each, μ = M+n), and later passes
// replay from the caches in O(n) rounds each, for O(n·(Δ+p)) total.
//
// mkClient is invoked only at the sink; passes must equal the client's
// Passes(). labels may be nil. maxDepth bounds the sink's eccentricity.
func PPassProgram(g *graph.Graph, labels map[[2]int]int64, sink int,
	maxDepth int, mkClient func() Client, cached bool) func(sim.Node) {

	return func(c sim.Node) {
		tr := congest.BuildBFSTree(c, sink, maxDepth)
		mine := OwnedEdges(g, c.ID(), labels)
		isSink := c.ID() == sink

		var client Client
		passes := 0
		onEdge := func(graph.Edge) {}
		if isSink {
			client = mkClient()
			passes = client.Passes()
			c.Charge(client.MemoryWords())
			defer c.Release(client.MemoryWords())
			onEdge = func(e graph.Edge) { client.Edge(e.U, e.V, e.Label) }
			client.StartPass(0)
		}

		cacheList := gatherToSink(c, tr, maxDepth, mine, onEdge, cached)
		if len(cacheList) > 0 {
			c.Charge(int64(len(cacheList)))
			defer c.Release(int64(len(cacheList)))
		}
		if isSink {
			client.EndPass()
			passes = client.Passes()
		}
		// All nodes know p from the globally agreed client construction.
		if !isSink {
			passes = mkClient().Passes()
		}
		for pass := 1; pass < passes; pass++ {
			if isSink {
				client.StartPass(pass)
			}
			if cached {
				replayFromCache(c, tr, maxDepth, cacheList, func(_ int, e graph.Edge) {
					if e.U >= 0 {
						onEdge(e)
					}
				})
			} else {
				gatherToSink(c, tr, maxDepth, mine, onEdge, false)
			}
			if isSink {
				client.EndPass()
			}
		}
		if isSink {
			c.Emit(client.Result())
		}
	}
}

// RunPPass executes the simulation on an engine and returns the sink's
// result and the run statistics.
func RunPPass(g *graph.Graph, labels map[[2]int]int64, mkClient func() Client,
	cached bool, opts ...sim.Option) ([]int64, *sim.Result, error) {

	sink := MaxDegreeNode(g)
	maxDepth := g.N()
	e := sim.New(g, opts...)
	prog := PPassProgram(g, labels, sink, maxDepth, mkClient, cached)
	res, err := e.Run(func(c *sim.Ctx) { prog(c) })
	if err != nil {
		return nil, res, err
	}
	if len(res.Outputs[sink]) == 0 {
		return nil, res, fmt.Errorf("streamsim: sink emitted nothing")
	}
	out, ok := res.Outputs[sink][0].([]int64)
	if !ok {
		return nil, res, fmt.Errorf("streamsim: unexpected sink output %T", res.Outputs[sink][0])
	}
	return out, res, nil
}
