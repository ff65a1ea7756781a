package streamsim

import (
	"mucongest/internal/congest"
	"mucongest/internal/graph"
	"mucongest/internal/sim"
)

// Message kinds for the gather/replay protocols.
const (
	kindEdge int32 = congest.KindUser + iota
	kindDone
	kindCredit
	kindCache       // sink -> neighbor: store this edge in the cache
	kindCacheCredit // kindCache that simultaneously grants one credit
	kindDirective   // sink -> neighbor: Birkhoff schedule entry (dest,count)
	kindShuffleEdge // rerouting traffic of the random-order shuffle
)

const creditWindow = 2

// gatherToSink pipelines every node's owned edges to the tree root with
// credit-based flow control (window 2 per child), so relay queues stay
// at O(deg) words and the μ-bound is respected. The sink consumes
// edges via onEdge in arrival order. With cache=true the sink
// additionally distributes every edge round-robin to its tree children
// (its graph neighbors) as cache entries of at most ⌈m/Δ⌉ ≤ n edges
// each — the Theorem 1.3 edge-caching step; the function returns this
// node's cache. Termination: DONE flags converge up the tree, then the
// sink floods a FINISH countdown so all nodes leave the subroutine on
// the same round.
func gatherToSink(c sim.Node, tr *congest.Tree, maxDepth int,
	myEdges []graph.Edge, onEdge func(graph.Edge), cache bool) []graph.Edge {

	isSink := c.ID() == tr.Root
	var queue []graph.Edge  // upward relay queue (non-sink)
	var egress []graph.Edge // cache distribution queue (sink)
	var myCache []graph.Edge
	consume := func(e graph.Edge) {
		if onEdge != nil {
			onEdge(e)
		}
		if cache {
			egress = append(egress, e)
		}
	}
	if isSink {
		for _, e := range myEdges {
			consume(e)
		}
	} else {
		queue = append(queue, myEdges...)
	}
	charged := int64(len(myEdges) + 2*len(tr.Children) + 8)
	c.Charge(charged)
	defer c.Release(charged)

	childDone := make(map[int]bool, len(tr.Children))
	outstanding := make(map[int]int, len(tr.Children))
	credits := 0
	doneSent := false
	queueCap := 2*len(tr.Children) + 4
	nextCache := 0 // round-robin cache target index

	for {
		// Child side: forward one edge or announce completion.
		if !isSink {
			switch {
			case len(queue) > 0 && credits > 0:
				e := queue[0]
				queue = queue[1:]
				credits--
				c.SendID(tr.Parent, sim.Msg{Kind: kindEdge, A: int64(e.U), B: int64(e.V), C: e.Label})
			case len(queue) == 0 && !doneSent && len(childDone) == len(tr.Children):
				doneSent = true
				c.SendID(tr.Parent, sim.Msg{Kind: kindDone})
			}
		}
		// Parent side: one downward message per child per round —
		// a cache edge (optionally carrying a credit), a bare credit,
		// or nothing.
		wantCredit := make(map[int]bool, len(tr.Children))
		space := queueCap - len(queue)
		if isSink {
			space = len(tr.Children)
		}
		for _, ch := range tr.Children {
			if space <= 0 {
				break
			}
			if !childDone[ch] && outstanding[ch] < creditWindow {
				wantCredit[ch] = true
				space--
			}
		}
		sentDown := make(map[int]bool, len(tr.Children))
		if isSink && cache {
			for i := 0; i < len(tr.Children) && len(egress) > 0; i++ {
				ch := tr.Children[nextCache%len(tr.Children)]
				nextCache++
				e := egress[0]
				egress = egress[1:]
				kind := kindCache
				if wantCredit[ch] {
					kind = kindCacheCredit
					outstanding[ch]++
					delete(wantCredit, ch)
				}
				c.SendID(ch, sim.Msg{Kind: kind, A: int64(e.U), B: int64(e.V), C: e.Label})
				sentDown[ch] = true
			}
		}
		for _, ch := range tr.Children {
			if wantCredit[ch] && !sentDown[ch] {
				outstanding[ch]++
				c.SendID(ch, sim.Msg{Kind: kindCredit})
			}
		}
		// Sink: fire FINISH when the whole tree and cache egress drained.
		if isSink && len(childDone) == len(tr.Children) && len(egress) == 0 {
			congest.FinishCountdown(c, tr, maxDepth+1)
			return myCache
		}

		in := c.Tick()
		for _, m := range in {
			switch m.Msg.Kind {
			case kindEdge:
				outstanding[m.From]--
				e := graph.Edge{U: int(m.Msg.A), V: int(m.Msg.B), Label: m.Msg.C}
				if isSink {
					consume(e)
				} else {
					queue = append(queue, e)
				}
			case kindDone:
				childDone[m.From] = true
			case kindCredit:
				credits++
			case kindCacheCredit:
				credits++
				myCache = append(myCache, graph.Edge{U: int(m.Msg.A), V: int(m.Msg.B), Label: m.Msg.C})
			case kindCache:
				myCache = append(myCache, graph.Edge{U: int(m.Msg.A), V: int(m.Msg.B), Label: m.Msg.C})
			case congest.KindFinish:
				congest.FinishCountdown(c, tr, int(m.Msg.A))
				return myCache
			}
		}
	}
}

// replayFromCache streams every sink-neighbor's cached edge list to the
// sink in parallel, one edge per link per round; the sink consumes via
// onEdge with the sender id (per round, arrivals are ordered by sender
// id, which the random-order shuffle uses as the slot convention).
// Dummy padding entries (U < 0) are delivered too — callers filter.
func replayFromCache(c sim.Node, tr *congest.Tree, maxDepth int,
	myCache []graph.Edge, onEdge func(from int, e graph.Edge)) {

	isSink := c.ID() == tr.Root
	if isSink {
		waiting := make(map[int]bool, len(tr.Children))
		for _, ch := range tr.Children {
			waiting[ch] = true
		}
		for len(waiting) > 0 {
			in := c.Tick()
			for _, m := range in {
				switch m.Msg.Kind {
				case kindEdge:
					onEdge(m.From, graph.Edge{U: int(m.Msg.A), V: int(m.Msg.B), Label: m.Msg.C})
				case kindDone:
					delete(waiting, m.From)
				}
			}
		}
		congest.FinishCountdown(c, tr, maxDepth+1)
		return
	}
	sendIdx := 0
	doneSent := false
	amNeighbor := tr.Parent == tr.Root
	for {
		if amNeighbor {
			if sendIdx < len(myCache) {
				e := myCache[sendIdx]
				sendIdx++
				c.SendID(tr.Parent, sim.Msg{Kind: kindEdge, A: int64(e.U), B: int64(e.V), C: e.Label})
			} else if !doneSent {
				doneSent = true
				c.SendID(tr.Parent, sim.Msg{Kind: kindDone})
			}
		}
		in := c.Tick()
		for _, m := range in {
			if m.Msg.Kind == congest.KindFinish {
				congest.FinishCountdown(c, tr, int(m.Msg.A))
				return
			}
		}
	}
}
