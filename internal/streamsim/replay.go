package streamsim

import (
	"mucongest/internal/congest"
	"mucongest/internal/sim"
)

// Message kinds for the replay and shuffle protocols. An edge travels
// as its message's payload: A = u, B = v, C = label.
const (
	kindEdge        int32 = congest.KindUser + iota
	kindDone              // end of a replay stream; a shuffle cache-size report
	kindCache             // sink -> neighbor: store this edge in the cache
	kindDirective         // sink -> neighbor: Birkhoff schedule entry (dest,count)
	kindShuffleEdge       // rerouting traffic of the random-order shuffle
)

// replayFromCache streams every sink-neighbor's cached edge list to the
// sink in parallel, one edge per link per round; the sink consumes via
// onEdge, a round's arrivals in inbox order. Dummy padding entries
// (A < 0) are delivered too — callers filter.
func replayFromCache(c sim.Node, tr *congest.Tree, maxDepth int,
	myCache []sim.Msg, onEdge func(sim.Msg)) {

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
					onEdge(m.Msg)
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
				e.Kind = kindEdge
				c.SendID(tr.Parent, e)
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
