package congest

import (
	"math/bits"

	"mucongest/internal/sim"
)

// Message kinds private to the relabeling protocol.
const (
	kindClassUp int32 = iota + 16
	kindClassDown
)

// Relabeling is the result of DegreeClassRelabel at one node: the node's
// new identifier plus the global degree-class histogram, from which any
// node can locally compute ⌊log₂ deg(v)⌋ for any node v given v's new
// id — exactly the guarantee of Lemma B.5.
type Relabeling struct {
	NewID      int64
	NumClasses int
	Hist       []int64 // Hist[j] = number of nodes with degree class j
	ClassStart []int64 // ClassStart[j] = first new id of class j
}

// ClassOfNewID returns the degree class of the node holding new id,
// computable locally from the histogram.
func (r *Relabeling) ClassOfNewID(id int64) int {
	for j := r.NumClasses - 1; j >= 0; j-- {
		if id >= r.ClassStart[j] && r.Hist[j] > 0 {
			return j
		}
	}
	return 0
}

// DegreeClass returns ⌊log₂ deg⌋ (0 for degree ≤ 1).
func DegreeClass(deg int) int {
	if deg <= 1 {
		return 0
	}
	return bits.Len(uint(deg)) - 1
}

// DegreeClassRelabel implements Lemma B.5: assigns every node a new id
// in [0, n) such that ids are grouped by degree class (class j occupies
// [ClassStart[j], ClassStart[j]+Hist[j])), and broadcasts the histogram
// so that every node can compute every other node's class from its new
// id.
//
// Round complexity O(maxDepth + log n): one pipelined convergecast of
// the class histogram, one pipelined broadcast of the global histogram,
// then a doubly-pipelined offset-assignment wave in which class-j
// offsets travel down the tree while class-j subtree counts travel up
// exactly one round ahead of their use, so a node holds child counts for
// at most two classes at a time. Memory O(Δ + log n) words.
//
// All nodes must call with the same tree, maxDepth, and their own
// degree (in the graph of interest, which may differ from the
// communication degree).
func DegreeClassRelabel(c sim.Node, t *Tree, maxDepth int, myDegree int) *Relabeling {
	n := c.N()
	numClasses := bits.Len(uint(n)) + 1
	myClass := DegreeClass(myDegree)

	// Step 1: subtree histograms via pipelined convergecast.
	ind := make([]int64, numClasses)
	ind[myClass] = 1
	hsub := Convergecast(c, t, maxDepth, ind, OpSum)

	// Step 2: the root broadcasts the global histogram.
	hist := BroadcastDown(c, t, maxDepth, numClasses, hsub)
	classStart := make([]int64, numClasses)
	var run int64
	for j := 0; j < numClasses; j++ {
		classStart[j] = run
		run += hist[j]
	}

	// Step 3: doubly-pipelined id assignment. A node at depth d ≥ 1
	// sends its subtree count for class j upward at round j+2d-2, and a
	// node at depth d forwards class-j offsets to its children at round
	// j+2d+1. A node at depth d therefore holds, when it forwards class
	// j at round j+2d+1: its children's counts (sent at j+2(d+1)-2 =
	// j+2d, received at the end of that round) and its own offset (sent
	// by its parent at j+2(d-1)+1 = j+2d-1, received at the end of that
	// round). Counts for at most three classes are in flight at once,
	// keeping memory at O(Δ + log n).
	d := t.Depth
	var newID int64 = -1
	pendingOff := make(map[int]int64)         // class -> my subtree's start offset
	pendingCnt := make(map[int]map[int]int64) // class -> child -> subtree count
	c.Charge(int64(2*c.Degree() + 2*numClasses + 8))
	defer c.Release(int64(2*c.Degree() + 2*numClasses + 8))
	if c.ID() == t.Root {
		for j := 0; j < numClasses; j++ {
			pendingOff[j] = classStart[j]
		}
	}
	horizon := numClasses + 2*maxDepth + 3
	for r := 0; r < horizon; r++ {
		if t.Joined() {
			if j := r - 2*d + 2; t.Parent >= 0 && j >= 0 && j < numClasses {
				c.SendID(t.Parent, sim.Msg{Kind: kindClassUp, A: int64(j), B: hsub[j]})
			}
			if j := r - 2*d - 1; j >= 0 && j < numClasses {
				off, ok := pendingOff[j]
				if !ok {
					panic("congest: relabel pipeline missed an offset")
				}
				delete(pendingOff, j)
				if myClass == j {
					newID = off
					off++
				}
				cnts := pendingCnt[j]
				delete(pendingCnt, j)
				for _, ch := range t.Children {
					c.SendID(ch, sim.Msg{Kind: kindClassDown, A: int64(j), B: off})
					off += cnts[ch]
				}
			}
		}
		in := c.Tick()
		for _, m := range in {
			switch m.Msg.Kind {
			case kindClassUp:
				j := int(m.Msg.A)
				if pendingCnt[j] == nil {
					pendingCnt[j] = make(map[int]int64, len(t.Children))
				}
				pendingCnt[j][m.From] = m.Msg.B
			case kindClassDown:
				if m.From == t.Parent {
					pendingOff[int(m.Msg.A)] = m.Msg.B
				}
			}
		}
	}
	if newID < 0 {
		panic("congest: relabel failed to assign an id")
	}
	return &Relabeling{
		NewID:      newID,
		NumClasses: numClasses,
		Hist:       hist,
		ClassStart: classStart,
	}
}
