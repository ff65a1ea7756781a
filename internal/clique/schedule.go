package clique

import (
	"slices"

	"mucongest/internal/congest"
	"mucongest/internal/cover"
	"mucongest/internal/sim"
)

// schedule is the block schedule that Theorem 2.10 (E1/E2) and phase C
// of Theorem 1.2 (E3) share. A universe is added with its listers and
// the node lists of its groups. Its sets are the unions of the groups
// in each c-multiset of groups, in cover.Next order, and set i goes to
// lister i mod L in block ⌊i/L⌋, L being the universe's lister count.
// In a block, every node ships each edge to a larger neighbor with both
// ends in one of the block's sets to that set's lister. Each set is a
// bitset over node ids, written once by add and read by every node.
type schedule struct {
	words  int // bitset words per set
	unis   []universe
	blocks int // the most blocks any universe needs
}

// universe is one added universe: its listers and its sets, set i
// being sets[i*words : (i+1)*words].
type universe struct {
	listers []int
	sets    []uint64
}

// bitset is a set of node ids: v is a member iff bit v%64 of word v/64
// is set.
type bitset []uint64

func (b bitset) has(v int) bool { return b[v>>6]&(1<<(v&63)) != 0 }

// newSchedule returns an empty schedule over node ids 0..n-1.
func newSchedule(n int) *schedule { return &schedule{words: max(1, (n+63)/64)} }

// add appends a universe whose sets are the c-multisets of groups,
// dealt to listers, which the schedule keeps. It does not keep groups.
func (s *schedule) add(listers []int, groups [][]int, c int) {
	u := universe{listers: listers, sets: make([]uint64, cover.Multisets(len(groups), c)*s.words)}
	ms := make([]int, c)
	for set := u.sets; ; set = set[s.words:] {
		for i, j := range ms {
			if i > 0 && j == ms[i-1] {
				continue // ms is sorted: a repeated group follows its first
			}
			for _, v := range groups[j] {
				set[v>>6] |= 1 << (v & 63)
			}
		}
		if !cover.Next(ms, len(groups)) {
			break
		}
	}
	s.unis = append(s.unis, u)
	s.blocks = max(s.blocks, (len(u.sets)/s.words+len(listers)-1)/len(listers))
}

// appendPackets appends node id's packets of block blk to out. row is
// id's sorted neighbors: for every set dealt in blk that holds id, each
// neighbor w > id that the set also holds gives one packet {id, w},
// addressed to the set's lister.
//
//muvet:hotpath
func (s *schedule) appendPackets(out []congest.Packet, blk, id int, row []int) []congest.Packet {
	first, _ := slices.BinarySearch(row, id+1)
	for _, u := range s.unis {
		for j, dst := range u.listers {
			lo := (blk*len(u.listers) + j) * s.words
			if lo >= len(u.sets) {
				break
			}
			set := bitset(u.sets[lo : lo+s.words])
			if !set.has(id) {
				continue
			}
			for _, w := range row[first:] {
				if set.has(w) {
					out = append(out, congest.Packet{Dst: dst, A: int64(id), B: int64(w)})
				}
			}
		}
	}
	return out
}

// run is node c's part in every block, in E1/E2 and E3 alike: it
// routes its packets of the block, then holds the received edge batch
// (2 words per edge, ≤ O(μ)) while it lists the batch's k-cliques and
// emits them. row is the node's sorted neighbors. Both buffers are
// reused across blocks: Route is done with out when it returns, and the
// batch is listed before the node's next Route.
func (s *schedule) run(c sim.Node, router *congest.Router, row []int, k int) {
	var out []congest.Packet
	var edges [][2]int
	for blk := range s.blocks {
		out = s.appendPackets(out[:0], blk, c.ID(), row)
		in := router.Route(c, out)
		if len(in) == 0 {
			continue
		}
		c.Charge(int64(2 * len(in)))
		edges = edges[:0]
		for _, p := range in {
			edges = append(edges, [2]int{int(p.A), int(p.B)})
		}
		for _, cl := range ListInEdgeSet(edges, k) {
			c.Emit(cl)
		}
		c.Release(int64(2 * len(in)))
	}
}
