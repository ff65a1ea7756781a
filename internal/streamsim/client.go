// Package streamsim implements Section 3's single-node streaming
// simulations in μ-CONGEST: the naive recollect-per-pass simulator, the
// edge-caching simulator of Theorem 1.3 (O(n(Δ+p)) rounds, μ = M+n),
// and the random-order stream generator of Theorem 1.5 built on a
// distributed bucketized Fisher–Yates shuffle with Birkhoff-scheduled
// congestion-free rerouting (μ = M+n+Δ²).
package streamsim

import (
	"mucongest/internal/graph"
	"mucongest/internal/sim"
)

// Client is a p-pass edge-streaming algorithm run at the simulator
// node. The simulator calls StartPass before each pass and Edge for
// every streamed edge; Result is emitted after the last pass.
type Client interface {
	// Passes returns p, the number of passes required.
	Passes() int
	// StartPass resets per-pass state.
	StartPass(pass int)
	// Edge processes one streamed edge.
	Edge(u, w int, label int64)
	// EndPass finalizes the pass (e.g. descends the search interval).
	EndPass()
	// Result returns the algorithm's output after the final pass.
	Result() []int64
	// MemoryWords returns the algorithm's memory footprint M in words.
	MemoryWords() int64
}

// MultipassSelect finds the exact k-th smallest edge label (1-based)
// in p passes using B counters: each pass splits the current candidate
// interval into B buckets, counts labels per bucket, and descends into
// the bucket containing the target rank — the classic p-pass selection
// algorithm with M = O(B) memory. Exact whenever B^p covers the label
// range.
type MultipassSelect struct {
	K       int64 // target rank, 1-based
	B       int   // buckets per pass
	P       int   // passes
	lo, hi  int64 // candidate interval [lo, hi]
	cnt     []int64
	below   int64
	found   int64
	settled bool
}

// NewMultipassSelect builds a selector for rank k over labels in
// [lo, hi] using B buckets and p passes.
func NewMultipassSelect(k int64, lo, hi int64, b, p int) *MultipassSelect {
	return &MultipassSelect{K: k, B: b, P: p, lo: lo, hi: hi, cnt: make([]int64, b)}
}

// Passes returns p.
func (s *MultipassSelect) Passes() int { return s.P }

// StartPass clears the bucket counters.
func (s *MultipassSelect) StartPass(int) {
	for i := range s.cnt {
		s.cnt[i] = 0
	}
	s.below = 0
}

func (s *MultipassSelect) width() int64 {
	span := s.hi - s.lo + 1
	w := (span + int64(s.B) - 1) / int64(s.B)
	if w < 1 {
		w = 1
	}
	return w
}

// Edge buckets one label.
func (s *MultipassSelect) Edge(_, _ int, label int64) {
	if s.settled {
		return
	}
	if label < s.lo {
		s.below++
		return
	}
	if label > s.hi {
		return
	}
	b := (label - s.lo) / s.width()
	if b >= int64(s.B) {
		b = int64(s.B) - 1
	}
	s.cnt[b]++
}

// EndPass descends into the bucket holding the target rank. Because
// every pass re-streams the whole input, the count of labels below the
// current interval is re-measured each pass, so the target rank inside
// the interval is simply K minus this pass's below-count.
func (s *MultipassSelect) EndPass() {
	if s.settled {
		return
	}
	need := s.K - s.below
	w := s.width()
	run := int64(0)
	for b := 0; b < s.B; b++ {
		if run+s.cnt[b] >= need {
			newLo := s.lo + int64(b)*w
			newHi := newLo + w - 1
			if newHi > s.hi {
				newHi = s.hi
			}
			s.lo, s.hi = newLo, newHi
			if s.lo == s.hi {
				s.found = s.lo
				s.settled = true
			}
			return
		}
		run += s.cnt[b]
	}
	// Rank beyond the stream: report the top of the range.
	s.found = s.hi
	s.settled = true
}

// Result returns [value]; exact once B^p covered the label range.
func (s *MultipassSelect) Result() []int64 {
	if !s.settled {
		s.found = s.lo
	}
	return []int64{s.found}
}

// MemoryWords returns O(B).
func (s *MultipassSelect) MemoryWords() int64 { return int64(s.B) + 8 }

// OwnedEdges returns the edges of g owned by node v (those to a larger
// neighbor u) as message payloads: A = v, B = u, C = the label from the
// optional color map.
func OwnedEdges(g *graph.Graph, v int, labels map[[2]int]int64) []sim.Msg {
	var out []sim.Msg
	for _, u := range g.Neighbors(v) {
		if u > v {
			e := sim.Msg{A: int64(v), B: int64(u)}
			if labels != nil {
				e.C = labels[[2]int{v, u}]
			}
			out = append(out, e)
		}
	}
	return out
}
