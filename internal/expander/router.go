package expander

import (
	"math"

	"mucongest/internal/congest"
	"mucongest/internal/graph"
)

// NewRouter returns expander routing over g with the Lemma A.2
// round–space tradeoff parameter α ≥ 1 (see congest.Router). It charges
//
//	T = ⌈L⌉ · α² · ⌈log₂(n+2)⌉²,   L = max_v (sent_v + received_v)/deg(v),
//
// rounds for the realized loads, during which every node holds its
// embedding words (EmbeddingWords). As with clique.NewOracleRouter,
// computing the schedule centrally rather than re-implementing the
// Ghaffari–Kuhn–Su hierarchy is a documented substitution.
func NewRouter(g *graph.Graph, alpha int) *congest.Router {
	alpha = max(alpha, 1)
	clog := logFactor(g.N())
	return congest.NewRouter(g.N(), func(sent, recv []int) int {
		load := 0.0
		for v := range sent {
			if deg := g.Degree(v); deg > 0 {
				load = max(load, float64(sent[v]+recv[v])/float64(deg))
			}
		}
		return int(math.Ceil(load)) * alpha * alpha * clog * clog
	}, func(v int) int64 { return EmbeddingWords(g, alpha, v) })
}

// EmbeddingWords returns node v's space charge for the α-sampled
// embedding of Lemma A.2, ⌈deg(v)/α⌉·⌈log₂(n+2)⌉ words. The lemma's
// space is ⌈deg(v)/α⌉·2^O(√log n).
func EmbeddingWords(g *graph.Graph, alpha, v int) int64 {
	alpha = max(alpha, 1)
	return int64((g.Degree(v)+alpha-1)/alpha) * int64(logFactor(g.N()))
}

// logFactor is ⌈log₂(n+2)⌉, the log factor of both charges.
func logFactor(n int) int { return int(math.Ceil(math.Log2(float64(n + 2)))) }
