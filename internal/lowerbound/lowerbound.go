// Package lowerbound collects the paper's information-theoretic bounds
// as formulas used as the "theory" columns of the experiment tables,
// plus the combinatorial facts they rest on (Lemma 2.1) and small
// entropy helpers mirroring Section 2.1's proof machinery.
package lowerbound

import "math"

// KCliqueListingRounds is Theorem 1.1: any k-clique listing algorithm
// in μ-CONGEST with per-round inbound message bound ℓ needs at least
// Ω(n^(k-1)/(μ^(k/2-1)·ℓ)) rounds (constants suppressed; the function
// returns the bound with constant 1).
func KCliqueListingRounds(n float64, k int, mu, ell float64) float64 {
	return math.Pow(n, float64(k-1)) / (math.Pow(mu, float64(k)/2-1) * ell)
}

// KCliqueMax is Lemma 2.1: a graph with m edges contains at most
// O(m^(k/2)) k-cliques. The tight constant is (2m)^(k/2)/k!·... ; the
// classical Kruskal–Katona style bound m^(k/2)/ (k/2)!·c suffices for
// the property tests; we return the clean m^(k/2) envelope, which the
// true count never exceeds for k ≥ 3.
func KCliqueMax(m float64, k int) float64 {
	return math.Pow(m, float64(k)/2)
}

// StreamingSimulationRounds is Theorem 1.4: with μ ≤ n/4, single-node
// simulation of a p-pass edge-streaming algorithm needs Ω(n·Δ·p)
// rounds.
func StreamingSimulationRounds(n, delta, p float64) float64 {
	return n * delta * p
}

// CachedSimulationRounds is Theorem 1.3's upper bound O(n·(Δ+p)).
func CachedSimulationRounds(n, delta, p float64) float64 {
	return n * (delta + p)
}

// OneWayMergeRounds is Theorem 1.6: O(min{n·M, √(|I|·M)} + D).
func OneWayMergeRounds(n, M, totalInfo, D float64) float64 {
	return math.Min(n*M, math.Sqrt(totalInfo*M)) + D
}

// FullyMergeRounds is Theorem 1.7:
// O(log(min{nM,|I|}) · (M·log(Δ/(μ/M)) + D)).
func FullyMergeRounds(n, M, totalInfo, D, delta, mu float64) float64 {
	lg := math.Log2(math.Min(n*M, totalInfo))
	if lg < 1 {
		lg = 1
	}
	ratio := delta / math.Max(1, mu/M)
	lr := math.Log2(ratio)
	if lr < 1 {
		lr = 1
	}
	return lg * (M*lr + D)
}

// ComposableMergeRounds is Theorem 1.8: O(log(min{nM,|I|})·(M+D)).
func ComposableMergeRounds(n, M, totalInfo, D float64) float64 {
	lg := math.Log2(math.Min(n*M, totalInfo))
	if lg < 1 {
		lg = 1
	}
	return lg * (M + D)
}

// Entropy returns the Shannon entropy (bits) of a distribution given as
// nonnegative weights.
func Entropy(weights []float64) float64 {
	var tot float64
	for _, w := range weights {
		tot += w
	}
	if tot == 0 {
		return 0
	}
	var h float64
	for _, w := range weights {
		if w > 0 {
			p := w / tot
			h -= p * math.Log2(p)
		}
	}
	return h
}
