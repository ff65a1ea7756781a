// Package matching provides bipartite perfect matching and the
// Birkhoff–von Neumann decomposition of doubly "stochastic" integer
// matrices into permutation matrices, the scheduling core of the
// paper's random-order stream simulation (Theorem 1.5): a Δ×Δ matrix
// whose rows and columns all sum to n decomposes into permutation
// matrices with multiplicities summing to n, giving a congestion-free
// per-round transmission schedule.
package matching

import (
	"fmt"
	"iter"
	"slices"
)

// PerfectMatching finds a perfect matching in a bipartite graph on
// [0,n)×[0,n) given by the support adjacency adj (adj[i] lists the
// right-vertices available to left-vertex i), using Kuhn's augmenting
// path algorithm. Returns match[i] = the right vertex matched to left
// i, or an error if no perfect matching exists.
func PerfectMatching(n int, adj [][]int) ([]int, error) {
	matchL := make([]int, n) // left i -> right
	matchR := make([]int, n) // right j -> left
	for i := range matchL {
		matchL[i] = -1
		matchR[i] = -1
	}
	visited := make([]bool, n)
	var try func(i int) bool
	try = func(i int) bool {
		for _, j := range adj[i] {
			if visited[j] {
				continue
			}
			visited[j] = true
			if matchR[j] == -1 || try(matchR[j]) {
				matchL[i] = j
				matchR[j] = i
				return true
			}
		}
		return false
	}
	for i := 0; i < n; i++ {
		for k := range visited {
			visited[k] = false
		}
		if !try(i) {
			return nil, fmt.Errorf("matching: no perfect matching covers left vertex %d", i)
		}
	}
	return matchL, nil
}

// Birkhoff decomposes a non-negative integer matrix B whose rows and
// columns all sum to the same value s into at most Δ²−2Δ+2 permutation
// matrices with positive integer multiplicities summing to s
// (Birkhoff's theorem [9] applied to B/s). It validates B, then returns
// the terms one at a time as (perm, count), perm[j] being the row i with
// P[i][j] = 1, so the caller holds one term and the iterator its O(Δ²)
// working copy of B, never the whole decomposition. Each round of the
// resulting schedule moves exactly one unit along each row and column —
// the congestion-free property Theorem 1.5 needs.
func Birkhoff(B [][]int64) (iter.Seq2[[]int, int64], error) {
	n := len(B)
	var s int64
	if n > 0 {
		for j := range B[0] {
			s += B[0][j]
		}
	}
	colSum := make([]int64, n)
	for i := range B {
		var rs int64
		if len(B[i]) != n {
			return nil, fmt.Errorf("matching: B not square")
		}
		for j := range B[i] {
			if B[i][j] < 0 {
				return nil, fmt.Errorf("matching: negative entry B[%d][%d]", i, j)
			}
			rs += B[i][j]
			colSum[j] += B[i][j]
		}
		if rs != s {
			return nil, fmt.Errorf("matching: row %d sums %d, want %d", i, rs, s)
		}
	}
	for j, cs := range colSum {
		if cs != s {
			return nil, fmt.Errorf("matching: column %d sums %d, want %d", j, cs, s)
		}
	}
	return func(yield func([]int, int64) bool) {
		W := make([][]int64, n)
		for i := range B {
			W[i] = slices.Clone(B[i])
		}
		adj := make([][]int, n)
		for remaining := s; remaining > 0; {
			// Support graph: left = columns (sources), right = rows (dests).
			for j := range n {
				adj[j] = adj[j][:0]
				for i := range n {
					if W[i][j] > 0 {
						adj[j] = append(adj[j], i)
					}
				}
			}
			m, err := PerfectMatching(n, adj)
			if err != nil {
				// Birkhoff's theorem rules this out for a validated B.
				panic(fmt.Sprintf("matching: Birkhoff stalled with %d remaining: %v", remaining, err))
			}
			gamma := remaining
			for j, i := range m {
				gamma = min(gamma, W[i][j])
			}
			for j, i := range m {
				W[i][j] -= gamma
			}
			remaining -= gamma
			if !yield(m, gamma) {
				return
			}
		}
	}, nil
}
