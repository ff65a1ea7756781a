package clique

import (
	"slices"

	"mucongest/internal/congest"
)

// NewOracleRouter returns the Lenzen routing of Lemma 2.9 for an n-node
// μ-Congested-Clique: an instance in which every node sends and
// receives at most L packets costs ⌈L/(n-1)⌉ + 1 rounds, charged from
// the realized loads (see congest.Router). A silent instance costs no
// rounds, and a single node, which has no links, divides by 1.
func NewOracleRouter(n int) *congest.Router {
	return congest.NewRouter(n, func(sent, recv []int) int {
		load := max(slices.Max(sent), slices.Max(recv))
		if load == 0 {
			return 0
		}
		return (load+n-2)/max(1, n-1) + 1
	}, nil)
}
