package expander

import (
	"math"

	"mucongest/internal/graph"
)

// MixingTime estimates τ_mix of g under the lazy random walk (stay with
// probability 1/2): the first step count t at which the walk
// distribution from the worst-case start is within 1/n of stationarity
// in the relative metric of Appendix A. Power iteration; intended for
// workload validation and tests (O(t·m) per start, sampled starts).
func MixingTime(g *graph.Graph, maxT int) int {
	n := g.N()
	if n <= 1 {
		return 0
	}
	var vol float64
	for v := 0; v < n; v++ {
		vol += float64(g.Degree(v))
	}
	starts := []int{0, n / 2, n - 1}
	worst := 0
	for _, s := range starts {
		p := make([]float64, n)
		q := make([]float64, n)
		p[s] = 1
		t := 0
		for ; t < maxT; t++ {
			ok := true
			for u := 0; u < n; u++ {
				pi := float64(g.Degree(u)) / vol
				if math.Abs(p[u]-pi) > pi/float64(n) {
					ok = false
					break
				}
			}
			if ok {
				break
			}
			for u := range q {
				q[u] = p[u] / 2
			}
			for v := 0; v < n; v++ {
				if p[v] == 0 {
					continue
				}
				share := p[v] / 2 / float64(g.Degree(v))
				for _, u := range g.Neighbors(v) {
					q[u] += share
				}
			}
			p, q = q, p
			for u := range q {
				q[u] = 0
			}
		}
		if t > worst {
			worst = t
		}
	}
	return worst
}
