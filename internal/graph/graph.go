// Package graph provides the undirected-graph type used as both input
// graph and communication topology throughout the repository, plus the
// workload generators the paper's experiments need (G(n,p), the
// cycle-of-cliques lower-bound instance of Theorem 1.4, random regular
// graphs, colored graphs for monochromatic-triangle statistics, ...).
package graph

import (
	"fmt"
	"sort"
)

// Edge is an undirected edge {U, V} with U < V, optionally labeled.
type Edge struct {
	U, V  int
	Label int64
}

// Graph is a simple undirected graph on nodes 0..N-1 with adjacency
// lists. It implements sim.Topology.
type Graph struct {
	n   int
	adj [][]int
	m   int
}

// New returns an empty graph on n nodes.
func New(n int) *Graph {
	return &Graph{n: n, adj: make([][]int, n)}
}

// FromEdges builds a graph on n nodes from an edge list. Duplicate and
// self-loop edges are rejected.
func FromEdges(n int, edges []Edge) (*Graph, error) {
	g := New(n)
	seen := make(map[[2]int]bool, len(edges))
	for _, e := range edges {
		u, v := e.U, e.V
		if u == v {
			return nil, fmt.Errorf("graph: self-loop at %d", u)
		}
		if u > v {
			u, v = v, u
		}
		if u < 0 || v >= n {
			return nil, fmt.Errorf("graph: edge {%d,%d} out of range [0,%d)", u, v, n)
		}
		if seen[[2]int{u, v}] {
			return nil, fmt.Errorf("graph: duplicate edge {%d,%d}", u, v)
		}
		seen[[2]int{u, v}] = true
		g.addEdge(u, v)
	}
	g.sortAdj()
	return g, nil
}

func (g *Graph) addEdge(u, v int) {
	g.adj[u] = append(g.adj[u], v)
	g.adj[v] = append(g.adj[v], u)
	g.m++
}

// AddEdge inserts the undirected edge {u,v}. It does not check for
// duplicates; use FromEdges for validated construction. Call sortAdj via
// Finish after bulk insertion.
func (g *Graph) AddEdge(u, v int) { g.addEdge(u, v) }

// Finish sorts adjacency lists; call once after bulk AddEdge use.
func (g *Graph) Finish() { g.sortAdj() }

func (g *Graph) sortAdj() {
	for _, a := range g.adj {
		sort.Ints(a)
	}
}

// N returns the node count.
func (g *Graph) N() int { return g.n }

// M returns the edge count.
func (g *Graph) M() int { return g.m }

// Neighbors returns v's sorted neighbor list. The slice must not be
// modified.
func (g *Graph) Neighbors(v int) []int { return g.adj[v] }

// Degree returns deg(v).
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// NeighborAt returns v's neighbor on the given port (its index in the
// sorted neighbor list).
func (g *Graph) NeighborAt(v, port int) int { return g.adj[v][port] }

// PortOf returns the port of neighbor id as seen from v via binary
// search over v's sorted list, or -1 when not adjacent.
func (g *Graph) PortOf(v, id int) int {
	a := g.adj[v]
	i := sort.SearchInts(a, id)
	if i < len(a) && a[i] == id {
		return i
	}
	return -1
}

// MaxDegree returns Δ.
func (g *Graph) MaxDegree() int {
	d := 0
	for v := 0; v < g.n; v++ {
		if len(g.adj[v]) > d {
			d = len(g.adj[v])
		}
	}
	return d
}

// AvgDegree returns 2m/n.
func (g *Graph) AvgDegree() float64 {
	if g.n == 0 {
		return 0
	}
	return 2 * float64(g.m) / float64(g.n)
}

// HasEdge reports whether {u,v} is present, via binary search.
func (g *Graph) HasEdge(u, v int) bool { return g.PortOf(u, v) >= 0 }

// Edges returns all edges with U < V in lexicographic order.
func (g *Graph) Edges() []Edge {
	es := make([]Edge, 0, g.m)
	for u := 0; u < g.n; u++ {
		for _, v := range g.adj[u] {
			if u < v {
				es = append(es, Edge{U: u, V: v})
			}
		}
	}
	return es
}

// Diameter returns the eccentricity maximum over all nodes via repeated
// BFS, or -1 if the graph is disconnected. O(n·m); intended for test and
// workload sizes.
func (g *Graph) Diameter() int {
	diam := 0
	dist := make([]int, g.n)
	queue := make([]int, 0, g.n)
	for s := 0; s < g.n; s++ {
		for i := range dist {
			dist[i] = -1
		}
		dist[s] = 0
		queue = queue[:0]
		queue = append(queue, s)
		seen := 1
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, u := range g.adj[v] {
				if dist[u] < 0 {
					dist[u] = dist[v] + 1
					if dist[u] > diam {
						diam = dist[u]
					}
					queue = append(queue, u)
					seen++
				}
			}
		}
		if seen < g.n {
			return -1
		}
	}
	return diam
}

// Connected reports whether the graph is connected (true for n ≤ 1).
func (g *Graph) Connected() bool {
	if g.n <= 1 {
		return true
	}
	seen := make([]bool, g.n)
	stack := []int{0}
	seen[0] = true
	cnt := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, u := range g.adj[v] {
			if !seen[u] {
				seen[u] = true
				cnt++
				stack = append(stack, u)
			}
		}
	}
	return cnt == g.n
}

// Subgraph returns the induced subgraph on keep (given as a node set),
// along with the mapping from new ids to original ids.
func (g *Graph) Subgraph(keep map[int]bool) (*Graph, []int) {
	orig := make([]int, 0, len(keep))
	for v := 0; v < g.n; v++ {
		if keep[v] {
			orig = append(orig, v)
		}
	}
	newID := make(map[int]int, len(orig))
	for i, v := range orig {
		newID[v] = i
	}
	sub := New(len(orig))
	for i, v := range orig {
		for _, u := range g.adj[v] {
			if j, ok := newID[u]; ok && i < j {
				sub.addEdge(i, j)
			}
		}
	}
	sub.sortAdj()
	return sub, orig
}
