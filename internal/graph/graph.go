// Package graph provides the undirected-graph type used as both input
// graph and communication topology throughout the repository, plus the
// workload generators the paper's experiments need (G(n,p), the
// cycle-of-cliques lower-bound instance of Theorem 1.4, random regular
// graphs, edge colorings for monochromatic-triangle statistics, ...).
package graph

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
)

// Edge is an undirected edge {U, V} with U < V, optionally labeled.
type Edge struct {
	U, V  int
	Label int64
}

// Graph is a simple undirected graph on nodes 0..N-1 in compressed
// sparse row form: one flat neighbor array plus one offset array,
// nothing per node. Row v is sorted ascending, so a neighbor's port is
// its index in the row. The memory is CSRBytes(n, m), and the delivery
// loop reads it sequentially. Graph implements sim.Topology, whose
// Degree, NeighborAt and PortOf it answers from the flat rows, so the
// engine never materializes a neighbor slice for it.
//
// Node ids are stored as int32: a graph holds at most 2^31-1 nodes.
type Graph struct {
	n       int
	m       int
	offsets []int64 // len n+1; row v is adj[offsets[v]:offsets[v+1]], sorted
	adj     []int32

	// Neighbors materializes []int rows only on demand (the engine
	// itself never calls it, only programs asking Ctx.Neighbors and
	// the workload statistics do). The cache table is published once
	// via tab, entries once via CompareAndSwap, so the warm path is
	// lock-free and every caller sees one canonical slice per node.
	mu  sync.Mutex
	tab atomic.Pointer[[]atomic.Pointer[[]int]]
}

// fromPairs builds a graph on n nodes from a flat undirected edge list
// (u0,v0,u1,v1,...) by counting sort. The input is trusted: no
// self-loops, no duplicate edges, every id in [0,n). All generators in
// this package emit such lists.
func fromPairs(n int, pairs []int32) *Graph {
	if n < 0 || int64(n) > math.MaxInt32 {
		panic(fmt.Sprintf("graph: a graph holds 0 ≤ n ≤ %d nodes, got %d", math.MaxInt32, n))
	}
	m := len(pairs) / 2
	g := &Graph{n: n, m: m, offsets: make([]int64, n+1), adj: make([]int32, 2*m)}
	for _, v := range pairs {
		g.offsets[v+1]++
	}
	for v := 0; v < n; v++ {
		g.offsets[v+1] += g.offsets[v]
	}
	cur := make([]int64, n)
	copy(cur, g.offsets[:n])
	for i := 0; i < len(pairs); i += 2 {
		u, v := pairs[i], pairs[i+1]
		g.adj[cur[u]] = v
		cur[u]++
		g.adj[cur[v]] = u
		cur[v]++
	}
	for v := 0; v < n; v++ {
		slices.Sort(g.row(v))
	}
	return g
}

// FromEdges builds a graph on n nodes from an edge list. Duplicate and
// self-loop edges are rejected.
func FromEdges(n int, edges []Edge) (*Graph, error) {
	pairs := make([]int32, 0, 2*len(edges))
	for _, e := range edges {
		if e.U == e.V || min(e.U, e.V) < 0 || max(e.U, e.V) >= n {
			return nil, edgeError(n, edges)
		}
		pairs = append(pairs, int32(e.U), int32(e.V))
	}
	g := fromPairs(n, pairs)
	// A repeated edge shows as two equal neighbors in a sorted row.
	for v := 0; v < n; v++ {
		row := g.row(v)
		for i := 1; i < len(row); i++ {
			if row[i] == row[i-1] {
				return nil, edgeError(n, edges)
			}
		}
	}
	return g, nil
}

// edgeError returns the error of the first edge, in input order, that
// is a self-loop, out of range, or a repeat of an earlier edge. The
// scan needs a set of the edges seen so far, so FromEdges runs it only
// once it knows some edge is bad.
func edgeError(n int, edges []Edge) error {
	seen := make(map[[2]int]bool, len(edges))
	for _, e := range edges {
		u, v := e.U, e.V
		if u == v {
			return fmt.Errorf("graph: self-loop at %d", u)
		}
		if u > v {
			u, v = v, u
		}
		if u < 0 || v >= n {
			return fmt.Errorf("graph: edge {%d,%d} out of range [0,%d)", u, v, n)
		}
		if seen[[2]int{u, v}] {
			return fmt.Errorf("graph: duplicate edge {%d,%d}", u, v)
		}
		seen[[2]int{u, v}] = true
	}
	return nil
}

// row returns v's sorted neighbor row in the flat array.
func (g *Graph) row(v int) []int32 { return g.adj[g.offsets[v]:g.offsets[v+1]] }

// N returns the node count.
func (g *Graph) N() int { return g.n }

// M returns the edge count.
func (g *Graph) M() int { return g.m }

// Degree returns deg(v) from the offset difference alone.
func (g *Graph) Degree(v int) int { return int(g.offsets[v+1] - g.offsets[v]) }

// NeighborAt returns v's neighbor on the given port (its index in the
// ascending neighbor row). It panics when v has no such port.
func (g *Graph) NeighborAt(v, port int) int {
	i := g.offsets[v] + int64(port)
	if port < 0 || i >= g.offsets[v+1] {
		panic(noPortError{v, port, g.Degree(v)})
	}
	return int(g.adj[i])
}

// noPortError is NeighborAt's panic value. It formats only when
// printed, which keeps NeighborAt cheap enough to inline into the
// listing loops that read rows port by port.
type noPortError struct{ v, port, deg int }

func (e noPortError) Error() string {
	return fmt.Sprintf("graph: node %d has no port %d (degree %d)", e.v, e.port, e.deg)
}

// PortOf returns the port of neighbor id as seen from v via binary
// search over v's row, or -1 when not adjacent.
func (g *Graph) PortOf(v, id int) int {
	if id < 0 || int64(id) > math.MaxInt32 {
		return -1
	}
	i, ok := slices.BinarySearch(g.row(v), int32(id))
	if !ok {
		return -1
	}
	return i
}

// HasEdge reports whether {u,v} is present, via binary search.
func (g *Graph) HasEdge(u, v int) bool { return g.PortOf(u, v) >= 0 }

// MaxDegree returns Δ.
func (g *Graph) MaxDegree() int {
	d := 0
	for v := 0; v < g.n; v++ {
		d = max(d, g.Degree(v))
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

// Edges returns all edges with U < V in lexicographic order.
func (g *Graph) Edges() []Edge {
	es := make([]Edge, 0, g.m)
	for u := 0; u < g.n; u++ {
		for _, v := range g.row(u) {
			if u < int(v) {
				es = append(es, Edge{U: u, V: int(v)})
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
	queue := make([]int32, 0, g.n)
	for s := 0; s < g.n; s++ {
		for i := range dist {
			dist[i] = -1
		}
		dist[s] = 0
		queue = append(queue[:0], int32(s))
		seen := 1
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, u := range g.row(int(v)) {
				if dist[u] < 0 {
					dist[u] = dist[v] + 1
					diam = max(diam, dist[u])
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

// Connected reports whether the graph is connected (true for n ≤ 1),
// via a search over the flat rows: O(n+m) time, O(n) extra memory.
func (g *Graph) Connected() bool {
	if g.n <= 1 {
		return true
	}
	seen := make([]bool, g.n)
	stack := make([]int32, 1, 1024)
	seen[0] = true
	cnt := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, u := range g.row(int(v)) {
			if !seen[u] {
				seen[u] = true
				cnt++
				stack = append(stack, u)
			}
		}
	}
	return cnt == g.n
}

// Bytes estimates the resident size of the graph itself: the offset and
// adjacency arrays. The lazy Neighbors cache, if a program forces it,
// adds up to 16 B/node for the table plus the materialized rows.
func (g *Graph) Bytes() int64 { return CSRBytes(g.n, int64(g.m)) }

// CSRBytes is the memory model of a Graph, which the topo registry's
// build budget uses: offsets (8 B per node) plus both directions of
// every edge (4 B each).
func CSRBytes(n int, m int64) int64 { return 8*(int64(n)+1) + 8*m }

// Neighbors returns v's sorted neighbor row as an []int, materialized
// lazily and cached per node; callers must not modify it. Safe for
// concurrent use; the warm path is lock-free.
func (g *Graph) Neighbors(v int) []int {
	t := g.tab.Load()
	if t == nil {
		g.mu.Lock()
		if t = g.tab.Load(); t == nil {
			nt := make([]atomic.Pointer[[]int], g.n)
			t = &nt
			g.tab.Store(t)
		}
		g.mu.Unlock()
	}
	e := &(*t)[v]
	if a := e.Load(); a != nil {
		return *a
	}
	row := g.row(v)
	a := make([]int, len(row))
	for i, u := range row {
		a[i] = int(u)
	}
	// First store wins so the returned slice is stable across calls even
	// under a racing double build (both builds are identical).
	if !e.CompareAndSwap(nil, &a) {
		return *e.Load()
	}
	return a
}
