package graph

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
)

// CSR is the compact sparse-row representation of an undirected graph:
// one flat neighbor array plus one offset array, nothing per-node. It
// is the engine-scale counterpart of *Graph — identical adjacency
// (rows sorted ascending, so ports agree), a fraction of the memory
// (12 bytes per directed edge end + 8 per node instead of a Go slice
// per node), and cache-friendly sequential layout for the delivery
// loop. CSR implements sim.Topology, whose Degree, NeighborAt and
// PortOf it answers from the flat rows, so the engine never needs to
// materialize a neighbor slice for it.
//
// Node ids are stored as int32: a CSR graph holds at most 2^31-1
// nodes, far beyond the 1M–10M node target.
type CSR struct {
	n       int
	m       int
	offsets []int64 // len n+1; row v is adj[offsets[v]:offsets[v+1]], sorted
	adj     []int32

	// Neighbors materializes []int rows only on demand (the engine
	// itself never calls it, only programs asking Ctx.Neighbors do).
	// The cache table is published once via tab, entries once via
	// CompareAndSwap, so the warm path is lock-free and every caller
	// sees one canonical slice per node.
	mu  sync.Mutex
	tab atomic.Pointer[[]atomic.Pointer[[]int]]
}

// fromPairs builds a CSR graph on n nodes from a flat undirected edge
// list (u0,v0,u1,v1,...) by counting sort. The input is trusted: no
// self-loops, no duplicate edges, every id in [0,n). All generators in
// this package emit such lists.
func fromPairs(n int, pairs []int32) *CSR {
	if n < 0 || int64(n) > math.MaxInt32 {
		panic(fmt.Sprintf("graph: CSR supports 0 ≤ n ≤ %d nodes, got %d", math.MaxInt32, n))
	}
	m := len(pairs) / 2
	c := &CSR{n: n, m: m, offsets: make([]int64, n+1), adj: make([]int32, 2*m)}
	for _, v := range pairs {
		c.offsets[v+1]++
	}
	for v := 0; v < n; v++ {
		c.offsets[v+1] += c.offsets[v]
	}
	cur := make([]int64, n)
	copy(cur, c.offsets[:n])
	for i := 0; i < len(pairs); i += 2 {
		u, v := pairs[i], pairs[i+1]
		c.adj[cur[u]] = v
		cur[u]++
		c.adj[cur[v]] = u
		cur[v]++
	}
	for v := 0; v < n; v++ {
		slices.Sort(c.adj[c.offsets[v]:c.offsets[v+1]])
	}
	return c
}

// N returns the node count.
func (c *CSR) N() int { return c.n }

// M returns the edge count.
func (c *CSR) M() int { return c.m }

// Degree returns deg(v) from the offset difference alone.
func (c *CSR) Degree(v int) int { return int(c.offsets[v+1] - c.offsets[v]) }

// NeighborAt returns v's neighbor on the given port (its index in the
// ascending neighbor row).
func (c *CSR) NeighborAt(v, port int) int {
	i := c.offsets[v] + int64(port)
	if port < 0 || i >= c.offsets[v+1] {
		panic(fmt.Sprintf("graph: node %d has no port %d (degree %d)", v, port, c.Degree(v)))
	}
	return int(c.adj[i])
}

// PortOf returns the port of neighbor id as seen from v via binary
// search over v's row, or -1 when not adjacent.
func (c *CSR) PortOf(v, id int) int {
	if id < 0 || int64(id) > math.MaxInt32 {
		return -1
	}
	row := c.adj[c.offsets[v]:c.offsets[v+1]]
	i, ok := slices.BinarySearch(row, int32(id))
	if !ok {
		return -1
	}
	return i
}

// HasEdge reports whether {u,v} is present.
func (c *CSR) HasEdge(u, v int) bool { return c.PortOf(u, v) >= 0 }

// MaxDegree returns Δ.
func (c *CSR) MaxDegree() int {
	d := 0
	for v := 0; v < c.n; v++ {
		if dv := c.Degree(v); dv > d {
			d = dv
		}
	}
	return d
}

// AvgDegree returns 2m/n.
func (c *CSR) AvgDegree() float64 {
	if c.n == 0 {
		return 0
	}
	return 2 * float64(c.m) / float64(c.n)
}

// Connected reports whether the graph is connected (true for n ≤ 1),
// via BFS over the flat rows — O(n+m) time, O(n) extra memory.
func (c *CSR) Connected() bool {
	if c.n <= 1 {
		return true
	}
	seen := make([]bool, c.n)
	queue := make([]int32, 1, 1024)
	queue[0] = 0
	seen[0] = true
	cnt := 1
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, u := range c.adj[c.offsets[v]:c.offsets[v+1]] {
			if !seen[u] {
				seen[u] = true
				cnt++
				queue = append(queue, u)
			}
		}
	}
	return cnt == c.n
}

// Bytes estimates the resident size of the representation itself: the
// offset and adjacency arrays (the lazy Neighbors cache, if a program
// forces it, adds up to 16 B/node for the table plus the materialized
// rows).
func (c *CSR) Bytes() int64 { return CSRBytes(c.n, int64(c.m)) }

// CSRBytes is the CSR memory model used by the topo registry's build
// budget: offsets (8 B per node) plus both directions of every edge
// (4 B each).
func CSRBytes(n int, m int64) int64 { return 8*(int64(n)+1) + 8*m }

// Neighbors returns v's neighbor row as an []int, materialized lazily
// and cached per node; callers must not modify it. Safe for concurrent
// use; the warm path is lock-free.
func (c *CSR) Neighbors(v int) []int {
	t := c.tab.Load()
	if t == nil {
		c.mu.Lock()
		if t = c.tab.Load(); t == nil {
			nt := make([]atomic.Pointer[[]int], c.n)
			t = &nt
			c.tab.Store(t)
		}
		c.mu.Unlock()
	}
	e := &(*t)[v]
	if a := e.Load(); a != nil {
		return *a
	}
	row := c.adj[c.offsets[v]:c.offsets[v+1]]
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
