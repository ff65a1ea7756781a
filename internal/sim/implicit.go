package sim

import (
	"fmt"
	"math/bits"
)

// This file holds the arithmetic (implicit) topologies beyond Complete:
// grid, torus and hypercube. Like Complete they store no adjacency at
// all — O(1) memory at any node count — and answer Degree, NeighborAt
// and PortOf from arithmetic, so the engine never touches a
// materialized neighbor list. Port numbering follows the repository
// convention everywhere: ports index the ascending-sorted neighbor id
// list, exactly as the flat graph.Grid / graph.Torus /
// graph.Hypercube counterparts sort their adjacency — the two
// representations of a family are port-for-port interchangeable (the
// repr tests pin this).

// Grid is the implicit rows×cols grid: node (r,c) has id r·cols+c and
// is adjacent to its horizontal and vertical neighbors.
type Grid struct {
	rows, cols int
	nbrs       lazyNbrs
}

// NewGrid returns the implicit grid topology; rows, cols ≥ 1.
func NewGrid(rows, cols int) *Grid {
	if rows < 1 || cols < 1 {
		panic("sim: NewGrid needs rows, cols ≥ 1")
	}
	return &Grid{rows: rows, cols: cols}
}

// N returns rows·cols.
func (g *Grid) N() int { return g.rows * g.cols }

// neigh appends v's neighbor ids in ascending order (up, left, right,
// down — the candidates are strictly increasing) to a caller-provided
// array and returns the count.
func (g *Grid) neigh(v int, out *[4]int) int {
	r, c := v/g.cols, v%g.cols
	d := 0
	if r > 0 {
		out[d] = v - g.cols
		d++
	}
	if c > 0 {
		out[d] = v - 1
		d++
	}
	if c+1 < g.cols {
		out[d] = v + 1
		d++
	}
	if r+1 < g.rows {
		out[d] = v + g.cols
		d++
	}
	return d
}

// Degree returns the number of grid neighbors (2, 3 or 4; less on
// degenerate 1-wide grids).
func (g *Grid) Degree(v int) int {
	var b [4]int
	return g.neigh(v, &b)
}

// NeighborAt returns v's neighbor on the given port.
func (g *Grid) NeighborAt(v, port int) int {
	var b [4]int
	d := g.neigh(v, &b)
	if port < 0 || port >= d {
		panic(fmt.Sprintf("sim: grid node %d has no port %d (degree %d)", v, port, d))
	}
	return b[port]
}

// PortOf returns the port of neighbor id as seen from v, or -1.
func (g *Grid) PortOf(v, id int) int {
	var b [4]int
	d := g.neigh(v, &b)
	for p := 0; p < d; p++ {
		if b[p] == id {
			return p
		}
	}
	return -1
}

// Neighbors materializes v's neighbor slice lazily (cached per node;
// warm calls are lock-free). Callers must not modify it.
func (g *Grid) Neighbors(v int) []int {
	return g.nbrs.get(g.N(), v, func(v int) []int {
		var b [4]int
		d := g.neigh(v, &b)
		a := make([]int, d)
		copy(a, b[:d])
		return a
	})
}

// Torus is the implicit rows×cols grid with wraparound in both
// dimensions: every node has degree exactly 4. Both dimensions must be
// at least 3 (the same constraint as graph.Torus, which guarantees the
// four neighbor ids are distinct).
type Torus struct {
	rows, cols int
	nbrs       lazyNbrs
}

// NewTorus returns the implicit torus topology; rows, cols ≥ 3.
func NewTorus(rows, cols int) *Torus {
	if rows < 3 || cols < 3 {
		panic("sim: NewTorus needs rows, cols ≥ 3")
	}
	return &Torus{rows: rows, cols: cols}
}

// N returns rows·cols.
func (t *Torus) N() int { return t.rows * t.cols }

// Degree returns 4 for every node.
func (t *Torus) Degree(v int) int { return 4 }

// neigh fills out with v's four neighbor ids in ascending order.
func (t *Torus) neigh(v int, out *[4]int) {
	r, c := v/t.cols, v%t.cols
	out[0] = ((r-1+t.rows)%t.rows)*t.cols + c
	out[1] = r*t.cols + (c-1+t.cols)%t.cols
	out[2] = r*t.cols + (c+1)%t.cols
	out[3] = ((r+1)%t.rows)*t.cols + c
	// Sorting network over the four (distinct) ids.
	if out[0] > out[1] {
		out[0], out[1] = out[1], out[0]
	}
	if out[2] > out[3] {
		out[2], out[3] = out[3], out[2]
	}
	if out[0] > out[2] {
		out[0], out[2] = out[2], out[0]
	}
	if out[1] > out[3] {
		out[1], out[3] = out[3], out[1]
	}
	if out[1] > out[2] {
		out[1], out[2] = out[2], out[1]
	}
}

// NeighborAt returns v's neighbor on the given port.
func (t *Torus) NeighborAt(v, port int) int {
	if port < 0 || port >= 4 {
		panic(fmt.Sprintf("sim: torus node %d has no port %d (degree 4)", v, port))
	}
	var b [4]int
	t.neigh(v, &b)
	return b[port]
}

// PortOf returns the port of neighbor id as seen from v, or -1.
func (t *Torus) PortOf(v, id int) int {
	var b [4]int
	t.neigh(v, &b)
	for p := 0; p < 4; p++ {
		if b[p] == id {
			return p
		}
	}
	return -1
}

// Neighbors materializes v's neighbor slice lazily (cached per node;
// warm calls are lock-free). Callers must not modify it.
func (t *Torus) Neighbors(v int) []int {
	return t.nbrs.get(t.N(), v, func(v int) []int {
		var b [4]int
		t.neigh(v, &b)
		a := make([]int, 4)
		copy(a, b[:])
		return a
	})
}

// Hypercube is the implicit dim-dimensional hypercube on 2^dim nodes:
// ids are adjacent iff they differ in exactly one bit.
//
// Ascending neighbor order means: first the neighbors below v (v with
// one set bit cleared — clearing a higher bit yields a smaller id, so
// set bits are visited from high to low), then the neighbors above v
// (one clear bit set, from low to high).
type Hypercube struct {
	dim  int
	nbrs lazyNbrs
}

// NewHypercube returns the implicit hypercube topology; 1 ≤ dim ≤ 30.
func NewHypercube(dim int) *Hypercube {
	if dim < 1 || dim > 30 {
		panic("sim: NewHypercube needs 1 ≤ dim ≤ 30")
	}
	return &Hypercube{dim: dim}
}

// N returns 2^dim.
func (h *Hypercube) N() int { return 1 << h.dim }

// Degree returns dim for every node.
func (h *Hypercube) Degree(v int) int { return h.dim }

// NeighborAt returns v's neighbor on the given port.
func (h *Hypercube) NeighborAt(v, port int) int {
	if port < 0 || port >= h.dim {
		panic(fmt.Sprintf("sim: hypercube node %d has no port %d (degree %d)", v, port, h.dim))
	}
	k := bits.OnesCount32(uint32(v))
	if port < k {
		// The port-th highest set bit, cleared.
		u := uint32(v)
		for i := 0; i < port; i++ {
			u &^= 1 << (31 - bits.LeadingZeros32(u))
		}
		return v &^ (1 << (31 - bits.LeadingZeros32(u)))
	}
	// The (port-k)-th lowest clear bit (within dim), set.
	u := ^uint32(v) & (1<<h.dim - 1)
	for i := k; i < port; i++ {
		u &= u - 1
	}
	return v | int(u&-u)
}

// PortOf returns the port of neighbor id as seen from v, or -1.
func (h *Hypercube) PortOf(v, id int) int {
	b := v ^ id
	if id < 0 || id >= h.N() || b == 0 || b&(b-1) != 0 {
		return -1
	}
	pos := bits.TrailingZeros32(uint32(b))
	if v&b != 0 {
		// id < v: ports count v's set bits from high to low.
		return bits.OnesCount32(uint32(v) >> (pos + 1))
	}
	// id > v: after the k down-ports, clear bits from low to high.
	k := bits.OnesCount32(uint32(v))
	return k + pos - bits.OnesCount32(uint32(v)&uint32(b-1))
}

// Neighbors materializes v's neighbor slice lazily (cached per node;
// warm calls are lock-free). Callers must not modify it.
func (h *Hypercube) Neighbors(v int) []int {
	return h.nbrs.get(h.N(), v, func(v int) []int {
		a := make([]int, h.dim)
		for p := range a {
			a[p] = h.NeighborAt(v, p)
		}
		return a
	})
}
