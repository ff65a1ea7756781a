package graph

import (
	"math/rand"
	"sync"
	"testing"
)

// csrMatchesGraph asserts the two representations are edge-for-edge and
// port-for-port identical: same n, m, degrees, neighbor rows (in
// order), and NeighborAt and PortOf answers that agree with the row on
// both sides, including -1 for non-neighbors.
func csrMatchesGraph(t *testing.T, name string, c *CSR, g *Graph) {
	t.Helper()
	n := g.N()
	if c.N() != n || c.M() != g.M() {
		t.Fatalf("%s: CSR n=%d m=%d, graph n=%d m=%d", name, c.N(), c.M(), n, g.M())
	}
	for v := 0; v < n; v++ {
		if c.Degree(v) != g.Degree(v) {
			t.Fatalf("%s: node %d degree CSR %d, graph %d", name, v, c.Degree(v), g.Degree(v))
		}
		gn := g.Neighbors(v)
		cn := c.Neighbors(v)
		if len(cn) != len(gn) {
			t.Fatalf("%s: node %d row length CSR %d, graph %d", name, v, len(cn), len(gn))
		}
		for p, u := range gn {
			if cn[p] != u {
				t.Fatalf("%s: node %d port %d: CSR %d, graph %d", name, v, p, cn[p], u)
			}
			if got := c.NeighborAt(v, p); got != u {
				t.Fatalf("%s: CSR NeighborAt(%d,%d) = %d, want %d", name, v, p, got, u)
			}
			if got := g.NeighborAt(v, p); got != u {
				t.Fatalf("%s: graph NeighborAt(%d,%d) = %d, want %d", name, v, p, got, u)
			}
			if got := c.PortOf(v, u); got != p {
				t.Fatalf("%s: CSR PortOf(%d,%d) = %d, want %d", name, v, u, got, p)
			}
			if got := g.PortOf(v, u); got != p {
				t.Fatalf("%s: graph PortOf(%d,%d) = %d, want %d", name, v, u, got, p)
			}
		}
		for _, id := range []int{v, -1, n} {
			if got := c.PortOf(v, id); got != -1 {
				t.Fatalf("%s: CSR PortOf(%d,%d) = %d, want -1", name, v, id, got)
			}
			if got := g.PortOf(v, id); got != -1 {
				t.Fatalf("%s: graph PortOf(%d,%d) = %d, want -1", name, v, id, got)
			}
		}
	}
}

// must unwraps a sampler result whose parameters sit far from the
// sampler's give-up regime.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// TestCSRMatchesExplicit pins every direct CSR constructor against its
// explicit counterpart built with an identically seeded RNG: the draw
// sequences are shared, so the adjacency must be bit-identical.
func TestCSRMatchesExplicit(t *testing.T) {
	seed := func() *rand.Rand { return rand.New(rand.NewSource(99)) }
	cases := []struct {
		name string
		csr  *CSR
		g    *Graph
	}{
		{"cycle", CycleCSR(97), Cycle(97)},
		{"path", PathCSR(41), Path(41)},
		{"star", StarCSR(33), Star(33)},
		{"cycliques", CycleOfCliquesCSR(5, 6), CycleOfCliques(5, 6)},
		{"gnp", GnpCSR(60, 0.3, seed()), Gnp(60, 0.3, seed())},
		{"gnpconn", must(GnpConnectedCSR(40, 0.2, seed())), must(GnpConnected(40, 0.2, seed()))},
		{"hub", HubAndBlobCSR(50, 0.25, seed()), HubAndBlob(50, 0.25, seed())},
		{"barbell", BarbellExpandersCSR(20, 0.4, seed()), BarbellExpanders(20, 0.4, seed())},
		{"regular", must(RandomRegularCSR(48, 5, seed())), must(RandomRegular(48, 5, seed()))},
		{"powerlaw", BarabasiAlbertCSR(300, 3, seed()), BarabasiAlbert(300, 3, seed())},
	}
	for _, tc := range cases {
		csrMatchesGraph(t, tc.name, tc.csr, tc.g)
	}
}

// TestCSRConnected pins Connected on both sides of the truth.
func TestCSRConnected(t *testing.T) {
	if !CycleCSR(50).Connected() {
		t.Error("cycle must be connected")
	}
	if GnpCSR(50, 0, rand.New(rand.NewSource(1))).Connected() {
		t.Error("empty G(50,0) must be disconnected")
	}
	if !GnpCSR(1, 0, rand.New(rand.NewSource(1))).Connected() {
		t.Error("single node is connected")
	}
}

// TestGnpSparseSampler checks the skip-sampling regime above
// gnpDenseLimit: determinism for equal seeds, symmetric well-formed
// adjacency, and an edge count within a loose binomial window.
func TestGnpSparseSampler(t *testing.T) {
	const n = 3000 // > gnpDenseLimit
	const p = 0.001
	a := GnpCSR(n, p, rand.New(rand.NewSource(7)))
	b := GnpCSR(n, p, rand.New(rand.NewSource(7)))
	if a.M() != b.M() {
		t.Fatalf("same seed, different edge counts: %d vs %d", a.M(), b.M())
	}
	for v := 0; v < n; v++ {
		if a.Degree(v) != b.Degree(v) {
			t.Fatalf("same seed, node %d degree %d vs %d", v, a.Degree(v), b.Degree(v))
		}
	}
	exp := p * float64(n) * float64(n-1) / 2 // ≈ 4498
	if m := float64(a.M()); m < exp/2 || m > 2*exp {
		t.Errorf("edge count %v far from expectation %v", m, exp)
	}
	// Symmetry + sortedness + no self-loops via the explicit wrapper,
	// which shares the exact sampler output.
	g := Gnp(n, p, rand.New(rand.NewSource(7)))
	if g.M() != a.M() {
		t.Fatalf("Graph and CSR wrappers disagree: %d vs %d edges", g.M(), a.M())
	}
	csrMatchesGraph(t, "gnp-sparse", a, g)
	for v := 0; v < n; v++ {
		for _, u := range g.Neighbors(v) {
			if u == v {
				t.Fatalf("self-loop at %d", v)
			}
			if !g.HasEdge(u, v) {
				t.Fatalf("asymmetric edge {%d,%d}", v, u)
			}
		}
	}
}

// TestCSRNeighborsConcurrent hammers the lazy Neighbors cache from many
// goroutines (run under -race in CI): every call must return the same
// canonical slice content.
func TestCSRNeighborsConcurrent(t *testing.T) {
	c := BarabasiAlbertCSR(512, 3, rand.New(rand.NewSource(3)))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for v := 0; v < c.N(); v++ {
				nb := c.Neighbors(v)
				if len(nb) != c.Degree(v) {
					t.Errorf("node %d: len(Neighbors)=%d, Degree=%d", v, len(nb), c.Degree(v))
					return
				}
				for p, u := range nb {
					if c.NeighborAt(v, p) != u {
						t.Errorf("node %d port %d mismatch", v, p)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestCSRBytes pins the memory model the topo registry budgets with.
func TestCSRBytes(t *testing.T) {
	c := CycleCSR(1000)
	want := CSRBytes(1000, 1000)
	if c.Bytes() != want {
		t.Fatalf("Bytes() = %d, want %d", c.Bytes(), want)
	}
	if want != 8*1001+8*1000 {
		t.Fatalf("CSRBytes(1000,1000) = %d", want)
	}
}
