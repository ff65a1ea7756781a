package topo

import (
	"fmt"
	"math"
	"math/rand"

	"mucongest/internal/graph"
	"mucongest/internal/sim"
)

// maxNodes bounds the node count of a family whose count is a product
// of parameters (cycliques, barbell, grid, torus): graph.Graph's node
// limit. Check compares by division, so the product cannot wrap before
// the comparison.
const maxNodes = math.MaxInt32

// estEdges converts a float edge-count projection to int64, clamped so
// downstream byte arithmetic cannot overflow on absurd parameters (the
// budget check rejects those specs long before the clamp matters).
func estEdges(x float64) int64 {
	const lim = int64(1) << 55
	if x > float64(lim) {
		return lim
	}
	return int64(x)
}

// registry lists every family in declaration order. Spec.String renders
// parameters in the order declared here, so keep parameter order
// meaningful (size first, then shape knobs). The four families with an
// implicit topology (grid, torus, hypercube, complete) are the only
// ones with a Topo view; it is edge-for-edge and port-for-port
// identical to their Build graph. Of those, the families whose graph is
// inherently quadratic (complete) or exponential (hypercube) keep
// documented caps on Build only; Topo lifts them.
var registry = []Family{
	{
		Name: "gnp",
		Doc:  "Erdős–Rényi G(n,p); conn=1 resamples until connected",
		Params: []Param{
			{"n", "48", "node count", KindInt},
			{"p", "0.5", "edge probability", KindFloat},
			{"conn", "0", "resample until connected (0/1)", KindBool},
		},
		Check: func(v *Values) error {
			n, p, conn := v.Int("n"), v.Float("p"), v.Bool("conn")
			if err := v.Err(); err != nil {
				return err
			}
			switch {
			case n < 1:
				return fmt.Errorf("topo: gnp needs n ≥ 1")
			case p < 0 || p > 1:
				return fmt.Errorf("topo: gnp needs 0 ≤ p ≤ 1")
			case conn && n > 1 && p == 0:
				return fmt.Errorf("topo: gnp with conn=1 needs p > 0")
			}
			return nil
		},
		Build: func(v *Values, rng *rand.Rand) (*graph.Graph, error) {
			n, p := v.Int("n"), v.Float("p")
			if !v.Bool("conn") {
				return graph.Gnp(n, p, rng), nil
			}
			g, err := graph.GnpConnected(n, p, rng)
			return g, v.gaveUp(err)
		},
		Estimate: func(v *Values) Estimate {
			n, p := v.Int("n"), v.Float("p")
			return csrEstimate(n, estEdges(p*float64(n)*float64(n-1)/2))
		},
	},
	{
		Name: "cycliques",
		Doc:  "k cliques of size `size` joined in a cycle (Thm 1.4 instance)",
		Params: []Param{
			{"k", "4", "number of cliques (≥ 3)", KindInt},
			{"size", "8", "clique size (≥ 2)", KindInt},
		},
		Check: func(v *Values) error {
			k, size := v.Int("k"), v.Int("size")
			if err := v.Err(); err != nil {
				return err
			}
			switch {
			case k < 3 || size < 2:
				return fmt.Errorf("topo: cycliques needs k ≥ 3, size ≥ 2")
			case size > maxNodes/k:
				return fmt.Errorf("topo: cycliques needs k·size ≤ %d nodes", maxNodes)
			}
			return nil
		},
		Build: func(v *Values, rng *rand.Rand) (*graph.Graph, error) {
			return graph.CycleOfCliques(v.Int("k"), v.Int("size")), nil
		},
		Estimate: func(v *Values) Estimate {
			k, size := v.Int("k"), v.Int("size")
			m := int64(k) * (int64(size)*int64(size-1)/2 + 1)
			return csrEstimate(k*size, m)
		},
	},
	{
		Name: "hub",
		Doc:  "designated max-degree hub over a G(n-1,p) blob",
		Params: []Param{
			{"n", "48", "node count", KindInt},
			{"p", "0.3", "blob edge probability", KindFloat},
		},
		Check: func(v *Values) error {
			n, p := v.Int("n"), v.Float("p")
			if err := v.Err(); err != nil {
				return err
			}
			switch {
			case n < 2:
				return fmt.Errorf("topo: hub needs n ≥ 2")
			case p < 0 || p > 1:
				return fmt.Errorf("topo: hub needs 0 ≤ p ≤ 1")
			}
			return nil
		},
		Build: func(v *Values, rng *rand.Rand) (*graph.Graph, error) {
			return graph.HubAndBlob(v.Int("n"), v.Float("p"), rng), nil
		},
		Estimate: func(v *Values) Estimate {
			n, p := v.Int("n"), v.Float("p")
			m := float64(n-1) + p*float64(n-1)*float64(n-2)/2
			return csrEstimate(n, estEdges(m))
		},
	},
	{
		Name: "regular",
		Doc:  "random d-regular graph (pairing model with switch repair)",
		Params: []Param{
			{"n", "48", "node count", KindInt},
			{"d", "8", "degree (n·d even, d < n)", KindInt},
		},
		Check: func(v *Values) error {
			n, d := v.Int("n"), v.Int("d")
			if err := v.Err(); err != nil {
				return err
			}
			if d < 1 || d >= n || n*d%2 != 0 {
				return fmt.Errorf("topo: regular needs 1 ≤ d < n with n·d even")
			}
			return nil
		},
		Build: func(v *Values, rng *rand.Rand) (*graph.Graph, error) {
			g, err := graph.RandomRegular(v.Int("n"), v.Int("d"), rng)
			return g, v.gaveUp(err)
		},
		Estimate: func(v *Values) Estimate {
			n, d := v.Int("n"), v.Int("d")
			return csrEstimate(n, int64(n)*int64(d)/2)
		},
	},
	{
		Name:   "star",
		Doc:    "star with center 0 (extreme max degree)",
		Params: []Param{{"n", "48", "node count", KindInt}},
		Check:  minNodes(2),
		Build: func(v *Values, rng *rand.Rand) (*graph.Graph, error) {
			return graph.Star(v.Int("n")), nil
		},
		Estimate: func(v *Values) Estimate {
			n := v.Int("n")
			return csrEstimate(n, int64(n-1))
		},
	},
	{
		Name: "barbell",
		Doc:  "two G(size,p) blobs joined by one bridge edge (low conductance)",
		Params: []Param{
			{"size", "24", "nodes per blob", KindInt},
			{"p", "0.5", "blob edge probability", KindFloat},
		},
		Check: func(v *Values) error {
			size, p := v.Int("size"), v.Float("p")
			if err := v.Err(); err != nil {
				return err
			}
			switch {
			case size < 1:
				return fmt.Errorf("topo: barbell needs size ≥ 1")
			case size > maxNodes/2:
				return fmt.Errorf("topo: barbell needs 2·size ≤ %d nodes", maxNodes)
			case p < 0 || p > 1:
				return fmt.Errorf("topo: barbell needs 0 ≤ p ≤ 1")
			}
			return nil
		},
		Build: func(v *Values, rng *rand.Rand) (*graph.Graph, error) {
			return graph.BarbellExpanders(v.Int("size"), v.Float("p"), rng), nil
		},
		Estimate: func(v *Values) Estimate {
			size, p := v.Int("size"), v.Float("p")
			m := p*float64(size)*float64(size-1) + 1
			return csrEstimate(2*size, estEdges(m))
		},
	},
	{
		Name:   "path",
		Doc:    "path 0-1-...-(n-1) (extreme diameter)",
		Params: []Param{{"n", "48", "node count", KindInt}},
		Check:  minNodes(1),
		Build: func(v *Values, rng *rand.Rand) (*graph.Graph, error) {
			return graph.Path(v.Int("n")), nil
		},
		Estimate: func(v *Values) Estimate {
			n := v.Int("n")
			return csrEstimate(n, int64(n-1))
		},
	},
	{
		Name:   "cycle",
		Doc:    "n-node cycle",
		Params: []Param{{"n", "48", "node count (≥ 3)", KindInt}},
		Check:  minNodes(3),
		Build: func(v *Values, rng *rand.Rand) (*graph.Graph, error) {
			return graph.Cycle(v.Int("n")), nil
		},
		Estimate: func(v *Values) Estimate {
			n := v.Int("n")
			return csrEstimate(n, int64(n))
		},
	},
	{
		Name: "grid",
		Doc:  "rows×cols grid (implicit O(1) topology via sim.NewGrid)",
		Params: []Param{
			{"rows", "8", "grid rows", KindInt},
			{"cols", "8", "grid columns", KindInt},
		},
		Check: minSides(1),
		Build: func(v *Values, rng *rand.Rand) (*graph.Graph, error) {
			return graph.Grid(v.Int("rows"), v.Int("cols")), nil
		},
		Topo: func(v *Values, rng *rand.Rand) (sim.Topology, error) {
			return sim.NewGrid(v.Int("rows"), v.Int("cols")), nil
		},
		Estimate: func(v *Values) Estimate {
			rows, cols := v.Int("rows"), v.Int("cols")
			m := int64(rows)*int64(cols-1) + int64(cols)*int64(rows-1)
			return implicitEstimate(rows*cols, m)
		},
	},
	{
		Name: "torus",
		Doc:  "rows×cols grid with wraparound (4-regular; implicit O(1) topology via sim.NewTorus)",
		Params: []Param{
			{"rows", "8", "torus rows (≥ 3)", KindInt},
			{"cols", "8", "torus columns (≥ 3)", KindInt},
		},
		Check: minSides(3),
		Build: func(v *Values, rng *rand.Rand) (*graph.Graph, error) {
			return graph.Torus(v.Int("rows"), v.Int("cols")), nil
		},
		Topo: func(v *Values, rng *rand.Rand) (sim.Topology, error) {
			return sim.NewTorus(v.Int("rows"), v.Int("cols")), nil
		},
		Estimate: func(v *Values) Estimate {
			rows, cols := v.Int("rows"), v.Int("cols")
			return implicitEstimate(rows*cols, 2*int64(rows)*int64(cols))
		},
	},
	{
		Name:   "hypercube",
		Doc:    "dim-dimensional hypercube on 2^dim nodes (implicit topology up to dim=30; explicit Build caps at 20)",
		Params: []Param{{"dim", "6", "dimension (1..30; explicit Build 1..20)", KindInt}},
		Check: func(v *Values) error {
			dim := v.Int("dim")
			if err := v.Err(); err != nil {
				return err
			}
			if dim < 1 || dim > 30 {
				return fmt.Errorf("topo: hypercube needs 1 ≤ dim ≤ 30")
			}
			return nil
		},
		Build: func(v *Values, rng *rand.Rand) (*graph.Graph, error) {
			dim := v.Int("dim")
			if dim > 20 {
				return nil, fmt.Errorf("topo: hypercube needs 1 ≤ dim ≤ 20 (explicit adjacency; the implicit topology goes to 30)")
			}
			return graph.Hypercube(dim), nil
		},
		Topo: func(v *Values, rng *rand.Rand) (sim.Topology, error) {
			return sim.NewHypercube(v.Int("dim")), nil
		},
		Estimate: func(v *Values) Estimate {
			dim := v.Int("dim")
			return implicitEstimate(1<<dim, int64(dim)<<(dim-1))
		},
	},
	{
		Name: "complete",
		Doc:  "complete graph K_n (implicit O(1) topology via sim.NewComplete; explicit Build caps at 2048)",
		Params: []Param{
			{"n", "48", "node count (explicit Build 1..2048; implicit topology any n)", KindInt},
		},
		Check: minNodes(1),
		Build: func(v *Values, rng *rand.Rand) (*graph.Graph, error) {
			n := v.Int("n")
			if n > 2048 {
				return nil, fmt.Errorf("topo: complete needs 1 ≤ n ≤ 2048 (K_n materializes n² adjacency; BuildTopology/sim.NewComplete is O(1) at any n)")
			}
			return graph.Complete(n), nil
		},
		Topo: func(v *Values, rng *rand.Rand) (sim.Topology, error) {
			return sim.NewComplete(v.Int("n")), nil
		},
		Estimate: func(v *Values) Estimate {
			n := v.Int("n")
			return implicitEstimate(n, estEdges(float64(n)*float64(n-1)/2))
		},
	},
	{
		Name: "powerlaw",
		Doc:  "Barabási–Albert preferential attachment (power-law degrees)",
		Params: []Param{
			{"n", "48", "node count", KindInt},
			{"attach", "3", "edges per new node (1 ≤ attach < n)", KindInt},
		},
		Check: func(v *Values) error {
			n, attach := v.Int("n"), v.Int("attach")
			if err := v.Err(); err != nil {
				return err
			}
			if attach < 1 || n <= attach {
				return fmt.Errorf("topo: powerlaw needs n > attach ≥ 1")
			}
			return nil
		},
		Build: func(v *Values, rng *rand.Rand) (*graph.Graph, error) {
			return graph.BarabasiAlbert(v.Int("n"), v.Int("attach"), rng), nil
		},
		Estimate: func(v *Values) Estimate {
			n, attach := v.Int("n"), v.Int("attach")
			a := int64(attach)
			return csrEstimate(n, a*(a+1)/2+int64(n-1-attach)*a)
		},
	},
}

// minNodes is the Check of a family whose one parameter is its node
// count n.
func minNodes(least int) func(*Values) error {
	return func(v *Values) error {
		n := v.Int("n")
		if err := v.Err(); err != nil {
			return err
		}
		if n < least {
			return fmt.Errorf("topo: %s needs n ≥ %d", v.f.Name, least)
		}
		return nil
	}
}

// minSides is the Check of a rows×cols lattice family: least bounds
// each side, maxNodes their product.
func minSides(least int) func(*Values) error {
	return func(v *Values) error {
		rows, cols := v.Int("rows"), v.Int("cols")
		if err := v.Err(); err != nil {
			return err
		}
		switch {
		case rows < least || cols < least:
			return fmt.Errorf("topo: %s needs rows, cols ≥ %d", v.f.Name, least)
		case rows > maxNodes/cols:
			return fmt.Errorf("topo: %s needs rows·cols ≤ %d nodes", v.f.Name, maxNodes)
		}
		return nil
	}
}
