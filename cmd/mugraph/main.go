// Command mugraph generates and inspects the workload graphs of the
// topology registry (internal/topo): node/edge counts, degree extremes,
// diameter, lazy random-walk mixing time, and triangle count.
//
// Above 65536 nodes the tool switches to the registry's compact
// representation (the flat graph or implicit arithmetic — reported
// with a memory estimate) and skips the superlinear statistics, so
// multi-million-node specs print their shape instead of exhausting
// memory. Specs whose graph exceeds the build budget fail with a clear
// estimate at any size.
//
// -kind takes a registry spec — a bare family name (defaults apply) or
// family:key=value,...:
//
//	mugraph -kind gnp -n 64 -p 0.5
//	mugraph -kind cycliques -k 4 -size 8
//	mugraph -kind torus:rows=8,cols=8
//	mugraph -kind hypercube -dim 7
//	mugraph -kind powerlaw:n=64,attach=3
//	mugraph -kinds                       # list every family and its parameters
//
// Every parameter name the registry declares is also a flag (-n, -p,
// -rows, -dim, ...); an explicitly set flag overrides the spec's
// argument when the family declares that parameter. Unknown families
// or parameters exit non-zero.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"

	"mucongest/internal/clique"
	"mucongest/internal/expander"
	"mucongest/internal/graph"
	"mucongest/internal/topo"
)

func main() {
	kind := flag.String("kind", "gnp", "topology spec: family or family:k=v,...")
	list := flag.Bool("kinds", false, "list the registered families and exit")
	seed := flag.Int64("seed", 1, "random seed")
	// One override flag per distinct parameter name in the registry,
	// applied only when explicitly set and declared by the chosen family.
	declaredBy := map[string][]string{}
	for _, f := range topo.Families() {
		for _, p := range f.Params {
			declaredBy[p.Name] = append(declaredBy[p.Name], f.Name)
		}
	}
	flagFor := map[string]*string{}
	for name, families := range declaredBy {
		flagFor[name] = flag.String(name, "",
			"parameter of "+strings.Join(families, ", ")+" (see -kinds)")
	}
	flag.Parse()

	if *list {
		for _, f := range topo.Families() {
			fmt.Printf("%-10s %s\n", f.Name, f.Doc)
			for _, p := range f.Params {
				fmt.Printf("    %-8s default %-6s %s\n", p.Name, p.Default, p.Doc)
			}
		}
		return
	}

	spec, err := topo.Parse(*kind)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	// Merge explicitly-set flags the chosen family declares; flags
	// irrelevant to the family are ignored, as the pre-registry CLI did.
	for _, f := range topo.Families() {
		if f.Name != spec.Family {
			continue
		}
		for _, p := range f.Params {
			if val := flagFor[p.Name]; val != nil && *val != "" {
				spec = spec.With(p.Name, *val)
			}
		}
	}

	est, err := spec.Estimate()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	// Large specs: build the compact representation (budget-checked, so
	// an over-budget spec errors instead of OOMing) and report shape
	// without the superlinear statistics.
	const largeN = 65536
	printCompact := func() {
		t, err := spec.BuildTopology(rand.New(rand.NewSource(*seed)))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Printf("topo      %s\n", spec)
		fmt.Printf("repr      %s (~%d bytes)\n", est.Repr, est.Bytes)
		fmt.Printf("n         %d\n", t.N())
		if g, ok := t.(*graph.Graph); ok {
			fmt.Printf("m         %d\n", g.M())
			fmt.Printf("maxDeg Δ  %d\n", g.MaxDegree())
			fmt.Printf("avgDeg    %.2f\n", g.AvgDegree())
			fmt.Printf("connected %v\n", g.Connected())
		} else {
			fmt.Printf("m         %d\n", est.M)
		}
		fmt.Println("diameter, τ_mix and triangles skipped (superlinear scans over the adjacency)")
	}
	if est.N > largeN {
		printCompact()
		return
	}

	g, err := spec.Build(rand.New(rand.NewSource(*seed)))
	if err != nil {
		// Families with Build-only caps (complete beyond 2048, hypercube
		// beyond dim 20) and implicit families over the budget still
		// have a compact form: report its shape instead of refusing
		// outright.
		if _, terr := spec.BuildTopology(rand.New(rand.NewSource(*seed))); terr == nil {
			printCompact()
			return
		}
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	fmt.Printf("topo      %s\n", spec)
	fmt.Printf("repr      %s (~%d bytes compact; flat graph built for full stats)\n", est.Repr, est.Bytes)
	fmt.Printf("n         %d\n", g.N())
	fmt.Printf("m         %d\n", g.M())
	fmt.Printf("maxDeg Δ  %d\n", g.MaxDegree())
	fmt.Printf("avgDeg    %.2f\n", g.AvgDegree())
	fmt.Printf("connected %v\n", g.Connected())
	fmt.Printf("diameter  %d\n", g.Diameter())
	fmt.Printf("τ_mix     %d\n", expander.MixingTime(g, 100000))
	fmt.Printf("triangles %d\n", len(clique.ListAll(g, 3)))
}
