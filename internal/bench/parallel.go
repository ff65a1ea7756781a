package bench

import (
	"fmt"
	"hash/fnv"
	"sync"

	"mucongest/internal/topo"
)

// Spec describes one independently runnable experiment cell: the grid of
// README.md’s experiment map decomposed into units a worker pool can schedule. ID
// names the cell (and feeds per-cell seed derivation); Exps lists the
// experiment ids (E1..E13) the cell reproduces, so cmd/muexp can select
// cells by experiment; Topo is the topology spec of the cell's workload
// graph (OverrideTopo substitutes another, re-running the experiment on
// any registered family).
type Spec struct {
	ID   string
	Exps []string
	Topo string
	Run  func(tp topo.Spec, seed int64) *Table
}

// Specs returns the full experiment grid at cmd/muexp's default scales,
// one Spec per table.
func Specs() []Spec {
	return []Spec{
		{"E1/E2-k3", []string{"E1", "E2"}, "gnp:n=48,p=0.5",
			func(tp topo.Spec, s int64) *Table { return E1E2(tp, 3, s) }},
		{"E1/E2-k4", []string{"E1", "E2"}, "gnp:n=36,p=0.5",
			func(tp topo.Spec, s int64) *Table { return E1E2(tp, 4, s) }},
		{"E3", []string{"E3"}, "gnp:n=96,p=0.5", E3},
		{"E4/E5", []string{"E4", "E5"}, "cycliques:k=4,size=8", E4E5},
		{"E6", []string{"E6"}, "hub:n=20,p=0.4", E6},
		{"E7", []string{"E7"}, "gnp:n=24,p=0.15,conn=1", E7},
		{"E8", []string{"E8"}, "gnp:n=24,p=0.15,conn=1", E8},
		{"E9", []string{"E9"}, "gnp:n=24,p=0.15,conn=1", E9},
		{"E10", []string{"E10"}, "gnp:n=32,p=0.5", E10},
		{"E11/E12", []string{"E11", "E12"}, "gnp:n=40,p=0.5", E11E12},
		{"E13", []string{"E13"}, "gnp:n=24,p=0.15,conn=1", E13},
	}
}

// OverrideTopo returns a copy of specs with every cell's workload
// topology replaced by tp — the substance of muexp's -topo flag. Cell
// ids (and therefore cell seeds) are unchanged, so records stay
// comparable across topologies.
func OverrideTopo(specs []Spec, tp topo.Spec) []Spec {
	out := make([]Spec, len(specs))
	copy(out, specs)
	for i := range out {
		out[i].Topo = tp.String()
	}
	return out
}

// SelectSpecs returns the cells of specs that reproduce experiment exp,
// or all of them for "all". The boolean reports whether exp was known.
func SelectSpecs(specs []Spec, exp string) ([]Spec, bool) {
	if exp == "all" {
		return specs, true
	}
	var out []Spec
	for _, sp := range specs {
		for _, e := range sp.Exps {
			if e == exp {
				out = append(out, sp)
				break
			}
		}
	}
	return out, len(out) > 0
}

// ExperimentIDs returns the sorted-by-grid-order list of experiment ids
// covered by specs, without duplicates.
func ExperimentIDs(specs []Spec) []string {
	seen := map[string]bool{}
	var out []string
	for _, sp := range specs {
		for _, e := range sp.Exps {
			if !seen[e] {
				seen[e] = true
				out = append(out, e)
			}
		}
	}
	return out
}

// CellSeed derives the deterministic seed of cell id from the root seed:
// an FNV-1a hash of the id mixed into the root through a splitmix64
// finalizer. The derivation depends only on (root, id) — never on worker
// count or execution order — so every cell sees the same seed whether
// the grid runs serially or on a pool.
func CellSeed(root int64, id string) int64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	x := uint64(root) ^ h.Sum64()
	x += 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x)
}

// runCell executes one cell with its derived seed and resolved topology
// spec, then stamps the cell identity onto every emitted record.
func runCell(sp Spec, rootSeed int64) *Table {
	seed := CellSeed(rootSeed, sp.ID)
	t := sp.Run(topo.MustParse(sp.Topo), seed)
	for i := range t.Records {
		t.Records[i].Cell = sp.ID
		t.Records[i].Seed = seed
		t.Records[i].Row = i
	}
	return t
}

// RunSerial executes the cells one after another in grid order — the
// reference implementation the pool must be indistinguishable from.
func RunSerial(specs []Spec, rootSeed int64) []*Table {
	tables := make([]*Table, len(specs))
	for i, sp := range specs {
		tables[i] = runCell(sp, rootSeed)
	}
	return tables
}

// RunParallel executes the cells on a pool of `workers` goroutines.
// Results land in grid order and every cell runs with its CellSeed, so
// the returned tables — rendered text and structured records alike —
// are identical to RunSerial's for any worker count; only the
// wall-clock changes. The experiment runners panic on an engine error
// or an unsuitable topology; RunParallel recovers each cell's panic
// and, once every worker has exited, returns the error of the
// lowest-index failing cell, so the error too is the same at any
// worker count.
func RunParallel(specs []Spec, rootSeed int64, workers int) ([]*Table, error) {
	if workers > len(specs) {
		workers = len(specs)
	}
	if workers < 1 {
		workers = 1
	}
	tables := make([]*Table, len(specs))
	errs := make([]error, len(specs))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				tables[i], errs[i] = tryCell(specs[i], rootSeed)
			}
		}()
	}
	for i := range specs {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return tables, nil
}

// tryCell is runCell with the cell's panic reported as its error.
func tryCell(sp Spec, rootSeed int64) (t *Table, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("cell %s: %v", sp.ID, p)
		}
	}()
	return runCell(sp, rootSeed), nil
}
