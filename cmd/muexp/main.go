// Command muexp runs the paper-reproduction experiments (EXPERIMENTS.md,
// experiments E1–E13) and emits one table per experiment with theory
// vs measured columns, or the structured run records as CSV/JSON.
//
// Usage:
//
//	muexp [-seed N] [-exp E3] [-parallel N] [-simworkers N] [-format table|csv|json] [-out FILE] [-topo SPEC]
//	      [-engine SPEC] [-enginerounds N] [-enginemode step|goroutine] [-faults SPEC]
//	      [-cpuprofile FILE] [-memprofile FILE]
//
// By default every experiment runs, spread over a worker pool of
// GOMAXPROCS goroutines. Each table cell derives its own seed from
// -seed, so the output — rendered tables and serialized records alike —
// is byte-identical for every -parallel value.
//
// -parallel controls how many experiment cells run concurrently;
// -simworkers controls how many delivery workers each simulation engine
// shards its round loop across (sim.WithSimWorkers). Engine results are
// bit-for-bit identical for every -simworkers value; both flags must be
// ≥ 1.
//
// -format selects the emitter: "table" renders the human-readable
// tables; "csv" and "json" serialize the structured bench.Records
// (schema mucongest.records/v1). -out writes to a file instead of
// stdout. -topo re-runs the selected experiments on any registered
// topology family, e.g. -topo torus:rows=8,cols=8 (see `mugraph -kinds`
// for the registry).
//
// -engine SPEC bypasses the experiment sweep entirely and runs the raw
// engine broadcast workload (internal/bench.BroadcastProgram /
// BroadcastSteps — the same code the BenchmarkEngineRound* cells time)
// on the named topology, printing one summary line with nodes, rounds,
// messages and wall-clock. -enginemode selects the execution form:
// "step" (default) drives state machines inline in the delivery
// workers; "goroutine" runs the classic blocking program (the name is
// historical: the program now runs as a coroutine the workers resume).
// Both produce identical results; only wall-clock differs. This
// is the CLI hook for scale smokes the benchmark harness is too heavy
// for, e.g. a one-million-node round loop:
//
//	muexp -engine cycle:n=1048576 -enginemode step -enginerounds 2
//
// -faults applies a seeded fault plan (sim.ParseFaults: message loss,
// node crash/restart, edge churn) to the -engine workload and appends
// the fault ledger to the summary line, e.g.:
//
//	muexp -engine cycle:n=4096 -faults loss:p=0.01+crash:p=0.001,restart=5
//
// A malformed spec is a usage error (exit 2). The experiment sweep does
// not take -faults: its fault plans are part of the experiment
// definitions (E13 sweeps message-loss rates internally and records
// each run's fault spec in its params).
// -cpuprofile and -memprofile write runtime/pprof profiles of the real
// experiment sweep (engine hot paths included), for `go tool pprof`.
// Unwritable profile paths are usage errors (exit 2).
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"mucongest/internal/bench"
	"mucongest/internal/sim"
	"mucongest/internal/topo"
)

func seededRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func main() {
	specs := bench.Specs()
	valid := strings.Join(bench.ExperimentIDs(specs), ", ")

	seed := flag.Int64("seed", 1, "random seed for workloads and protocols")
	exp := flag.String("exp", "all", "experiment id ("+valid+") or 'all'")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0),
		"number of experiment cells to run concurrently (≥ 1)")
	simWorkers := flag.Int("simworkers", runtime.GOMAXPROCS(0),
		"delivery workers per simulation engine round loop (≥ 1; results are identical for any value)")
	format := flag.String("format", "table", "output format: table | csv | json")
	out := flag.String("out", "", "write output to this file instead of stdout")
	topoSpec := flag.String("topo", "",
		"topology spec override, family:k=v,... (families: "+
			strings.Join(topo.FamilyNames(), ", ")+")")
	engineSpec := flag.String("engine", "",
		"run the raw engine broadcast workload on this topology spec instead of the experiment sweep, e.g. cycle:n=1048576")
	engineRounds := flag.Int("enginerounds", 4, "rounds for the -engine broadcast workload (≥ 1)")
	engineMode := flag.String("enginemode", "step", "-engine execution form: step (state machine) | goroutine (blocking program, run as a coroutine)")
	faultsSpec := flag.String("faults", "",
		"fault-plan spec for the -engine workload, '+'-joined clauses of loss:p=..., "+
			"crash:p=...,restart=..., edgedown:p=...,up=... (sim.ParseFaults)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	flag.Parse()

	if *format != "table" && *format != "csv" && *format != "json" {
		fmt.Fprintf(os.Stderr, "unknown format %q; valid: table, csv, json\n", *format)
		os.Exit(2)
	}
	if *parallel < 1 {
		fmt.Fprintf(os.Stderr, "-parallel must be ≥ 1 (got %d)\n", *parallel)
		os.Exit(2)
	}
	if *simWorkers < 1 {
		fmt.Fprintf(os.Stderr, "-simworkers must be ≥ 1 (got %d)\n", *simWorkers)
		os.Exit(2)
	}
	if *engineMode != "step" && *engineMode != "goroutine" {
		fmt.Fprintf(os.Stderr, "unknown -enginemode %q; valid: step, goroutine\n", *engineMode)
		os.Exit(2)
	}
	if *engineRounds < 1 {
		fmt.Fprintf(os.Stderr, "-enginerounds must be ≥ 1 (got %d)\n", *engineRounds)
		os.Exit(2)
	}
	faultPlan, faultErr := sim.ParseFaults(*faultsSpec)
	if faultErr != nil {
		fmt.Fprintf(os.Stderr, "-faults: %v\n", faultErr)
		os.Exit(2)
	}
	if *faultsSpec != "" && *engineSpec == "" {
		fmt.Fprintln(os.Stderr, "-faults requires -engine (the experiment sweep owns its own fault plans; see E13)")
		os.Exit(2)
	}
	if *engineSpec != "" {
		// A spec typo is a usage error (exit 2), same as -topo; graph
		// build errors surface later through the normal error path.
		if _, err := topo.Parse(*engineSpec); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	sim.SetDefaultWorkers(*simWorkers)
	selected, ok := bench.SelectSpecs(specs, *exp)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; valid: %s, all\n", *exp, valid)
		os.Exit(2)
	}
	if *topoSpec != "" {
		tp, err := topo.Parse(*topoSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		// Build once up front so spec value errors (e.g. torus:rows=2)
		// surface as a clean message, not a worker panic mid-grid.
		if _, err := tp.Build(seededRNG(*seed)); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		selected = bench.OverrideTopo(selected, tp)
	}

	var w io.Writer = os.Stdout
	var outFile *os.File
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		outFile = f
		w = f
	}
	// Profile files are created after every usage check (so a flag typo
	// never clobbers an existing profile with a truncated one) but
	// before any work runs, so an unwritable path is still a usage
	// error (exit 2), not a wasted sweep.
	var memFile *os.File
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "-memprofile: %v\n", err)
			os.Exit(2)
		}
		memFile = f
	}
	stopProfiles := func() {}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "-cpuprofile: %v\n", err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "-cpuprofile: %v\n", err)
			os.Exit(2)
		}
		stopProfiles = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
	}
	// Table.Fprint discards fmt errors, so track the first write failure
	// here: a truncated -out file must not exit 0.
	ew := &errWriter{w: w}

	var err error
	if *engineSpec != "" {
		err = runEngineLoad(ew, *engineSpec, *engineMode, *engineRounds, *seed, faultPlan)
	} else {
		var tables []*bench.Table
		if tables, err = bench.RunParallel(selected, *seed, *parallel); err == nil {
			switch *format {
			case "table":
				for _, t := range tables {
					t.Fprint(ew)
				}
			case "csv":
				err = bench.WriteRecordsCSV(ew, bench.Records(tables))
			case "json":
				err = bench.WriteRecordsJSON(ew, bench.Records(tables))
			}
		}
	}
	if err == nil {
		err = ew.err
	}
	if outFile != nil {
		if cerr := outFile.Close(); err == nil {
			err = cerr
		}
	}
	stopProfiles()
	if memFile != nil {
		runtime.GC() // settle the heap so the profile reflects retained memory
		if perr := pprof.WriteHeapProfile(memFile); err == nil {
			err = perr
		}
		if cerr := memFile.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// runEngineLoad builds the named topology — in the registry's compact
// representation (CSR or implicit), so multi-million-node specs fit in
// memory or fail the budget check with a clear estimate — and drives
// the canonical engine broadcast workload over it in the requested
// execution form, under the -faults plan if one was given, then writes
// a one-line summary including wall-clock. The timer starts at engine
// construction: a scale smoke should bound what a cold run actually
// costs, not just the warm round loop.
func runEngineLoad(w io.Writer, spec, mode string, rounds int, seed int64, faults sim.FaultPlan) error {
	tp, err := topo.Parse(spec)
	if err != nil {
		return err
	}
	est, err := tp.Estimate()
	if err != nil {
		return err
	}
	g, err := tp.BuildTopology(seededRNG(seed))
	if err != nil {
		return err
	}
	start := time.Now()
	e := sim.New(g, sim.WithSeed(seed), sim.WithFaults(faults))
	var res *sim.Result
	if mode == "step" {
		res, err = e.RunProgram(bench.BroadcastSteps(g.N(), rounds))
	} else {
		res, err = e.Run(bench.BroadcastProgram(rounds))
	}
	if err != nil {
		return err
	}
	summary := fmt.Sprintf("engine %s mode=%s repr=%s nodes=%d rounds=%d messages=%d",
		spec, mode, est.Repr, g.N(), res.Rounds, res.Messages)
	if !faults.Empty() {
		summary += fmt.Sprintf(" faults=%q faultdrops=%d crashes=%d restarts=%d",
			faults, res.FaultDrops, res.Crashes, res.Restarts)
	}
	_, werr := fmt.Fprintf(w, "%s elapsed=%s\n", summary, time.Since(start).Round(time.Millisecond))
	return werr
}

// errWriter passes writes through and remembers the first error.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) Write(p []byte) (int, error) {
	n, err := e.w.Write(p)
	if err != nil && e.err == nil {
		e.err = err
	}
	return n, err
}
