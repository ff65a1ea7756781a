// Command mubench is the repository's benchmark: one harness that runs
// the paper's experiment grid (muexp's E1–E13 cells) and the raw engine
// at a million nodes, checks that their outputs are correct, and reports
// end-to-end metrics or, traced, per-layer metrics, stamped with the
// environment they were measured in. README.md in this directory
// describes the workloads, the metrics and the recorded numbers.
//
// Usage, from the repository root:
//
//	bash cmd/mubench/run.sh -workload NAME [-seed N] [-seconds S] [-trace 0|1] [-json FILE] [-spans FILE]
//
// run.sh builds the command into .bench_build/ and runs it. -workload
// is one of grid, powerlaw-1m, torus-1m-faults and cycle-64k-goroutine.
// Every input derives from -seed. Samples are taken for -seconds
// seconds, after a minimum count per workload. -trace 0 measures the
// end-to-end metrics with tracing off; -trace 1 is a separate, traced
// run that reports the per-layer metrics, prints the self time of every
// span, and with -spans writes the span tree as JSON lines. -json
// writes the full report: environment, every metric's phase, median,
// quartiles and sample count, and the errors.
//
// Human-readable lines start with '#'. The last line of standard output
// is one JSON object with the keys correct, attempted, failed and
// metrics. An operation is one Run/RunProgram call or one grid cell; it
// fails when it errors or its output fails a correctness gate. The run
// continues past failures and the command then exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"
)

func main() {
	if len(os.Args) == 2 && os.Args[1] == childArg {
		os.Exit(childMain(os.Stdin, os.Stdout))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, fullScale))
}

// value is one metric in the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// report is what -json writes.
type report struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Seconds   int      `json:"seconds"`
	Trace     int      `json:"trace"`
	Env       envStamp `json:"env"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors"`
	Metrics   []metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer, sc scale) int {
	fs := flag.NewFlagSet("mubench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "seed every input of the workload derives from")
	seconds := fs.Int("seconds", 25, "seconds to keep taking samples after each workload's minimum")
	trace := fs.Int("trace", 0, "0 measures the end-to-end metrics; 1 runs traced and reports the per-layer metrics")
	jsonPath := fs.String("json", "", "write the full report to this file")
	spansPath := fs.String("spans", "", "with -trace 1, write the spans to this file as JSON lines")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case fs.NArg() > 0:
		fmt.Fprintf(stderr, "mubench: unexpected arguments %q\n", fs.Args())
		return 2
	case !slices.Contains(workloadNames, *workload):
		fmt.Fprintf(stderr, "mubench: unknown workload %q; valid: %s\n", *workload, strings.Join(workloadNames, ", "))
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintf(stderr, "mubench: -trace must be 0 or 1 (got %d)\n", *trace)
		return 2
	case *seconds < 0:
		fmt.Fprintf(stderr, "mubench: -seconds must be ≥ 0 (got %d)\n", *seconds)
		return 2
	case *spansPath != "" && *trace == 0:
		fmt.Fprintln(stderr, "mubench: -spans needs -trace 1")
		return 2
	}
	traced := *trace == 1

	workers := runtime.GOMAXPROCS(0)
	if *workload == "grid" {
		workers = 1
	}
	env := stampEnv(workers)
	fmt.Fprintf(stdout, "# mubench workload=%s seed=%d seconds=%d trace=%d\n", *workload, *seed, *seconds, *trace)
	fmt.Fprintf(stdout, "# env cpu=%q nproc=%d gomaxprocs=%d engine_workers=%d go=%s kernel=%s commit=%s dirty=%s\n",
		env.CPU, env.NProc, env.GOMAXPROCS, env.Workers, env.Go, env.Kernel, env.Commit, env.Dirty)

	var tr *tracer
	if traced {
		tr = &tracer{workload: *workload}
	}
	epoch := time.Now()
	deadline := epoch.Add(time.Duration(*seconds) * time.Second)
	res := newResult()
	if *workload == "grid" {
		runGrid(sc, *seed, traced, deadline, res, tr)
	} else {
		runEngine(sc.engineLoad(*workload), *seed, traced, deadline, res, tr, stderr)
	}

	var ms []metric
	if traced {
		ms = res.perLayer()
	} else {
		ms = res.endToEnd()
	}
	printTable(stdout, ms)
	if traced {
		printSummary(stdout, selfTimes(tr.spans))
		fmt.Fprintf(stdout, "# trace.overhead %.4f (traced run_s / untraced run_s)\n", median(res.Layer["trace.overhead"]))
	}
	for i := 0; i < len(res.Errors); {
		j := i + 1
		for j < len(res.Errors) && res.Errors[j] == res.Errors[i] {
			j++
		}
		fmt.Fprintf(stderr, "mubench: %d× failed: %s\n", j-i, res.Errors[i])
		i = j
	}

	status := 0
	if res.Failed > 0 {
		status = 1
	}
	if *jsonPath != "" {
		rep := report{Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace, Env: env,
			Attempted: res.Attempted, Failed: res.Failed, Errors: res.Errors, Metrics: ms}
		if err := writeJSON(*jsonPath, rep); err != nil {
			fmt.Fprintln(stderr, "mubench:", err)
			status = 1
		}
	}
	if *spansPath != "" {
		header := map[string]any{"workload": *workload, "seed": *seed, "env": env}
		if err := writeSpans(*spansPath, header, tr.spans, epoch.UnixNano()); err != nil {
			fmt.Fprintln(stderr, "mubench:", err)
			status = 1
		}
	}

	line := resultLine{Correct: res.Failed == 0 && res.Attempted > 0, Attempted: res.Attempted,
		Failed: res.Failed, Metrics: map[string]value{}}
	for _, m := range ms {
		line.Metrics[m.Name] = value{m.Median, m.Unit}
	}
	out, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "mubench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", out)
	return status
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing report: %w", err)
	}
	return nil
}
