package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary serve as its own powerlaw-1m child
// process, exactly as the command binary does.
func TestMain(m *testing.M) {
	if len(os.Args) == 2 && os.Args[1] == childArg {
		os.Exit(childMain(os.Stdin, os.Stdout))
	}
	os.Exit(m.Run())
}

// tinyScale runs every workload through its full code path in well
// under a second each.
var tinyScale = scale{
	gridTopo: "cycle:n=12",
	powerlaw: "powerlaw:n=4096",
	torus:    "torus:rows=32,cols=32",
	cycle:    "cycle:n=1024",
}

func runTiny(t *testing.T, sc scale, args ...string) (int, resultLine, string) {
	t.Helper()
	var out, errOut bytes.Buffer
	status := run(append([]string{"-seconds", "0"}, args...), &out, &errOut, sc)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("%v: last line %q is not the result: %v\nstderr: %s", args, lines[len(lines)-1], err, errOut.String())
	}
	return status, line, out.String() + errOut.String()
}

type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestWorkloadsTiny runs every workload, untraced and traced, and checks
// that the result line reports exactly the metrics BENCHMARK.json lists,
// with the same units, and that every gate passed.
func TestWorkloadsTiny(t *testing.T) {
	bf := readBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, command has %v", names, workloadNames)
	}
	for _, w := range workloadNames {
		for trace, want := range [][]struct{ Name, Unit string }{bf.EndToEnd, bf.PerLayer} {
			status, line, log := runTiny(t, tinyScale, "-workload", w, "-trace", []string{"0", "1"}[trace])
			if status != 0 || !line.Correct || line.Failed != 0 || line.Attempted == 0 {
				t.Fatalf("%s trace=%d: status %d, %+v\n%s", w, trace, status, line, log)
			}
			for _, m := range want {
				got, ok := line.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%d: metric %s missing", w, trace, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s trace=%d: %s unit %q, BENCHMARK.json says %q", w, trace, m.Name, got.Unit, m.Unit)
				}
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics, BENCHMARK.json lists %d", w, trace, len(line.Metrics), len(want))
			}
			if trace == 0 {
				for _, m := range want {
					if v := line.Metrics[m.Name].Value; !(v > 0) || math.IsInf(v, 0) {
						t.Errorf("%s: end-to-end %s = %v, want a positive number", w, m.Name, v)
					}
				}
			}
		}
	}
}

// TestCorruptPinFails checks that an output that misses its pin counts
// as a failed operation, the run goes on, and the command exits 1.
func TestCorruptPinFails(t *testing.T) {
	for _, tc := range []struct {
		workload string
		sc       scale
		failed   int // with -seconds 0: the minimum number of operations
	}{
		{"grid", scale{gridTopo: tinyScale.gridTopo, gridGolden: strings.Repeat("0", 64)}, 11 * (1 + minWarmPasses)},
		{"torus-1m-faults", scale{torus: tinyScale.torus, torusPin: &ledger{Messages: 1}}, 1 + minWarm},
	} {
		status, line, log := runTiny(t, tc.sc, "-workload", tc.workload)
		if status != 1 || line.Correct || line.Failed != tc.failed || line.Attempted < line.Failed {
			t.Errorf("%s with a corrupt pin: status %d, %+v; want status 1 and %d failed\n%s",
				tc.workload, status, line, tc.failed, log)
		}
	}
}

// TestTracedCountsExact runs the traced wrappers on several delivery
// workers and checks that the per-node slots add up exactly on every
// run; under -race it also checks that no slot is shared.
func TestTracedCountsExact(t *testing.T) {
	for _, l := range []engineLoad{
		{Spec: "torus:rows=64,cols=64", Rounds: 4, Builds: 1},
		{Spec: "cycle:n=4096", Rounds: 4, Builds: 1, Blocking: true},
	} {
		res := newResult()
		l.process(1, 0, true, 4, 4, time.Time{}, res, &tracer{workload: "test"})
		if res.Failed != 0 {
			t.Fatalf("%s: %v", l.Spec, res.Errors)
		}
		const n = 4096
		wantCalls := float64(n * (l.Rounds + 1))
		if l.Blocking {
			wantCalls = 0
		}
		for _, c := range res.Layer["node.step_calls"] {
			if c != wantCalls {
				t.Errorf("%s: node.step_calls %v, want %v", l.Spec, c, wantCalls)
			}
		}
		ticks := res.Layer["node.tick_calls"]
		if len(ticks) != 2 {
			t.Fatalf("%s: %d traced warm runs, want 2", l.Spec, len(ticks))
		}
		for _, c := range ticks {
			if c != float64(n*l.Rounds) {
				t.Errorf("%s: node.tick_calls %v, want %d", l.Spec, c, n*l.Rounds)
			}
		}
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "grid", "-trace", "2"},
		{"-workload", "grid", "-spans", "x.jsonl"},
		{"-workload", "grid", "extra"},
	} {
		var out, errOut bytes.Buffer
		if status := run(args, &out, &errOut, tinyScale); status != 2 || out.Len() != 0 {
			t.Errorf("%v: status %d, stdout %q; want 2 and nothing", args, status, out.String())
		}
	}
}

// TestQuartiles pins the values Python's statistics.quantiles(xs, n=4)
// and statistics.median give.
func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{5}, 5, 5, 5},
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
		{[]float64{1, 2, 3}, 1, 2, 3},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
	} {
		q1, m, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || m != tc.m || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, m, q3, tc.q1, tc.m, tc.q3)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "run", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "a", Start: 30, End: 50},
		{ID: 4, Parent: 1, Name: "b", Start: 90, End: 130}, // runs past its parent
	}
	got := selfTimes(spans)
	want := []spanSummary{{"run", 1, 100e-9, 50e-9}, {"a", 2, 50e-9, 50e-9}, {"b", 1, 40e-9, 40e-9}}
	if len(got) != len(want) {
		t.Fatalf("selfTimes = %+v", got)
	}
	for i := range want {
		if got[i].Name != want[i].Name || got[i].N != want[i].N ||
			math.Abs(got[i].Total-want[i].Total) > 1e-15 || math.Abs(got[i].Self-want[i].Self) > 1e-15 {
			t.Errorf("selfTimes[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
}
