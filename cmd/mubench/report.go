package main

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"mucongest/internal/bench"
)

// result is what one workload run gathers. A powerlaw-1m child process
// sends its result to the parent as JSON, hence the exported fields.
type result struct {
	Setup     []float64 // seconds per set-up
	Cold      []float64 // seconds of the first run in a fresh process
	Warm      []float64 // seconds per warm untraced run (grid: per pass)
	Traced    []float64 // seconds per warm traced run (trace mode only)
	FaultFree []float64 // seconds per fault-free twin of a faulty run (trace mode only)
	RSS       []float64 // MiB of peak resident memory per untraced run (grid: per pass)
	Messages  int64     // messages delivered per run (grid: per pass)
	Rounds    int64     // rounds per run (grid: summed over a pass)
	// Layer holds per-layer samples by metric name; the reported value
	// is their median.
	Layer     map[string][]float64
	Attempted int
	Failed    int
	Errors    []string
	Spans     []span // a child's spans, on their way to the parent
}

func newResult() *result { return &result{Layer: map[string][]float64{}} }

func (r *result) layer(name string, v float64) { r.Layer[name] = append(r.Layer[name], v) }

// op records one operation — a Run/RunProgram call or a grid cell — and
// whether its output passed the gates.
func (r *result) op(err error) {
	r.Attempted++
	if err != nil {
		r.Failed++
		r.Errors = append(r.Errors, err.Error())
	}
}

// merge folds a child process's result into r.
func (r *result) merge(o *result) {
	r.Setup = append(r.Setup, o.Setup...)
	r.Cold = append(r.Cold, o.Cold...)
	r.Warm = append(r.Warm, o.Warm...)
	r.Traced = append(r.Traced, o.Traced...)
	r.FaultFree = append(r.FaultFree, o.FaultFree...)
	r.RSS = append(r.RSS, o.RSS...)
	r.Messages, r.Rounds = o.Messages, o.Rounds
	for k, v := range o.Layer {
		r.Layer[k] = append(r.Layer[k], v...)
	}
	r.Attempted += o.Attempted
	r.Failed += o.Failed
	r.Errors = append(r.Errors, o.Errors...)
}

// metricDef names one reported metric. Phase labels what its timings
// cover: setup, a cold or a warm run, any run, or an exact count.
type metricDef struct{ name, unit, phase string }

// endToEndDefs and perLayerDefs list every metric in output order.
// BENCHMARK.json lists the same names and units; a test keeps them in
// step.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "setup"},
	{"run_s", "s", "warm"},
	{"cold_run_s", "s", "cold"},
	{"msgs_per_s", "msg/s", "warm"},
	{"rounds_per_s", "rounds/s", "warm"},
}

func perLayerDefs() []metricDef {
	defs := []metricDef{
		{"topo.build_s", "s", "setup"},
		{"topo.bytes", "bytes", "setup"},
		{"sim.new_s", "s", "setup"},
		{"sim.self_s", "s", "warm"},
		{"sim.cold_self_s", "s", "cold"},
		{"sim.ns_per_msg", "ns", "warm"},
		{"sim.ns_per_node_round", "ns", "warm"},
		{"sim.rounds", "count", "count"},
		{"sim.messages", "count", "count"},
		{"sim.dropped", "count", "count"},
		{"sim.fault_drops", "count", "count"},
		{"sim.crashes", "count", "count"},
		{"sim.restarts", "count", "count"},
		{"sim.delivery_ratio", "ratio", "count"},
		{"sim.fault_overhead_s", "s", "warm"},
		{"node.step_s", "s", "warm"},
		{"node.step_calls", "count", "count"},
		{"node.step_share", "ratio", "warm"},
		{"node.spawn_s", "s", "warm"},
		{"node.tick_calls", "count", "count"},
		{"go.cold_allocs", "count", "cold"},
		{"go.cold_alloc_mb", "MiB", "cold"},
		{"go.allocs", "count", "warm"},
		{"go.alloc_mb", "MiB", "warm"},
		{"go.gc_cycles", "count", "warm"},
		{"go.gc_pause_s", "s", "warm"},
		{"go.peak_rss_mb", "MiB", "run"},
	}
	for _, sp := range bench.Specs() {
		c := cellMetric(sp.ID)
		defs = append(defs,
			metricDef{c + ".s", "s", "warm"},
			metricDef{c + ".sim_s", "s", "warm"},
			metricDef{c + ".rounds", "count", "count"},
			metricDef{c + ".us_per_round", "us", "warm"})
	}
	return append(defs, metricDef{"trace.overhead", "ratio", "warm"})
}

// cellMetric is the metric-name prefix of grid cell id.
func cellMetric(id string) string { return "grid." + strings.ReplaceAll(id, "/", "-") }

// metric is one reported value: the median of N samples with their
// quartiles.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Phase  string  `json:"phase"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

func stat(d metricDef, xs []float64) metric {
	q1, med, q3 := quartiles(xs)
	return metric{Name: d.name, Unit: d.unit, Phase: d.phase, Median: med, Q1: q1, Q3: q3, N: len(xs)}
}

// endToEnd derives the end-to-end metrics. Throughputs are per warm
// run, so their quartiles are those of the runs.
func (r *result) endToEnd() []metric {
	per := func(work int64) []float64 {
		out := make([]float64, len(r.Warm))
		for i, w := range r.Warm {
			out[i] = float64(work) / w
		}
		return out
	}
	samples := map[string][]float64{
		"setup_s":      r.Setup,
		"run_s":        r.Warm,
		"cold_run_s":   r.Cold,
		"msgs_per_s":   per(r.Messages),
		"rounds_per_s": per(r.Rounds),
	}
	out := make([]metric, len(endToEndDefs))
	for i, d := range endToEndDefs {
		out[i] = stat(d, samples[d.name])
	}
	return out
}

// perLayer derives the per-layer metrics of a traced run. A layer the
// workload does not exercise, or that cannot be seen from outside on
// it, reads 0 with a sample count of 0.
func (r *result) perLayer() []metric {
	if len(r.Traced) > 0 && len(r.Warm) > 0 {
		r.Layer["trace.overhead"] = []float64{median(r.Traced) / median(r.Warm)}
	}
	r.Layer["go.peak_rss_mb"] = r.RSS
	if len(r.FaultFree) > 0 && len(r.Warm) > 0 {
		r.Layer["sim.fault_overhead_s"] = []float64{median(r.Warm) - median(r.FaultFree)}
	}
	defs := perLayerDefs()
	out := make([]metric, len(defs))
	for i, d := range defs {
		out[i] = stat(d, r.Layer[d.name])
	}
	return out
}

// quartiles returns the first quartile, median and third quartile of xs:
// the median as Python's statistics.median and the quartiles as its
// statistics.quantiles(xs, n=4), so spreads read the same in both.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	med = s[n/2]
	if n%2 == 0 {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), med, q(3)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// printTable writes the metrics with their phase, median, quartiles and
// sample count, one per line.
func printTable(w io.Writer, ms []metric) {
	fmt.Fprintf(w, "# %-28s %-9s %-7s %16s %16s %16s %4s\n",
		"metric", "unit", "phase", "median", "q1", "q3", "n")
	for _, m := range ms {
		fmt.Fprintf(w, "# %-28s %-9s %-7s %16.6g %16.6g %16.6g %4d\n",
			m.Name, m.Unit, m.Phase, m.Median, m.Q1, m.Q3, m.N)
	}
}
