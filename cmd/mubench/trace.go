package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"mucongest/internal/sim"
)

// span is one timed call across a layer boundary. Start and End are
// wall-clock Unix nanoseconds while the run collects them (so spans from
// child processes line up with the parent's) and are rebased to the
// start of the run when written.
type span struct {
	ID       int                `json:"id"`
	Parent   int                `json:"parent"`
	Name     string             `json:"name"`
	Workload string             `json:"workload"`
	Sample   int                `json:"sample"`
	Start    int64              `json:"start_ns"`
	End      int64              `json:"end_ns"`
	Counters map[string]float64 `json:"counters,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how untraced runs call the same code. It is used
// from the goroutine that runs the workload only.
type tracer struct {
	workload string
	spans    []span
}

// begin opens a span and returns its id (0 when tracing is off).
func (t *tracer) begin(name string, parent, sample int) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name,
		Workload: t.workload, Sample: sample, Start: time.Now().UnixNano()})
	return id
}

// end closes span id, attaching counters.
func (t *tracer) end(id int, counters map[string]float64) {
	if t == nil || id == 0 {
		return
	}
	s := &t.spans[id-1]
	s.End = time.Now().UnixNano()
	s.Counters = counters
}

// add records an already measured span, such as the node.step aggregate.
func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	s.ID = len(t.spans) + 1
	s.Workload = t.workload
	t.spans = append(t.spans, s)
}

// adopt appends spans recorded by a child process, renumbering them
// after the spans already held; a child's top-level spans stay top-level.
func (t *tracer) adopt(spans []span) {
	if t == nil {
		return
	}
	off := len(t.spans)
	for _, s := range spans {
		s.Workload = t.workload
		s.ID += off
		if s.Parent != 0 {
			s.Parent += off
		}
		t.spans = append(t.spans, s)
	}
}

// selfTimes sums, per span name, the count, total duration and self
// time: a span's duration minus the part of its interval that its
// children's intervals cover.
func selfTimes(spans []span) []spanSummary {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	byName := map[string]*spanSummary{}
	var order []string
	for _, s := range spans {
		sum := byName[s.Name]
		if sum == nil {
			sum = &spanSummary{Name: s.Name}
			byName[s.Name] = sum
			order = append(order, s.Name)
		}
		d := s.End - s.Start
		sum.N++
		sum.Total += float64(d) / 1e9
		sum.Self += float64(d-covered(s, kids[s.ID])) / 1e9
	}
	out := make([]spanSummary, len(order))
	for i, name := range order {
		out[i] = *byName[name]
	}
	return out
}

type spanSummary struct {
	Name        string
	N           int
	Total, Self float64 // seconds
}

// covered returns how much of parent's interval the union of the
// children's intervals spans.
func covered(parent span, children []span) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	for _, x := range iv {
		if x[0] > end {
			end = x[0]
		}
		if x[1] > end {
			total += x[1] - end
			end = x[1]
		}
	}
	return total
}

// writeSpans writes the header (the environment and run parameters) and
// then one span per line, with times relative to epoch.
func writeSpans(path string, header any, spans []span, epoch int64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	err = enc.Encode(header)
	for _, s := range spans {
		if err != nil {
			break
		}
		s.Start -= epoch
		s.End -= epoch
		err = enc.Encode(s)
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

// nodeClock times node programs from outside the engine by wrapping
// them. Each node owns one slot, written only by whichever delivery
// worker or node goroutine runs that node at the time; the engine's
// phase and barrier synchronization orders those writes before the run
// returns, so the slots need no atomics and no slot is shared.
type nodeClock struct {
	start time.Time
	slots []nodeSlot
}

type nodeSlot struct {
	clock   *nodeClock
	step    sim.StepProgram
	entered bool
	first   time.Duration // from run start to the node's first entry
	busy    time.Duration // inside Step, including the Ctx send path
	calls   int64
	ticks   int64
}

func newNodeClock(n int) *nodeClock { return &nodeClock{slots: make([]nodeSlot, n)} }

// reset clears the slots for a run starting now.
func (k *nodeClock) reset() {
	for i := range k.slots {
		k.slots[i] = nodeSlot{clock: k}
	}
	k.start = time.Now()
}

func (s *nodeSlot) enter(now time.Time) {
	if !s.entered {
		s.entered = true
		s.first = now.Sub(s.clock.start)
	}
}

// Step times one call of the wrapped step program.
func (s *nodeSlot) Step(c *sim.Ctx, in []sim.Incoming) bool {
	t0 := time.Now()
	s.enter(t0)
	cont := s.step.Step(c, in)
	s.busy += time.Since(t0)
	s.calls++
	if cont {
		s.ticks++
	}
	return cont
}

// program wraps a step-form program so every node's Step is timed.
func (k *nodeClock) program(inner sim.Program) sim.Program {
	return sim.Steps(func(c *sim.Ctx) sim.StepProgram {
		s := &k.slots[c.ID()]
		step, _ := inner.Node(c)
		s.step = step
		return s
	})
}

// blocking wraps a blocking program: it notes when each node first
// enters and, once the node returns, how many rounds it ticked. Time
// inside a blocking program includes waiting in Tick, so it is not
// counted as node time.
func (k *nodeClock) blocking(f func(*sim.Ctx)) func(*sim.Ctx) {
	return func(c *sim.Ctx) {
		s := &k.slots[c.ID()]
		s.enter(time.Now())
		f(c)
		s.ticks += int64(c.Round())
	}
}

// totals folds the slots after a run: summed Step time and calls, Tick
// count, and the time until the last node first entered its program.
func (k *nodeClock) totals() (busy time.Duration, calls, ticks int64, spawn time.Duration) {
	for i := range k.slots {
		s := &k.slots[i]
		busy += s.busy
		calls += s.calls
		ticks += s.ticks
		if s.first > spawn {
			spawn = s.first
		}
	}
	return
}

// goDelta is the Go runtime's allocation and GC work between two
// ReadMemStats calls.
type goDelta struct {
	allocs, allocMB, gcs, pauseS float64
}

func readMem() *runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return &m
}

func memDelta(a, b *runtime.MemStats) goDelta {
	return goDelta{
		allocs:  float64(b.Mallocs - a.Mallocs),
		allocMB: float64(b.TotalAlloc-a.TotalAlloc) / (1 << 20),
		gcs:     float64(b.NumGC - a.NumGC),
		pauseS:  float64(b.PauseTotalNs-a.PauseTotalNs) / 1e9,
	}
}

// resetPeakRSS restarts the kernel's record of this process's peak
// resident set (Linux clear_refs mode 5), so the next peakRSS reads the
// peak of one sample. The heap is left as it is: collecting it here
// would empty the engine's pooled run scratch and turn a warm run cold.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting peak RSS: %w", err)
	}
	return nil
}

// peakRSS appends the peak resident set since resetPeakRSS, in MiB, to
// r.RSS.
func (r *result) peakRSS() error {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return fmt.Errorf("reading peak RSS: %w", err)
			}
			r.RSS = append(r.RSS, kb/1024)
			return nil
		}
	}
	return fmt.Errorf("reading peak RSS: no VmHWM in /proc/self/status")
}

// printSummary writes the per-name self-time table.
func printSummary(w io.Writer, sums []spanSummary) {
	fmt.Fprintf(w, "# %-22s %6s %12s %12s\n", "span", "n", "total_s", "self_s")
	for _, s := range sums {
		fmt.Fprintf(w, "# %-22s %6d %12.6f %12.6f\n", s.Name, s.N, s.Total, s.Self)
	}
}
