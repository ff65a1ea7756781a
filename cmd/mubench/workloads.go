package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"time"

	"mucongest/internal/bench"
	"mucongest/internal/sim"
	"mucongest/internal/topo"
)

// scale fixes the sizes the workloads run at and the outputs they are
// pinned to. The command runs fullScale; tests run the same code paths
// on a tiny scale.
type scale struct {
	// gridTopo replaces every grid cell's topology; "" keeps muexp's
	// default scales.
	gridTopo string
	// gridGolden is the SHA-256 of the seed-1 records document, as
	// `muexp -seed 1 -format json` emits it; "" skips the pin.
	gridGolden string
	powerlaw   string // topology specs of the engine workloads
	torus      string
	cycle      string
	// torusPin is the seed-1 fault ledger of torus-1m-faults; nil skips
	// the pin.
	torusPin *ledger
}

var fullScale = scale{
	gridGolden: "2cb10dc500ddffbe6749953cedfe553745f9be174703fd81062a847ec0d0983e",
	powerlaw:   "powerlaw:n=1048576",
	torus:      "torus:rows=1024,cols=1024",
	cycle:      "cycle:n=65536",
	torusPin:   &ledger{Messages: 32_573_608, FaultDrops: 888_906, Crashes: 8_439, Restarts: 8_439},
}

// workloadNames lists the workloads in the order the README gives them.
var workloadNames = []string{"grid", "powerlaw-1m", "torus-1m-faults", "cycle-64k-goroutine"}

// ledger is the part of a faulty run's result that must repeat exactly.
type ledger struct{ Messages, FaultDrops, Crashes, Restarts int64 }

// engineLoad is one raw-engine workload: the canonical broadcast program
// of internal/bench on a topology from the registry. Its fields are
// exported because a powerlaw-1m child process receives it as JSON.
type engineLoad struct {
	Spec     string // topology spec, built with Spec.BuildTopology
	Rounds   int
	Faults   string // fault-plan spec; "" runs fault-free
	Blocking bool   // goroutine-per-node BroadcastProgram via Engine.Run, else step form
	Builds   int    // set-ups per process; the last one serves the runs
	// Fresh makes every sample a child process: Builds set-ups, one
	// cold run and WarmRuns warm runs.
	Fresh    bool
	WarmRuns int
	Pin      *ledger
}

// engineLoad returns the engine workload called name.
func (sc scale) engineLoad(name string) engineLoad {
	switch name {
	case "powerlaw-1m":
		return engineLoad{Spec: sc.powerlaw, Rounds: 2, Builds: 3, Fresh: true, WarmRuns: 2}
	case "torus-1m-faults":
		return engineLoad{Spec: sc.torus, Rounds: 8, Builds: 5, Pin: sc.torusPin,
			Faults: "loss:p=0.01+crash:p=0.001,restart=5+edgedown:p=0.005,up=3"}
	case "cycle-64k-goroutine":
		return engineLoad{Spec: sc.cycle, Rounds: 16, Builds: 5, Blocking: true}
	}
	panic("mubench: no engine workload " + name)
}

// Minimum samples per run, whatever -seconds says.
const (
	minWarm     = 3 // warm runs of an in-process engine workload
	minChildren = 3 // fresh processes of powerlaw-1m
	// warm grid passes after the cold one (pairs of them in trace mode)
	minWarmPasses = 2
	gridSetups    = 25
)

// built is one set-up of an engine workload.
type built struct {
	topo   sim.Topology
	prog   sim.Program // step form
	eng    *sim.Engine
	degSum int64
	clock  *nodeClock // trace mode only
}

// setup builds the topology, the program and the engine, timing each
// as a layer, and records the whole as one set-up sample.
func (l engineLoad) setup(seed int64, res *result, tr *tracer, parent, sample int) (*built, error) {
	tp, err := topo.Parse(l.Spec)
	if err != nil {
		return nil, err
	}
	est, err := tp.Estimate()
	if err != nil {
		return nil, err
	}
	plan, err := sim.ParseFaults(l.Faults)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	id := tr.begin("topo.build", parent, sample)
	g, err := tp.BuildTopology(rand.New(rand.NewSource(seed)))
	tr.end(id, map[string]float64{"bytes": float64(est.Bytes)})
	if err != nil {
		return nil, err
	}
	tBuild := time.Since(t0)
	b := &built{topo: g}
	if !l.Blocking {
		b.prog = bench.BroadcastSteps(g.N(), l.Rounds)
	}
	t1 := time.Now()
	id = tr.begin("sim.new", parent, sample)
	b.eng = sim.New(g, sim.WithSeed(seed), sim.WithSimWorkers(0), sim.WithFaults(plan))
	tr.end(id, nil)
	tNew := time.Since(t1)
	res.Setup = append(res.Setup, time.Since(t0).Seconds())
	res.layer("topo.build_s", tBuild.Seconds())
	res.layer("sim.new_s", tNew.Seconds())
	res.layer("topo.bytes", float64(est.Bytes))
	return b, nil
}

// degreeSum is Σ_v Degree(v), what one fault-free broadcast round
// delivers.
func degreeSum(g sim.Topology) int64 {
	var s int64
	d, ok := g.(sim.DegreeTopology)
	for v := 0; v < g.N(); v++ {
		if ok {
			s += int64(d.Degree(v))
		} else {
			s += int64(len(g.Neighbors(v)))
		}
	}
	return s
}

// run makes one Run/RunProgram call on eng and returns its wall time.
// An untraced call's peak resident memory goes into res. A traced call
// wraps and times the node programs, measures the Go runtime's
// allocations around the call, and puts the per-layer samples into res
// under the cold or warm names.
func (l engineLoad) run(b *built, eng *sim.Engine, kind string, traced bool,
	res *result, tr *tracer, parent, sample int) (time.Duration, *sim.Result, error) {
	if !traced {
		if err := resetPeakRSS(); err != nil {
			return 0, nil, err
		}
	}
	id := tr.begin("sim.run."+kind, parent, sample)
	if traced {
		b.clock.reset()
	}
	m0 := readMemIf(traced)
	var (
		r   *sim.Result
		err error
	)
	t0 := time.Now()
	switch {
	case l.Blocking && traced:
		r, err = eng.Run(b.clock.blocking(bench.BroadcastProgram(l.Rounds)))
	case l.Blocking:
		r, err = eng.Run(bench.BroadcastProgram(l.Rounds))
	case traced:
		r, err = eng.RunProgram(b.clock.program(b.prog))
	default:
		r, err = eng.RunProgram(b.prog)
	}
	wall := time.Since(t0)
	if err == nil && !traced {
		err = res.peakRSS()
	}
	if err != nil {
		tr.end(id, nil)
		return wall, r, err
	}
	tr.end(id, map[string]float64{"messages": float64(r.Messages), "rounds": float64(r.Rounds)})
	if !traced {
		return wall, r, nil
	}
	gd := memDelta(m0, readMem())
	busy, calls, ticks, spawn := b.clock.totals()
	self := (wall - busy).Seconds()
	if kind == "cold" {
		res.layer("sim.cold_self_s", self)
		res.layer("go.cold_allocs", gd.allocs)
		res.layer("go.cold_alloc_mb", gd.allocMB)
	} else {
		n := float64(b.topo.N())
		workers := float64(min(runtime.GOMAXPROCS(0), (b.topo.N()+sim.ShardSpan-1)/sim.ShardSpan))
		res.layer("sim.self_s", self)
		if r.Messages > 0 {
			res.layer("sim.ns_per_msg", self*1e9/float64(r.Messages))
		}
		res.layer("sim.ns_per_node_round", self*1e9/(n*float64(r.Rounds)))
		res.layer("node.step_s", busy.Seconds())
		res.layer("node.step_calls", float64(calls))
		res.layer("node.step_share", busy.Seconds()/(wall.Seconds()*workers))
		res.layer("node.spawn_s", spawn.Seconds())
		res.layer("node.tick_calls", float64(ticks))
		res.layer("go.allocs", gd.allocs)
		res.layer("go.alloc_mb", gd.allocMB)
		res.layer("go.gc_cycles", gd.gcs)
		res.layer("go.gc_pause_s", gd.pauseS)
	}
	if !l.Blocking {
		// The step aggregate: its length is the Step time summed over
		// every node and worker, not one interval of wall time.
		start := tr.spans[id-1].Start
		tr.add(span{Parent: id, Name: "node.step", Sample: sample, Start: start,
			End: start + busy.Nanoseconds(), Counters: map[string]float64{"calls": float64(calls)}})
	}
	return wall, r, nil
}

func readMemIf(on bool) *runtime.MemStats {
	if !on {
		return nil
	}
	return readMem()
}

// check applies the correctness gates to one run: a fault-free
// broadcast delivers every message it sends; a faulty run repeats the
// first run's ledger, which for seed 1 is pinned.
func (l engineLoad) check(b *built, r *sim.Result, faulty bool, seed int64, first **ledger) error {
	if !faulty {
		if want := int64(l.Rounds) * b.degSum; r.Messages != want || r.Dropped != 0 || r.Rounds != l.Rounds {
			return fmt.Errorf("%s: %d rounds, %d messages, %d dropped; want %d rounds, %d messages, 0 dropped",
				l.Spec, r.Rounds, r.Messages, r.Dropped, l.Rounds, want)
		}
		return nil
	}
	got := ledger{r.Messages, r.FaultDrops, r.Crashes, r.Restarts}
	if *first == nil {
		*first = &got
	}
	switch {
	case got != **first:
		return fmt.Errorf("%s under %s: ledger %+v differs from the first run's %+v", l.Spec, l.Faults, got, **first)
	case l.Pin != nil && seed == 1 && got != *l.Pin:
		return fmt.Errorf("%s under %s: ledger %+v, pinned %+v", l.Spec, l.Faults, got, *l.Pin)
	}
	return nil
}

// process runs one process's share of an engine workload: Builds timed
// set-ups, a cold run on the last one, then warm runs until at least
// minRuns have run and the deadline has passed, or maxRuns have run. In
// trace mode the cold run is traced and the warm runs alternate an
// untraced baseline with a traced run (plus, for a faulty workload, a
// fault-free twin), so trace.overhead compares like with like.
func (l engineLoad) process(seed int64, sample int, traced bool, minRuns, maxRuns int,
	deadline time.Time, res *result, tr *tracer) {
	root := tr.begin("sample", 0, sample)
	defer tr.end(root, nil)
	var b *built
	for i := 0; i < l.Builds; i++ {
		nb, err := l.setup(seed, res, tr, root, sample)
		if err != nil {
			res.op(fmt.Errorf("set-up: %w", err))
			return
		}
		b = nb
	}
	b.degSum = degreeSum(b.topo)
	if traced {
		b.clock = newNodeClock(b.topo.N())
	}
	faulty := l.Faults != ""
	var first *ledger
	once := func(eng *sim.Engine, kind string, tracedRun bool, out *[]float64) {
		wall, r, err := l.run(b, eng, kind, tracedRun, res, tr, root, sample)
		own := eng == b.eng // not the fault-free twin
		if err == nil {
			err = l.check(b, r, faulty && own, seed, &first)
		}
		res.op(err)
		if err != nil {
			return
		}
		*out = append(*out, wall.Seconds())
		if !own {
			return
		}
		res.Messages, res.Rounds = r.Messages, int64(r.Rounds)
		res.layer("sim.rounds", float64(r.Rounds))
		res.layer("sim.messages", float64(r.Messages))
		res.layer("sim.dropped", float64(r.Dropped))
		res.layer("sim.fault_drops", float64(r.FaultDrops))
		res.layer("sim.crashes", float64(r.Crashes))
		res.layer("sim.restarts", float64(r.Restarts))
		res.layer("sim.delivery_ratio", float64(r.Messages)/float64(r.Messages+r.Dropped))
	}
	once(b.eng, "cold", traced, &res.Cold)
	var twin *sim.Engine
	if traced && faulty {
		twin = sim.New(b.topo, sim.WithSeed(seed), sim.WithSimWorkers(0))
	}
	for runs := 0; runs < maxRuns && (runs < minRuns || time.Now().Before(deadline)); {
		once(b.eng, "baseline", false, &res.Warm)
		runs++
		if !traced {
			continue
		}
		once(b.eng, "warm", true, &res.Traced)
		if twin != nil {
			once(twin, "faultfree", false, &res.FaultFree)
		}
		runs++
	}
}

// runEngine runs an engine workload in this process, or, for a Fresh
// one, in a series of child processes that each build, run cold and run
// warm, so every cold sample starts from an empty heap.
func runEngine(l engineLoad, seed int64, traced bool, deadline time.Time, res *result, tr *tracer, stderr io.Writer) {
	if !l.Fresh {
		l.process(seed, 0, traced, minWarm, math.MaxInt, deadline, res, tr)
		return
	}
	for i := 0; i < minChildren || time.Now().Before(deadline); i++ {
		c, err := runChild(childReq{Load: l, Seed: seed, Sample: i, Traced: traced}, stderr)
		if err != nil {
			// The child's operations did not report: count them all failed.
			for range 1 + l.WarmRuns {
				res.op(fmt.Errorf("sample %d: %w", i, err))
			}
			continue
		}
		res.merge(c)
		tr.adopt(c.Spans)
	}
}

// childArg, as the only argument, makes the binary run one sample read
// from standard input and write its result to standard output.
const childArg = "-child"

type childReq struct {
	Load   engineLoad
	Seed   int64
	Sample int
	Traced bool
}

// childTimeout bounds one child process, well inside the time any
// single run of the command may take.
const childTimeout = 150 * time.Second

func runChild(req childReq, stderr io.Writer) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	in, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	var out bytes.Buffer
	cmd := exec.CommandContext(ctx, exe, childArg)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL} // dies with this process
	cmd.Stdin = bytes.NewReader(in)
	cmd.Stdout = &out
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("child process: %w", err)
	}
	res := newResult()
	if err := json.Unmarshal(out.Bytes(), res); err != nil {
		return nil, fmt.Errorf("child process output: %w", err)
	}
	return res, nil
}

// childMain is the child side of runChild.
func childMain(stdin io.Reader, stdout io.Writer) int {
	var req childReq
	if err := json.NewDecoder(stdin).Decode(&req); err != nil {
		fmt.Fprintln(os.Stderr, "mubench child:", err)
		return 2
	}
	res := newResult()
	var tr *tracer
	if req.Traced {
		tr = &tracer{} // the parent names the workload when it adopts the spans
	}
	l := req.Load
	l.process(req.Seed, req.Sample, req.Traced, l.WarmRuns, l.WarmRuns, time.Time{}, res, tr)
	if tr != nil {
		res.Spans = tr.spans
	}
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "mubench child:", err)
		return 1
	}
	return 0
}

// runGrid runs the paper's experiment grid serially, one cell at a time
// through bench.RunSerial, with one delivery worker per engine. The
// set-up samples build every cell's input graph exactly as the cell
// will, which is the topology layer's share of a pass.
func runGrid(sc scale, seed int64, traced bool, deadline time.Time, res *result, tr *tracer) {
	sim.SetDefaultWorkers(1)
	specs := bench.Specs()
	if sc.gridTopo != "" {
		specs = bench.OverrideTopo(specs, topo.MustParse(sc.gridTopo))
	}
	var topoBytes float64
	for _, sp := range specs {
		est, err := topo.MustParse(sp.Topo).Estimate()
		if err != nil {
			res.op(fmt.Errorf("grid %s: %w", sp.ID, err))
			return
		}
		topoBytes += float64(est.Bytes)
	}
	for i := 0; i < gridSetups; i++ {
		id := tr.begin("topo.build", 0, i)
		t0 := time.Now()
		for _, sp := range specs {
			if _, err := topo.MustParse(sp.Topo).Build(rand.New(rand.NewSource(bench.CellSeed(seed, sp.ID)))); err != nil {
				tr.end(id, nil)
				res.op(fmt.Errorf("grid %s: %w", sp.ID, err))
				return
			}
		}
		d := time.Since(t0).Seconds()
		tr.end(id, nil)
		res.Setup = append(res.Setup, d)
		res.layer("topo.build_s", d)
		res.layer("topo.bytes", topoBytes)
	}
	// Like an engine workload: a cold pass, then warm passes, which in
	// trace mode alternate an untraced baseline with a traced pass.
	var digest string
	sample := 0
	pass := func(kind string, tracedPass bool, out *[]float64) {
		gridPass(specs, seed, sample, kind, tracedPass, sc.gridGolden, &digest, out, res, tr)
		sample++
	}
	pass("cold", traced, &res.Cold)
	for i := 0; i < minWarmPasses || time.Now().Before(deadline); i++ {
		pass("baseline", false, &res.Warm)
		if traced {
			pass("warm", true, &res.Traced)
		}
	}
}

// gridPass runs every cell once, gates the records and books the
// timings; out receives the pass's wall time.
func gridPass(specs []bench.Spec, seed int64, sample int, kind string, traced bool,
	golden string, digest *string, out *[]float64, res *result, tr *tracer) {
	cold := kind == "cold"
	if !traced {
		if err := resetPeakRSS(); err != nil {
			res.op(err)
			return
		}
	}
	pid := tr.begin("grid.pass."+kind, 0, sample)
	m0 := readMemIf(traced)
	var (
		tables []*bench.Table
		errs   []error
		simS   float64
		rounds int64
		msgs   int64
		failed bool
	)
	t0 := time.Now()
	for _, sp := range specs {
		cid := tr.begin("grid.cell", pid, sample)
		c0 := time.Now()
		t, err := runCell(sp, seed)
		cellS := time.Since(c0).Seconds()
		errs = append(errs, err)
		if err != nil {
			tr.end(cid, nil)
			failed = true
			continue
		}
		tables = append(tables, t)
		var cSim float64
		var cRounds int64
		for _, r := range t.Records {
			cSim += r.WallTime.Seconds()
			cRounds += int64(r.Rounds)
			msgs += r.Messages
		}
		tr.end(cid, map[string]float64{"rounds": float64(cRounds)})
		simS += cSim
		rounds += cRounds
		if traced && !cold {
			c := cellMetric(sp.ID)
			res.layer(c+".s", cellS)
			res.layer(c+".sim_s", cSim)
			res.layer(c+".rounds", float64(cRounds))
			res.layer(c+".us_per_round", cSim*1e6/float64(max(cRounds, 1)))
		}
	}
	wall := time.Since(t0).Seconds()
	tr.end(pid, map[string]float64{"rounds": float64(rounds), "messages": float64(msgs)})
	var passErr error
	if !traced {
		passErr = res.peakRSS()
	}
	if passErr == nil && !failed {
		passErr = gateRecords(tables, seed, golden, digest)
	}
	if passErr != nil {
		// The gate covers the pass's whole record document, so a
		// mismatch fails each of its cells.
		failed = true
		for i := range errs {
			errs[i] = passErr
		}
	}
	for _, err := range errs {
		res.op(err)
	}
	if failed {
		return
	}
	res.Messages, res.Rounds = msgs, rounds
	res.layer("sim.rounds", float64(rounds))
	res.layer("sim.messages", float64(msgs))
	res.layer("sim.dropped", 0)
	res.layer("sim.delivery_ratio", 1)
	*out = append(*out, wall)
	if !traced {
		return
	}
	gd := memDelta(m0, readMem())
	if cold {
		res.layer("sim.cold_self_s", simS)
		res.layer("go.cold_allocs", gd.allocs)
		res.layer("go.cold_alloc_mb", gd.allocMB)
		return
	}
	res.layer("sim.self_s", simS)
	res.layer("sim.ns_per_msg", simS*1e9/float64(msgs))
	res.layer("go.allocs", gd.allocs)
	res.layer("go.alloc_mb", gd.allocMB)
	res.layer("go.gc_cycles", gd.gcs)
	res.layer("go.gc_pause_s", gd.pauseS)
}

// runCell runs one grid cell. The experiment runners panic on an engine
// error, which is reported here as the cell's failure.
func runCell(sp bench.Spec, seed int64) (t *bench.Table, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("grid %s: %v", sp.ID, p)
		}
	}()
	return bench.RunSerial([]bench.Spec{sp}, seed)[0], nil
}

// gateRecords checks a pass's records document: its SHA-256 equals the
// first pass's and, for seed 1, the pinned digest.
func gateRecords(tables []*bench.Table, seed int64, golden string, digest *string) error {
	h := sha256.New()
	if err := bench.WriteRecordsJSON(h, bench.Records(tables)); err != nil {
		return fmt.Errorf("grid records: %w", err)
	}
	sum := hex.EncodeToString(h.Sum(nil))
	if *digest == "" {
		*digest = sum
	}
	switch {
	case sum != *digest:
		return fmt.Errorf("grid records digest %s differs from the first pass's %s", sum, *digest)
	case golden != "" && seed == 1 && sum != golden:
		return fmt.Errorf("grid records digest %s, pinned %s", sum, golden)
	}
	return nil
}
