package main

import (
	"fmt"
	"time"

	"cwsp/internal/compiler"
	"cwsp/internal/ir"
	"cwsp/internal/schemes"
	"cwsp/internal/sim"
	"cwsp/internal/workloads"
)

// simCell is one simulation the sim-* workloads repeat: an application
// under a scheme, on one core or (threads > 0) on the multi-core lock
// benchmark.
type simCell struct {
	app     string
	scheme  string
	compile bool
	threads int
}

// simScale is the scale every sim cell runs at.
var simScale = workloads.Full

func (c simCell) key() string {
	return fmt.Sprintf("%s/%s_%s", simScale.Name, c.app, c.scheme)
}

// simPersistCells run compiled under cwsp, where the persist path does the
// most work.
var simPersistCells = []simCell{
	{app: "tatp", scheme: "cwsp", compile: true},
	{app: "lbm", scheme: "cwsp", compile: true},
	{app: "sps", scheme: "cwsp", compile: true},
	{app: "kmeans", scheme: "cwsp", compile: true},
	{app: "mt", scheme: "cwsp", compile: true, threads: 2},
}

// simBaseCells run the same dispatch and memory code uncompiled under base,
// with no persist path and no regions, plus the register-resident compute
// kernel.
var simBaseCells = []simCell{
	{app: "tatp", scheme: "base"},
	{app: "lbm", scheme: "base"},
	{app: "sps", scheme: "base"},
	{app: "kmeans", scheme: "base"},
	{app: "xsbench", scheme: "base"},
	{app: "compute", scheme: "base"},
}

// mtIters is the per-thread iteration count of the multi-core cell.
const mtIters = 600

// simProg is a cell ready to run.
type simProg struct {
	key   string
	prog  *ir.Program
	specs []sim.ThreadSpec
	sch   sim.Scheme
	cfg   sim.Config
}

// buildSim builds and compiles every cell's program, recording a
// compiler.compile span per compiled program. It returns the compile time.
func buildSim(e *env, cells []simCell) ([]simProg, time.Duration, error) {
	var progs []simProg
	var compileTime time.Duration
	for _, c := range cells {
		var p *ir.Program
		switch c.app {
		case "mt":
			p = workloads.BuildMTWorker()
		case "compute":
			p = workloads.BuildComputeKernel()
		default:
			w, err := workloads.ByName(c.app)
			if err != nil {
				return nil, 0, err
			}
			p = w.Build(simScale)
		}
		if c.compile {
			t0 := time.Now()
			cp, _, err := compiler.Compile(p, compiler.DefaultOptions())
			t1 := time.Now()
			if err != nil {
				return nil, 0, fmt.Errorf("compile %s: %w", c.app, err)
			}
			e.tr.add(e.tr.newID(), 0, "compiler.compile", 0, t0, t1)
			compileTime += t1.Sub(t0)
			p = cp
		}
		specs := []sim.ThreadSpec{{Fn: p.Entry}}
		if c.threads > 0 {
			specs = nil
			for i := 0; i < c.threads; i++ {
				specs = append(specs, sim.ThreadSpec{Fn: "worker", Args: []int64{int64(i), mtIters}})
			}
		}
		sch, ok := schemes.ByName(c.scheme)
		if !ok {
			return nil, 0, fmt.Errorf("unknown scheme %s", c.scheme)
		}
		progs = append(progs, simProg{
			key: c.key(), prog: p, specs: specs,
			sch: sch, cfg: schemes.ConfigFor(sch, sim.DefaultConfig()),
		})
	}
	return progs, compileTime, nil
}

// Rounds per second of each sim workload on the calibration host.
const (
	simPersistRate = 2
	simBaseRate    = 4.5
)

func runSimPersist(e *env) (*phase, error) { return runSim(e, simPersistCells, simPersistRate) }
func runSimBase(e *env) (*phase, error)    { return runSim(e, simBaseCells, simBaseRate) }

// runSim sets up (repeatedly) by building and compiling the cells'
// programs and running each once, so pools, paged memory and lazily built
// tables are filled before timing. It then runs rounds of every cell. An
// op is one NewThreaded + Run; every result is checked against its golden.
func runSim(e *env, cells []simCell, rate float64) (*phase, error) {
	ph := newPhase()
	var progs []simProg
	var compile []float64
	for i := 0; i < e.opt.setupReps; i++ {
		t0 := time.Now()
		p, ct, err := buildSim(e, cells)
		if err != nil {
			return nil, err
		}
		for _, sp := range p {
			simulate(e, sp)
		}
		ph.setup = append(ph.setup, time.Since(t0).Seconds())
		compile = append(compile, ms(ct))
		progs = p
	}

	var newT, runT time.Duration
	instrs := map[string]int64{} // per cell, the same every round
	count := map[string]float64{}
	m := begin()
	for round := e.units(rate); round > 0; round-- {
		for _, p := range progs {
			st, dNew, dRun, ok := simulate(e, p)
			if !ok {
				continue
			}
			ph.op(p.key, dNew+dRun)
			newT += dNew
			runT += dRun
			instrs[p.key] = st.Instrs
			count["sim.instrs"] += float64(st.Instrs)
			count["sim.regions"] += float64(st.Regions)
			count["sim.ckpts"] += float64(st.Ckpts)
			count["mem.l1d_accs"] += float64(st.L1DAccs)
			count["mem.l1d_misses"] += float64(st.L1DMisses)
			count["mem.l2_misses"] += float64(st.L2Misses)
			count["mem.nvm_reads"] += float64(st.NVMReads)
			count["persist.bytes"] += float64(st.PersistBytes)
			count["persist.log_bytes"] += float64(st.LogBytes)
			count["persist.pb_stall_cyc"] += float64(st.PBStallCyc)
			count["persist.drain_stall_cyc"] += float64(st.DrainStallCyc)
			count["persist.wpq_hits"] += float64(st.WPQHits)
		}
	}
	m.end(ph)

	ph.layer["compiler.compile_ms"] = quantile(compile, 0.5)
	if ph.ops > 0 {
		for k, v := range count {
			ph.layer[k] = v / float64(ph.ops)
		}
		ph.layer["sim.new_us"] = float64(newT.Microseconds()) / float64(ph.ops)
		ph.layer["sim.run_ms"] = ms(runT) / float64(ph.ops)
		// Simulated instructions per host second, each cell at its best time.
		var total, bestMS float64
		floor := ph.floors()
		for k, n := range instrs {
			total += float64(n)
			bestMS += floor[k]
		}
		ph.layer["sim.minstr_per_s"] = total / bestMS / 1e3
	}
	return ph, nil
}

// simulate runs one cell and checks it against its golden. It returns the
// cell's statistics and the host time of NewThreaded and of Run; ok is
// false when the cell failed.
func simulate(e *env, p simProg) (st sim.Stats, newT, runT time.Duration, ok bool) {
	cell := e.tr.newID()
	t0 := time.Now()
	m, err := sim.NewThreaded(p.prog, p.cfg, p.sch, p.specs)
	t1 := time.Now()
	if err != nil {
		e.check.fail("%s: %v", p.key, err)
		return st, 0, 0, false
	}
	res, err := m.Run()
	t2 := time.Now()
	if err != nil {
		e.check.fail("%s: %v", p.key, err)
		return st, 0, 0, false
	}
	e.tr.add(e.tr.newID(), cell, "sim.new", 0, t0, t1)
	e.tr.add(e.tr.newID(), cell, "sim.run", 0, t1, t2)
	ok = e.check.sim(p.key, res)
	e.tr.add(cell, 0, "cell", 0, t0, time.Now())
	return res.Stats, t1.Sub(t0), t2.Sub(t1), ok
}
