// Package cwsp is the public facade of the cWSP reproduction: a
// compiler/architecture codesign for whole-system persistence on NVM main
// memory (Zeng, Zhang, Jung — ISCA 2024).
//
// The typical flow is:
//
//	prog := mybench.Build()                     // an ir.Program
//	out, report, _ := cwsp.Compile(prog)        // idempotent regions + pruned checkpoints
//	res, _ := cwsp.Run(out, cwsp.DefaultConfig(), cwsp.SchemeCWSP())
//	fmt.Println(res.Stats.Cycles)
//
// Crash consistency can be exercised directly:
//
//	ok, _ := cwsp.CheckCrashConsistency(out, cfg, crashCycle)
//
// Subsystems live in internal/ packages; this package re-exports the
// stable surface: the compiler driver, the machine model, the scheme
// catalogue, the 37-workload suite, and the per-figure experiment harness.
package cwsp

import (
	"io"

	"cwsp/internal/bench"
	"cwsp/internal/compiler"
	"cwsp/internal/ir"
	"cwsp/internal/recovery"
	"cwsp/internal/schemes"
	"cwsp/internal/sim"
	"cwsp/internal/workloads"
)

// Re-exported core types.
type (
	// Program is the virtual-register IR program the toolchain operates on.
	Program = ir.Program
	// Config is the machine configuration (hierarchy, persist structures).
	Config = sim.Config
	// Scheme selects the crash-consistency discipline.
	Scheme = sim.Scheme
	// Result is a completed simulation.
	Result = sim.Result
	// Stats holds a run's counters.
	Stats = sim.Stats
	// CompileReport summarizes region formation and checkpoint pruning.
	CompileReport = compiler.Report
	// Workload is one of the 37 benchmark applications.
	Workload = workloads.Workload
	// ExperimentReport is one regenerated paper table/figure.
	ExperimentReport = bench.Report
)

// DefaultConfig returns the paper's default machine (scaled; see DESIGN.md).
func DefaultConfig() Config { return sim.DefaultConfig() }

// SchemeBaseline returns the no-crash-consistency baseline.
func SchemeBaseline() Scheme { return sim.Baseline() }

// SchemeCWSP returns the full cWSP design.
func SchemeCWSP() Scheme { return sim.CWSP() }

// SchemeByName resolves any scheme the benchmark harness knows
// ("cwsp", "capri", "ido", "replaycache", "psp-ideal", ...).
func SchemeByName(name string) (Scheme, bool) { return schemes.ByName(name) }

// Compile runs the cWSP compiler (region formation, checkpoint insertion,
// Penny-style pruning, recovery slices, live-across-call analysis) over a
// program, returning the transformed program and a report. The input is
// not modified.
func Compile(p *Program) (*Program, *CompileReport, error) {
	return compiler.Compile(p, compiler.DefaultOptions())
}

// Run executes a program to completion on the machine model.
func Run(p *Program, cfg Config, sch Scheme) (*Result, error) {
	m, err := sim.New(p, cfg, sch)
	if err != nil {
		return nil, err
	}
	return m.Run()
}

// CheckCrashConsistency cuts power at the given cycle of a cWSP run,
// executes the recovery protocol, re-runs to completion, and reports
// whether the final NVM image matches an uninterrupted run exactly.
// The program must be compiled (see Compile).
func CheckCrashConsistency(p *Program, cfg Config, crashCycle int64) (bool, error) {
	specs := []sim.ThreadSpec{{Fn: p.Entry}}
	g, err := recovery.Golden(p, cfg, sim.CWSP(), specs)
	if err != nil {
		return false, err
	}
	r, err := recovery.Check(p, cfg, sim.CWSP(), specs, crashCycle, g)
	if err != nil {
		return false, err
	}
	return r.Match, nil
}

// Workloads returns the 37-application suite in paper order.
func Workloads() []Workload { return workloads.All() }

// WorkloadByName looks up one application.
func WorkloadByName(name string) (Workload, error) { return workloads.ByName(name) }

// Experiments lists the registered paper reproductions (fig01..fig27,
// hwcost, compiler).
func Experiments() []bench.Experiment { return bench.Experiments() }

// RunExperiment regenerates one paper table/figure. scale is "smoke",
// "quick" or "full"; log (may be nil) receives progress lines.
func RunExperiment(id, scale string, log io.Writer) (*ExperimentReport, error) {
	e, err := bench.ByID(id)
	if err != nil {
		return nil, err
	}
	s, err := workloads.ScaleByName(scale)
	if err != nil {
		return nil, err
	}
	h := bench.NewHarness(bench.Options{Scale: s, Log: log})
	return e.Run(h)
}
