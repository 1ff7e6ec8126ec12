// Package recovery drives cWSP's power-failure recovery protocol end to
// end and verifies the paper's central guarantee — something the paper
// itself leaves as future work ("No Power Failure Recovery Test",
// Section VIII): for ANY crash cycle, rolling back speculative NVM updates
// with the MC undo logs, restoring the restart region's live-in registers
// via its recovery slice, and re-executing from the oldest unpersisted
// region yields exactly the NVM state of an uninterrupted run.
package recovery

import (
	"fmt"

	"cwsp/internal/ir"
	"cwsp/internal/runner"
	"cwsp/internal/sim"
	"cwsp/internal/telemetry/live"
)

// CheckResult reports one crash/recovery experiment.
type CheckResult struct {
	CrashCycle   int64
	GoldenCycles int64
	Match        bool
	DiffAddrs    []int64
	RestartedAt  []sim.RegionInfo // per non-done core
	ReExecuted   int64            // dynamic instructions executed after resume
}

// Golden runs the program uninterrupted and returns its final result. A
// run that never crashes never reads the persist journal or region log,
// so Golden turns Config.Recoverable off whatever the caller passed;
// results are identical either way (internal/simtest pins this).
func Golden(prog *ir.Program, cfg sim.Config, sch sim.Scheme, specs []sim.ThreadSpec) (*sim.Result, error) {
	cfg.Recoverable = false
	m, err := sim.NewThreaded(prog, cfg, sch, specs)
	if err != nil {
		return nil, err
	}
	return m.Run()
}

// Check crashes the program at crashCycle, recovers, re-executes to
// completion, and compares the final NVM image with the golden run's.
func Check(prog *ir.Program, cfg sim.Config, sch sim.Scheme, specs []sim.ThreadSpec, crashCycle int64, golden *sim.Result) (*CheckResult, error) {
	cfg.Recoverable = true
	crashM, err := sim.NewThreaded(prog, cfg, sch, specs)
	if err != nil {
		return nil, err
	}
	cs, err := crashM.CrashAt(crashCycle)
	if err != nil {
		return nil, err
	}

	resumed, err := sim.NewResumed(prog, cfg, sch, specs, cs)
	if err != nil {
		return nil, err
	}
	res, err := resumed.Run()
	if err != nil {
		return nil, fmt.Errorf("recovery: resumed run: %w", err)
	}

	match := nvmMatches(res, golden, len(specs))
	out := &CheckResult{
		CrashCycle:   crashCycle,
		GoldenCycles: golden.Stats.Cycles,
		Match:        match,
		ReExecuted:   res.Stats.Instrs,
	}
	for _, r := range cs.Restarts {
		if !r.Done {
			out.RestartedAt = append(out.RestartedAt, r.Region)
		}
	}
	if !out.Match {
		out.DiffAddrs = res.NVM.Diff(golden.NVM, 8)
	}
	return out, nil
}

// nvmMatches applies the protocol's equality criterion. Single-threaded
// runs are fully deterministic: the recovered NVM must match the golden
// image bit for bit, including checkpoint slots and stack spills.
// Multi-threaded runs may legally reschedule after recovery (DRF programs
// admit any interleaving), so volatile-register shadow state — checkpoint
// slots and stack frames, whose contents depend on spin counts and lock
// acquisition order — is excluded; all program data (heap, globals, emit
// buffer) must still match exactly.
func nvmMatches(res *sim.Result, golden *sim.Result, nthreads int) bool {
	if res.NVM.Equal(golden.NVM) {
		return true
	}
	if nthreads <= 1 {
		return false
	}
	return res.NVM.EqualWhere(golden.NVM, func(addr int64) bool {
		if addr >= sim.StackBase && addr < sim.CkptBase+int64(sim.MaxCores)*sim.CkptStride {
			return false // stacks + checkpoint areas
		}
		return true
	})
}

// Sweep checks n evenly spaced crash cycles across the golden run's
// duration (plus the degenerate extremes) and returns the first failure,
// or nil if every crash recovers. It stops at the first mismatch, so the
// checked count is the number of crash points examined.
func Sweep(prog *ir.Program, cfg sim.Config, sch sim.Scheme, specs []sim.ThreadSpec, n int) (*CheckResult, int, error) {
	g, err := Golden(prog, cfg, sch, specs)
	if err != nil {
		return nil, 0, err
	}
	total := g.Stats.Cycles
	checked := 0
	for i := 0; i <= n; i++ {
		crash := sweepCycle(total, i, n)
		r, err := Check(prog, cfg, sch, specs, crash, g)
		if err != nil {
			return nil, checked, err
		}
		checked++
		if !r.Match {
			return r, checked, nil
		}
	}
	return nil, checked, nil
}

func sweepCycle(total int64, i, n int) int64 {
	crash := total * int64(i) / int64(n)
	if crash == 0 {
		crash = 1
	}
	return crash
}

// SweepParallel is Sweep over a runner worker pool: every crash point is an
// independent cell (crash/recover/re-execute runs share only read-only
// state — the program and the golden NVM image), so a multi-run recovery
// campaign scales with cores. Results are examined in crash-cycle order
// regardless of completion order: the reported failure and checked count
// are exactly what the serial Sweep would report, except that later crash
// points have also been verified by the time it returns. A non-nil bus
// receives the pool's cell events plus one RecoveryOutcome per verified
// crash point (clean on match, diverged on mismatch).
func SweepParallel(prog *ir.Program, cfg sim.Config, sch sim.Scheme, specs []sim.ThreadSpec, n, jobs int, bus *live.Bus) (*CheckResult, int, error) {
	g, err := Golden(prog, cfg, sch, specs)
	if err != nil {
		return nil, 0, err
	}
	total := g.Stats.Cycles
	cells := make([]runner.Cell[*CheckResult], 0, n+1)
	for i := 0; i <= n; i++ {
		crash := sweepCycle(total, i, n)
		cells = append(cells, runner.Cell[*CheckResult]{
			Key: runner.Key{
				Kind:     "recovery",
				Workload: prog.Name,
				Scheme:   fmt.Sprintf("%+v", sch),
				CfgSig:   fmt.Sprintf("%+v|specs=%+v|crash=%d", cfg, specs, crash),
			},
			Run: func() (*CheckResult, error) {
				r, err := Check(prog, cfg, sch, specs, crash, g)
				if err == nil && bus != nil {
					outcome := "clean"
					if !r.Match {
						outcome = "diverged"
					}
					bus.Publish(live.Event{Kind: live.RecoveryOutcome, Outcome: outcome, Crash: crash})
				}
				return r, err
			},
		})
	}
	pool := runner.NewPool[*CheckResult](runner.Options{Jobs: jobs, Bus: bus})
	results, err := pool.Run(cells)
	if err != nil {
		return nil, 0, err
	}
	for i, r := range results {
		if !r.Match {
			return r, i + 1, nil
		}
	}
	return nil, len(results), nil
}
