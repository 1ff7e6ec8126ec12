// Command cwsprecover demonstrates and verifies cWSP's power-failure
// recovery: it runs a workload, cuts power at one or many cycles, executes
// the recovery protocol (undo-log rollback, recovery-slice replay, region
// re-execution), and diffs the final NVM image against an uninterrupted run
// — the experiment the paper itself leaves as future work (Section VIII).
//
// Usage:
//
//	cwsprecover -w tatp -crash 50000     # one crash point
//	cwsprecover -w radix -sweep 25       # 25 crash points across the run
//	cwsprecover -seed 7 -sweep 50        # a random program instead
//	cwsprecover -w tatp -sweep 50 -jobs 8  # crash points in parallel
//
// Crash points are independent (they share only the program and the golden
// NVM image, both read-only), so -jobs fans the sweep out over a worker
// pool; the report is identical to the serial order.
//
// With -faults it replays one fault-injection experiment — typically a
// reproducer printed by a failing cwsptorture campaign:
//
//	cwsprecover -w tatp -faults 'crashes=350,700;torn-log@0:3:ffffffff00000000'
//
// Exit status: 0 for clean or detected (survival), 1 for silent divergence
// or an undiagnosed error.
package main

import (
	"flag"
	"fmt"
	"os"

	"cwsp/internal/compiler"
	"cwsp/internal/faults"
	"cwsp/internal/ir"
	"cwsp/internal/progen"
	"cwsp/internal/recovery"
	"cwsp/internal/sim"
	"cwsp/internal/telemetry/live"
	"cwsp/internal/workloads"
)

func main() {
	var (
		wName    = flag.String("w", "", "workload name")
		seed     = flag.Int64("seed", -1, "random program seed (instead of -w)")
		scale    = flag.String("scale", "smoke", "workload scale: smoke, quick, full")
		crash    = flag.Int64("crash", 0, "single crash cycle (0 = use -sweep)")
		sweep    = flag.Int("sweep", 20, "number of evenly spaced crash points")
		jobs     = flag.Int("jobs", 1, "parallel crash points (0 = GOMAXPROCS, 1 = serial)")
		spec     = flag.String("faults", "", "fault plan spec to replay (see cwsptorture)")
		unsealed = flag.Bool("unsealed", false, "disable seal validation (negative control)")
		httpAddr = flag.String("http", "", "serve the live observability endpoint (/metrics, /progress, /events, /debug/pprof) on this address")
	)
	flag.Parse()
	sc, err := workloads.ScaleByName(*scale)
	if err != nil {
		fatal(err)
	}

	var bus *live.Bus
	if *httpAddr != "" {
		bus = live.NewBus()
		srv := live.NewServer(bus)
		addr, err := srv.Start(*httpAddr)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "cwsprecover: live endpoint on http://%s (/metrics /progress /events /debug/pprof)\n", addr)
		defer srv.Close()
	}

	var prog *ir.Program
	switch {
	case *seed >= 0:
		prog = progen.Generate(*seed, progen.DefaultConfig())
	case *wName != "":
		w, err := workloads.ByName(*wName)
		if err != nil {
			fatal(err)
		}
		prog = w.Build(sc)
	default:
		fmt.Fprintln(os.Stderr, "cwsprecover: need -w <workload> or -seed <n>")
		os.Exit(2)
	}

	compiled, rep, err := compiler.Compile(prog, compiler.DefaultOptions())
	if err != nil {
		fatal(err)
	}
	fmt.Printf("compiled: %d regions, %d checkpoints (%d pruned)\n",
		rep.TotalRegions(), rep.TotalCheckpoints(), rep.PrunedCheckpoints())

	cfg := sim.DefaultConfig()
	cfg.Unsealed = *unsealed
	specs := []sim.ThreadSpec{{Fn: compiled.Entry}}
	golden, err := recovery.Golden(compiled, cfg, sim.CWSP(), specs)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("golden run: %d cycles, %d instructions\n", golden.Stats.Cycles, golden.Stats.Instrs)

	if *spec != "" {
		plan, err := faults.ParseSpec(*spec)
		if err != nil {
			fatal(err)
		}
		r, err := recovery.CheckFaults(compiled, cfg, sim.CWSP(), specs, plan, golden)
		if err != nil {
			fatal(err)
		}
		reportFaults(r)
		if r.Failed() {
			os.Exit(1)
		}
		return
	}

	if *crash > 0 {
		res, err := recovery.Check(compiled, cfg, sim.CWSP(), specs, *crash, golden)
		if err != nil {
			fatal(err)
		}
		report(res)
		if !res.Match {
			os.Exit(1)
		}
		return
	}

	var (
		fail    *recovery.CheckResult
		checked int
	)
	if *jobs == 1 {
		fail, checked, err = recovery.Sweep(compiled, cfg, sim.CWSP(), specs, *sweep)
	} else {
		fail, checked, err = recovery.SweepParallel(compiled, cfg, sim.CWSP(), specs, *sweep, *jobs, bus)
	}
	if err != nil {
		fatal(err)
	}
	if fail != nil {
		report(fail)
		os.Exit(1)
	}
	fmt.Printf("all %d crash points recovered to the exact golden NVM state\n", checked)
}

func reportFaults(r *recovery.FaultResult) {
	fmt.Printf("fault replay: crashes at cycles %v\n", r.Crashes)
	for _, inj := range r.Injected {
		if inj.Skipped {
			fmt.Printf("  crash %d: %s skipped (no eligible victim)\n", inj.Crash, inj.Kind)
			continue
		}
		fmt.Printf("  crash %d: %s journal[%d] addr 0x%x xor %x\n",
			inj.Crash, inj.Kind, inj.Index, inj.Addr, inj.XOR)
	}
	switch r.Outcome {
	case recovery.OutcomeClean:
		fmt.Printf("  outcome: clean — recovered to golden NVM after %d re-executed instructions\n", r.ReExecuted)
	case recovery.OutcomeDetected:
		fmt.Printf("  outcome: detected — %v\n", r.Detected)
	case recovery.OutcomeDiverged:
		fmt.Printf("  outcome: SILENT DIVERGENCE at addresses %v\n", r.DiffAddrs)
	default:
		fmt.Printf("  outcome: error — %s\n", r.Err)
	}
}

func report(r *recovery.CheckResult) {
	fmt.Printf("crash at cycle %d:\n", r.CrashCycle)
	for _, ri := range r.RestartedAt {
		fmt.Printf("  core %d restarts at %s region %d (b%d[%d], depth %d)\n",
			ri.Core, ri.Fn, ri.StaticID, ri.Ref.Block, ri.Ref.Index, ri.Depth)
	}
	if r.Match {
		fmt.Printf("  recovered: NVM identical to golden after %d re-executed instructions\n", r.ReExecuted)
	} else {
		fmt.Printf("  MISMATCH at addresses %v\n", r.DiffAddrs)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cwsprecover:", err)
	os.Exit(1)
}
