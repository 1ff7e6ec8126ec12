// Command cwsptorture runs seeded adversarial fault-injection campaigns
// against cWSP's recovery protocol: hundreds of crash/recover/re-execute
// cells per invocation, each with reproducible injected corruption (torn
// undo-log records, dropped or reordered WPQ tail entries, corrupted
// checkpoint words) and optionally nested crashes *during* recovery.
//
// The survival criterion is strict: every cell must end clean (rolled back
// to the exact golden NVM image) or detected (a typed CorruptionError from
// a seal-validation layer). A silent NVM divergence fails the campaign and
// is shrunk to a minimal standalone reproducer.
//
// Usage:
//
//	cwsptorture -seed 1 -n 20                  # 20 cells x 5 default workloads
//	cwsptorture -seed 1 -n 100 -depth 3        # 3 nested crashes per cell
//	cwsptorture -w tatp -n 50 -points 4        # one workload, denser faults
//	cwsptorture -seed 1 -n 5 -unsealed         # negative control: must fail
//
// A failing campaign prints a cwsprecover command replaying the shrunk
// plan, e.g.:
//
//	cwsprecover -w tatp -scale smoke -faults 'crashes=350;torn-log@0:3:aa'
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"cwsp/internal/compiler"
	"cwsp/internal/faults"
	"cwsp/internal/litmus"
	"cwsp/internal/recovery"
	"cwsp/internal/runner"
	"cwsp/internal/sim"
	"cwsp/internal/telemetry"
	"cwsp/internal/telemetry/live"
	"cwsp/internal/workloads"
)

func main() {
	var (
		seed     = flag.Int64("seed", 1, "campaign master seed")
		n        = flag.Int("n", 20, "cells (fault plans) per workload")
		wList    = flag.String("w", "tatp,tpcc,rb,kmeans,vacation", "comma-separated workloads")
		scale    = flag.String("scale", "smoke", "workload scale: smoke, quick, full")
		depth    = flag.Int("depth", 2, "crashes per cell (>= 2 crashes recovery itself)")
		points   = flag.Int("points", 3, "fault points per cell")
		jobs     = flag.Int("jobs", 0, "worker pool width (0 = GOMAXPROCS)")
		out      = flag.String("out", "", "write the JSON campaign report here")
		metrics  = flag.String("metrics-out", "", "write a telemetry manifest here")
		cacheDir = flag.String("cache-dir", "", "persistent cell-result cache directory")
		unsealed = flag.Bool("unsealed", false, "disable seal validation (negative control; campaign should fail)")
		noShrink = flag.Bool("no-shrink", false, "skip shrinking the first failing cell")
		httpAddr = flag.String("http", "", "serve the live observability endpoint (/metrics, /progress, /events, /debug/pprof) on this address")
		progress = flag.Bool("progress", true, "live one-line progress/ETA ticker on stderr")
	)
	flag.Parse()
	sc, err := workloads.ScaleByName(*scale)
	if err != nil {
		fatal(err)
	}

	var targets []recovery.TortureTarget
	for _, name := range strings.Split(*wList, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		w, err := workloads.ByName(name)
		if err != nil {
			fatal(err)
		}
		prog, _, err := compiler.Compile(w.Build(sc), compiler.DefaultOptions())
		if err != nil {
			fatal(fmt.Errorf("compile %s: %w", name, err))
		}
		targets = append(targets, recovery.TortureTarget{
			Name:  name,
			Prog:  prog,
			Specs: []sim.ThreadSpec{{Fn: prog.Entry}},
		})
	}
	if len(targets) == 0 {
		fmt.Fprintln(os.Stderr, "cwsptorture: no workloads selected")
		os.Exit(2)
	}

	opts := recovery.TortureOptions{
		Seed:           *seed,
		CellsPerTarget: *n,
		Depth:          *depth,
		Points:         *points,
		Cfg:            sim.DefaultConfig(),
		Sch:            sim.CWSP(),
		Unsealed:       *unsealed,
		Jobs:           *jobs,
	}

	// The ticker and the -http endpoint render the same bus, so the
	// terminal line and a /progress scrape can never disagree.
	var bus *live.Bus
	liveAddr := ""
	if *httpAddr != "" || *progress {
		bus = live.NewBus()
		opts.Bus = bus
	}
	if *httpAddr != "" {
		srv := live.NewServer(bus)
		addr, err := srv.Start(*httpAddr)
		if err != nil {
			fatal(err)
		}
		liveAddr = addr
		fmt.Fprintf(os.Stderr, "cwsptorture: live endpoint on http://%s (/metrics /progress /events /debug/pprof)\n", addr)
		defer srv.Close()
	}

	if *cacheDir != "" {
		st, err := runner.OpenStore(*cacheDir)
		if err != nil {
			fatal(err)
		}
		defer st.Close()
		st.SetBus(bus)
		opts.Store = st
	}

	fmt.Printf("campaign: seed %d, %d workloads x %d cells, depth %d, %d points%s\n",
		*seed, len(targets), *n, *depth, *points, sealNote(*unsealed))
	var tick *live.Ticker
	if *progress {
		tick = live.StartTicker(os.Stderr, bus, 500*time.Millisecond)
	}
	rep, prog, err := recovery.RunTorture(targets, opts)
	tick.Stop()
	if err != nil {
		fatal(err)
	}

	t := rep.Totals
	fmt.Printf("cells: %d  crashes: %d  injected: %d (skipped %d)\n",
		t.Cells, t.Crashes, t.Injected, t.Skipped)
	fmt.Printf("outcomes: %d clean, %d detected, %d diverged, %d errors\n",
		t.Clean, t.Detected, t.Diverged, t.Errors)

	if *out != "" {
		b, err := rep.WriteJSON()
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*out, b, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("report: %s\n", *out)
	}
	if *metrics != "" {
		m := telemetry.NewManifest("cwsptorture")
		m.Workload = *wList
		m.Scheme = opts.Sch.Name
		m.Scale = *scale
		m.LiveAddr = liveAddr
		totals := t
		m.Faults = &totals
		width := *jobs
		if width <= 0 {
			width = runtime.GOMAXPROCS(0)
		}
		info := prog.Info(width)
		m.Runner = &info
		f, err := os.Create(*metrics)
		if err != nil {
			fatal(err)
		}
		if err := m.Write(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("manifest: %s\n", *metrics)
	}

	failures := rep.Failures()
	if len(failures) == 0 {
		fmt.Println("campaign PASSED: no silent divergence, no undiagnosed errors")
		return
	}

	fmt.Printf("campaign FAILED: %d cell(s) violated the survival criterion\n", len(failures))
	fc := failures[0]
	fmt.Printf("first failure: workload %s cell %d (plan seed %d): %s\n",
		fc.Workload, fc.Cell, fc.PlanSeed, fc.Outcome)
	spec := fc.Faults
	if !*noShrink {
		if shrunk := shrink(targets, opts, fc); shrunk != "" {
			spec = shrunk
		}
	}
	fmt.Printf("reproduce with:\n  cwsprecover -w %s -scale %s%s -faults '%s'\n",
		fc.Workload, *scale, sealFlag(*unsealed), spec)
	printLitmusRepro(spec, opts.Sch.Name, *unsealed)
	os.Exit(1)
}

// printLitmusRepro prints the equivalent persistency-model litmus replay
// when the failing cell's (shrunk) plan reduces to a litmus-shaped
// interleaving — one crash, persist-path fault kinds only — so the same
// schedule can be judged against the derived allowed outcome set with one
// flag.
func printLitmusRepro(spec, scheme string, unsealed bool) {
	plan, err := faults.ParseSpec(spec)
	if err != nil {
		return
	}
	s, ok := litmus.FromFaultPlan(plan, scheme, litmus.KernelFast)
	if !ok {
		return
	}
	fmt.Printf("litmus-shaped plan; judge the same schedule against the derived outcome set with:\n  %s%s\n",
		litmus.ReplayCommand(s), sealFlag(unsealed))
}

// shrink reduces the failing cell's plan to a minimal reproducer.
func shrink(targets []recovery.TortureTarget, opts recovery.TortureOptions, fc recovery.TortureCell) string {
	var tg *recovery.TortureTarget
	for i := range targets {
		if targets[i].Name == fc.Workload {
			tg = &targets[i]
		}
	}
	if tg == nil {
		return ""
	}
	plan, err := faults.ParseSpec(fc.Faults)
	if err != nil {
		return ""
	}
	cfg := opts.Cfg
	cfg.Recoverable = true
	cfg.Unsealed = opts.Unsealed
	golden, err := recovery.Golden(tg.Prog, cfg, opts.Sch, tg.Specs)
	if err != nil {
		return ""
	}
	fmt.Println("shrinking the failing plan...")
	min, _, err := recovery.Shrink(tg.Prog, cfg, opts.Sch, tg.Specs, plan, golden)
	if err != nil {
		fmt.Printf("  (shrink: %v)\n", err)
		return ""
	}
	fmt.Printf("  shrunk: %d crash(es), %d point(s)\n", min.Depth(), len(min.Points))
	return min.Spec()
}

func sealNote(unsealed bool) string {
	if unsealed {
		return " (UNSEALED: validation disabled)"
	}
	return ""
}

func sealFlag(unsealed bool) string {
	if unsealed {
		return " -unsealed"
	}
	return ""
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cwsptorture:", err)
	os.Exit(1)
}
