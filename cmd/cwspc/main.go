// Command cwspc is the cWSP compiler driver: it compiles a named workload
// (or a random generated program) and reports region formation, checkpoint
// pruning, and — with -dump — the transformed IR with recovery slices.
//
// Usage:
//
//	cwspc -w lbm                # compile the lbm workload, print statistics
//	cwspc -w tpcc -dump         # also dump the IR
//	cwspc -seed 42 -dump        # compile a random program instead
//	cwspc -w radix -no-prune    # disable checkpoint pruning (ablation)
package main

import (
	"flag"
	"fmt"
	"os"

	"cwsp/internal/compiler"
	"cwsp/internal/ir"
	"cwsp/internal/minic"
	"cwsp/internal/opt"
	"cwsp/internal/progen"
	"cwsp/internal/stats"
	"cwsp/internal/workloads"
)

func main() {
	var (
		wName   = flag.String("w", "", "workload name (see -list)")
		list    = flag.Bool("list", false, "list workloads and exit")
		srcFile = flag.String("src", "", "compile a minic source file (.mc)")
		seed    = flag.Int64("seed", -1, "compile a random program with this seed instead of a workload")
		scale   = flag.String("scale", "quick", "workload scale: smoke, quick, full")
		dump    = flag.Bool("dump", false, "dump the compiled IR (regions, checkpoints, recovery slices)")
		noPrune = flag.Bool("no-prune", false, "disable checkpoint pruning")
		optim   = flag.Bool("O", false, "run classical optimizations (fold/propagate/DCE) before the cWSP passes")
		doCheck = flag.Bool("check", false, "run the independent soundness verifier on the compiled program")
		emitIR  = flag.String("emit-ir", "", "write the compiled program in the text interchange format to this file")
	)
	flag.Parse()
	sc, err := workloads.ScaleByName(*scale)
	if err != nil {
		fatal(err)
	}

	if *list {
		for _, w := range workloads.All() {
			fmt.Printf("%-10s %s\n", w.Name, w.Suite)
		}
		return
	}

	var prog *ir.Program
	switch {
	case *srcFile != "":
		data, err := os.ReadFile(*srcFile)
		if err != nil {
			fatal(err)
		}
		prog, err = minic.CompileNamed(string(data), *srcFile)
		if err != nil {
			fatal(err)
		}
	case *seed >= 0:
		prog = progen.Generate(*seed, progen.DefaultConfig())
	case *wName != "":
		w, err := workloads.ByName(*wName)
		if err != nil {
			fatal(err)
		}
		prog = w.Build(sc)
	default:
		fmt.Fprintln(os.Stderr, "cwspc: need -src <file.mc>, -w <workload>, or -seed <n>; see -list")
		os.Exit(2)
	}

	if *optim {
		ost, err := opt.Optimize(prog)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("opt: folded %d, propagated %d, eliminated %d\n", ost.Folded, ost.Propagated, ost.Eliminated)
	}

	copts := compiler.DefaultOptions()
	copts.PruneCheckpoints = !*noPrune
	copts.Check = *doCheck
	out, rep, err := compiler.Compile(prog, copts)
	if err != nil {
		fatal(err)
	}
	if *doCheck {
		fmt.Printf("check: %d diagnostics, %d errors\n", len(rep.Check.Diags), rep.Check.Errors())
	}

	t := stats.NewTable("function", "regions", "antidep-cuts", "ckpt-inserted", "ckpt-final", "pruned%")
	for _, f := range rep.Funcs {
		rate := 0.0
		if f.Ckpt.Inserted > 0 {
			rate = 100 * float64(f.Ckpt.Pruned) / float64(f.Ckpt.Inserted)
		}
		t.AddF(f.Name, f.Regions.Total, f.Regions.AntidepCuts, f.Ckpt.Inserted, f.Ckpt.Final, rate)
	}
	fmt.Print(t.String())
	fmt.Printf("total: %d regions, %d checkpoints (%d pruned)\n",
		rep.TotalRegions(), rep.TotalCheckpoints(), rep.PrunedCheckpoints())

	if *emitIR != "" {
		fh, err := os.Create(*emitIR)
		if err != nil {
			fatal(err)
		}
		if err := out.MarshalText(fh); err != nil {
			fatal(err)
		}
		if err := fh.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *emitIR)
	}

	if *dump {
		fmt.Println()
		fmt.Print(out.Dump())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cwspc:", err)
	os.Exit(1)
}
