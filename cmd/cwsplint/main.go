// Command cwsplint runs the independent persistence-soundness verifier
// (internal/check) over cWSP programs and reports CWSP0xx diagnostics.
//
// Inputs can come from three places, combined freely:
//
//	cwsplint prog.mc             # compile miniC + pipeline, then check
//	cwsplint prog.ir             # check an already-compiled IR dump
//	cwsplint -seed 7 -count 20   # check 20 generated programs (seeds 7..26)
//	cwsplint -w tpcc             # check a named workload
//	cwsplint -json prog.mc       # machine-readable report
//
// .mc files are compiled through the full pipeline first; .ir files are
// expected to already carry regions and recovery slices (checked with
// RequireCompiled). Exit status: 0 clean, 1 diagnostics with error
// severity, 2 usage or I/O failure.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"cwsp/internal/check"
	"cwsp/internal/compiler"
	"cwsp/internal/ir"
	"cwsp/internal/minic"
	"cwsp/internal/progen"
	"cwsp/internal/workloads"
)

func main() {
	var (
		seed    = flag.Int64("seed", -1, "check generated programs starting at this seed")
		count   = flag.Int("count", 1, "number of consecutive seeds to check (with -seed)")
		wName   = flag.String("w", "", "check a named workload (see cwspc -list)")
		scale   = flag.String("scale", "quick", "workload scale: smoke, quick, full")
		asJSON  = flag.Bool("json", false, "emit the combined report as JSON")
		noPrune = flag.Bool("no-prune", false, "disable checkpoint pruning when compiling inputs")
		quiet   = flag.Bool("q", false, "suppress per-input status lines (diagnostics still print)")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: cwsplint [flags] [file.mc|file.ir ...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	sc, err := workloads.ScaleByName(*scale)
	if err != nil {
		fatal(err)
	}

	if flag.NArg() == 0 && *seed < 0 && *wName == "" {
		flag.Usage()
		os.Exit(2)
	}

	copts := compiler.DefaultOptions()
	copts.PruneCheckpoints = !*noPrune

	combined := &check.Report{}
	checked := 0

	runChecked := func(label string, p *ir.Program) {
		rep := check.CheckProgramOpts(p, check.Options{RequireCompiled: true})
		merge(combined, label, rep)
		checked++
		if !*quiet && !*asJSON {
			status := "ok"
			if rep.HasErrors() {
				status = fmt.Sprintf("%d errors", rep.Errors())
			}
			fmt.Printf("%-40s %s\n", label, status)
		}
	}

	compileAndCheck := func(label string, p *ir.Program) {
		out, _, err := compiler.Compile(p, copts)
		if err != nil {
			fatal(err)
		}
		runChecked(label, out)
	}

	for _, arg := range flag.Args() {
		switch strings.ToLower(filepath.Ext(arg)) {
		case ".mc":
			data, err := os.ReadFile(arg)
			if err != nil {
				fatal(err)
			}
			p, err := minic.CompileNamed(string(data), arg)
			if err != nil {
				fatal(err)
			}
			compileAndCheck(arg, p)
		case ".ir":
			fh, err := os.Open(arg)
			if err != nil {
				fatal(err)
			}
			p, err := ir.UnmarshalText(fh)
			fh.Close()
			if err != nil {
				fatal(fmt.Errorf("%s: %w", arg, err))
			}
			runChecked(arg, p)
		default:
			fatal(fmt.Errorf("%s: unknown input type (want .mc or .ir)", arg))
		}
	}

	if *seed >= 0 {
		for i := 0; i < *count; i++ {
			s := *seed + int64(i)
			compileAndCheck(fmt.Sprintf("seed %d", s), progen.Generate(s, progen.DefaultConfig()))
		}
	}

	if *wName != "" {
		w, err := workloads.ByName(*wName)
		if err != nil {
			fatal(err)
		}
		compileAndCheck("workload "+*wName, w.Build(sc))
	}

	if *asJSON {
		if err := combined.WriteJSON(os.Stdout); err != nil {
			fatal(err)
		}
	} else {
		if len(combined.Diags) > 0 {
			fmt.Print(combined.String())
		}
		if !*quiet {
			fmt.Printf("checked %d program(s): %d diagnostics, %d errors\n",
				checked, len(combined.Diags), combined.Errors())
		}
	}
	if combined.HasErrors() {
		os.Exit(1)
	}
}

// merge appends rep's diagnostics to dst, prefixing each function name with
// the input label so multi-input runs stay attributable.
func merge(dst *check.Report, label string, rep *check.Report) {
	for _, d := range rep.Diags {
		if d.Fn == "" {
			d.Fn = label
		} else {
			d.Fn = label + ":" + d.Fn
		}
		dst.Diags = append(dst.Diags, d)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cwsplint:", err)
	os.Exit(2)
}
