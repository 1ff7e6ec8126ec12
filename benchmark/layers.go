package main

import "strings"

// layers lists every layer the traced run attributes CPU time to, in
// report order. Each name is the prefix of that layer's metrics.
var layers = []string{
	"compiler", "sim", "sim.region", "mem", "persist", "campaign", "bench",
	"runner.pool", "runner.store", "service", "service.journal", "service.http",
	"telemetry", "runtime.gc", "loadgen", "runtime.other",
}

// funcRules map function-name prefixes to layers. They are tried before
// pkgRules, so a function can be carved out of its package's layer.
var funcRules = []struct{ prefix, layer string }{
	// Region and checkpoint bookkeeping inside the simulator.
	{"cwsp/internal/sim.(*Machine).openRegion", "sim.region"},
	{"cwsp/internal/sim.(*Machine).closeRegion", "sim.region"},
	{"cwsp/internal/sim.(*Machine).finishRegion", "sim.region"},
	{"cwsp/internal/sim.(*Machine).releaseRegion", "sim.region"},
	{"cwsp/internal/sim.(*Machine).handleBoundary", "sim.region"},
	// The benchmark digests every simulated NVM image to check it against
	// its golden: that is the benchmark's cost, not the memory model's.
	{"cwsp/internal/mem.(*PagedMem).Digest", "loadgen"},
	{"cwsp/internal/runner.(*Store).", "runner.store"},
	{"cwsp/internal/runner.OpenStore", "runner.store"},
	{"cwsp/internal/service.(*Journal).", "service.journal"},
	{"cwsp/internal/service.OpenJournal", "service.journal"},
	{"cwsp/internal/service.sealJournal", "service.journal"},
	{"cwsp/internal/service.encodeJournalRecord", "service.journal"},
	{"cwsp/internal/service.decodeJournal", "service.journal"},
	{"cwsp/internal/service.fold", "service.journal"},
	{"cwsp/internal/service.(*Client).", "loadgen"},
	{"cwsp/internal/service.(*Server).", "service.http"},
	{"cwsp/internal/service.writeJSON", "service.http"},
	{"cwsp/internal/service.httpError", "service.http"},
}

// pkgRules map package paths (and their sub-packages) to layers.
var pkgRules = []struct{ pkg, layer string }{
	{"cwsp/internal/compiler", "compiler"},
	{"cwsp/internal/opt", "compiler"},
	{"cwsp/internal/regions", "compiler"},
	{"cwsp/internal/ckpt", "compiler"},
	{"cwsp/internal/analysis", "compiler"},
	// Program construction is the front half of "build and compile".
	{"cwsp/internal/workloads", "compiler"},
	{"cwsp/internal/progen", "compiler"},
	{"cwsp/internal/minic", "compiler"},
	{"cwsp/internal/sim", "sim"},
	{"cwsp/internal/ir", "sim"},
	{"cwsp/internal/schemes", "sim"},
	{"cwsp/internal/nvmtech", "sim"},
	{"cwsp/internal/mem", "mem"},
	{"cwsp/internal/persist", "persist"},
	{"cwsp/internal/litmus", "campaign"},
	{"cwsp/internal/recovery", "campaign"},
	{"cwsp/internal/faults", "campaign"},
	// The litmus judge renders its verdicts through the checker.
	{"cwsp/internal/check", "campaign"},
	{"cwsp/internal/bench", "bench"},
	{"cwsp/internal/stats", "bench"},
	{"cwsp/internal/runner", "runner.pool"},
	{"cwsp/internal/service", "service"},
	{"cwsp/internal/telemetry", "telemetry"},
	// The benchmark itself: "main" in its binary, its import path in its
	// test binary.
	{"main", "loadgen"},
	{"cwsp/benchmark", "loadgen"},
}

// layerOf attributes one CPU sample, given its stack innermost first, to a
// layer: the innermost frame of this repository's code decides, by
// function rule and then by package rule. Stacks without such a frame are
// the garbage collector's background workers, the net/http stack, or
// other runtime work.
func layerOf(stack []string) string {
	for _, fn := range stack {
		if l := frameLayer(fn); l != "" {
			return l
		}
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "runtime.gcBgMarkWorker") {
			return "runtime.gc"
		}
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "net/http.") {
			return "service.http"
		}
	}
	return "runtime.other"
}

// frameLayer returns the layer of one frame, or "" for code outside this
// repository.
func frameLayer(fn string) string {
	for _, r := range funcRules {
		if strings.HasPrefix(fn, r.prefix) {
			return r.layer
		}
	}
	pkg := funcPackage(fn)
	for _, r := range pkgRules {
		if pkg == r.pkg || strings.HasPrefix(pkg, r.pkg+"/") {
			return r.layer
		}
	}
	return ""
}

// funcPackage returns the package path of a symbol name such as
// "cwsp/internal/sim.(*Machine).Run" or "cwsp/internal/runner.(*Pool[...]).Run".
// Receiver types and type arguments may hold slashes of their own, so the
// package ends at the last slash before the first of them.
func funcPackage(fn string) string {
	head := fn
	if i := strings.IndexAny(fn, "(["); i >= 0 {
		head = fn[:i]
	}
	slash := strings.LastIndex(head, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// layerShares buckets a CPU profile's samples into layers and returns each
// layer's share of the total CPU time (every layer present, 0 when idle)
// and the number of samples taken.
func layerShares(p *profile) (map[string]float64, int64) {
	shares := make(map[string]float64, len(layers))
	for _, l := range layers {
		shares[l] = 0
	}
	var total, n int64
	for _, s := range p.samples {
		w := p.weight(s, "cpu")
		shares[layerOf(s.stack)] += float64(w)
		total += w
		n += p.weight(s, "samples")
	}
	if total > 0 {
		for l := range shares {
			shares[l] /= float64(total)
		}
	}
	return shares, n
}
