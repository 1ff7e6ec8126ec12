// Package workloads provides the 37 benchmark applications of the paper's
// evaluation (SPEC CPU2006/2017, DOE Mini-apps, SPLASH3, WHISPER, STAMP) as
// synthetic IR kernels. Each kernel is tuned to the memory behaviour the
// paper attributes to its namesake — store rate, locality, region length,
// footprint — which are the axes that determine cWSP's overhead (see
// DESIGN.md for the substitution argument).
package workloads

import (
	"fmt"
	"sort"

	"cwsp/internal/ir"
)

// Scale shrinks iteration counts for quick runs; footprints stay constant
// so cache behaviour is preserved.
type Scale struct {
	Name string
	Div  int64
}

// Scales.
var (
	Full  = Scale{Name: "full", Div: 1}
	Quick = Scale{Name: "quick", Div: 8}
	Smoke = Scale{Name: "smoke", Div: 64}
)

// ScaleByName looks up a scale by its name: smoke, quick or full.
func ScaleByName(name string) (Scale, error) {
	for _, s := range []Scale{Smoke, Quick, Full} {
		if s.Name == name {
			return s, nil
		}
	}
	return Scale{}, fmt.Errorf("workloads: unknown scale %q (want smoke, quick or full)", name)
}

// Workload is one benchmark application.
type Workload struct {
	Name  string
	Suite string
	// MemIntensive marks the subset used by the paper's Figures 1, 17, 18.
	MemIntensive bool
	build        func(s Scale) *ir.Program
}

// Build constructs the workload's program at the given scale.
func (w Workload) Build(s Scale) *ir.Program { return w.build(s) }

// Suites in paper order.
var Suites = []string{"CPU2006", "CPU2017", "Mini-apps", "SPLASH3", "WHISPER", "STAMP"}

var registry []Workload

func register(name, suite string, memInt bool, build func(s Scale) *ir.Program) {
	registry = append(registry, Workload{Name: name, Suite: suite, MemIntensive: memInt, build: build})
}

// All returns every workload in suite order (paper order within suites).
func All() []Workload {
	out := append([]Workload(nil), registry...)
	idx := map[string]int{}
	for i, s := range Suites {
		idx[s] = i
	}
	sort.SliceStable(out, func(i, j int) bool {
		return idx[out[i].Suite] < idx[out[j].Suite]
	})
	return out
}

// BySuite returns the workloads of one suite.
func BySuite(suite string) []Workload {
	var out []Workload
	for _, w := range registry {
		if w.Suite == suite {
			out = append(out, w)
		}
	}
	return out
}

// ByName looks a workload up.
func ByName(name string) (Workload, error) {
	for _, w := range registry {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("workloads: unknown workload %q", name)
}

// MemIntensive returns the memory-intensive subset (Figures 1, 17, 18).
func MemIntensive() []Workload {
	var out []Workload
	for _, w := range All() {
		if w.MemIntensive {
			out = append(out, w)
		}
	}
	return out
}

// mixApp registers a MixParams-based application, scaling iteration counts.
func mixApp(name, suite string, memInt bool, p MixParams) {
	register(name, suite, memInt, func(s Scale) *ir.Program {
		q := p
		q.StreamIters /= s.Div
		q.RandIters /= s.Div
		q.ChaseIters /= s.Div
		if p.StreamIters > 0 && q.StreamIters == 0 {
			q.StreamIters = 1
		}
		if p.RandIters > 0 && q.RandIters == 0 {
			q.RandIters = 1
		}
		if p.ChaseIters > 0 && q.ChaseIters == 0 {
			q.ChaseIters = 1
		}
		return buildMix(name, q)
	})
}

const (
	kw = 1 << 10 // kilowords
	mw = 1 << 20 // megawords (8 MiB)
)

func init() {
	// ---- SPEC CPU2006 (10) -------------------------------------------------
	mixApp("astar", "CPU2006", true, MixParams{
		RandWords: 256 * kw, RandIters: 96_000, RandStores: 2, RandRMW: 2,
		ChaseNodes: 64 * kw, ChaseIters: 14_000, Compute: 4,
	})
	mixApp("bzip2", "CPU2006", false, MixParams{
		StreamWords: 1 * mw, StreamIters: 16_000, StreamStores: 4,
		RandWords: 64 * kw, RandIters: 16_000, RandStores: 3, RandRMW: 2, Compute: 6,
	})
	mixApp("gobmk", "CPU2006", false, MixParams{
		RandWords: 32 * kw, RandIters: 30_000, RandStores: 2, RandRMW: 1,
		Compute: 10, CallEvery: 64,
	})
	mixApp("h264ref", "CPU2006", false, MixParams{
		StreamWords: 2 * mw, StreamIters: 24_000, StreamStores: 5, Compute: 8,
	})
	mixApp("lbm", "CPU2006", true, MixParams{
		StreamWords: 256 * kw, StreamIters: 96_000, StreamStores: 8, Compute: 2,
	})
	mixApp("libquan", "CPU2006", true, MixParams{
		StreamWords: 256 * kw, StreamIters: 88_000, StreamStores: 6, Compute: 1,
	})
	mixApp("milc", "CPU2006", true, MixParams{
		StreamWords: 256 * kw, StreamIters: 64_000, StreamStores: 5,
		RandWords: 128 * kw, RandIters: 12_000, RandRMW: 3, Compute: 4,
	})
	mixApp("namd", "CPU2006", false, MixParams{
		RandWords: 64 * kw, RandIters: 30_000, RandStores: 2, RandRMW: 2, Compute: 12,
	})
	mixApp("sjeng", "CPU2006", false, MixParams{
		RandWords: 256 * kw, RandIters: 28_000, RandStores: 2, RandRMW: 1,
		Compute: 8, CallEvery: 48,
	})
	mixApp("soplex", "CPU2006", false, MixParams{
		RandWords: 1 * mw, RandIters: 24_000, RandStores: 2, RandRMW: 3, Compute: 4,
	})

	// ---- SPEC CPU2017 (7) ----------------------------------------------------
	mixApp("dsjeng", "CPU2017", false, MixParams{
		RandWords: 256 * kw, RandIters: 28_000, RandStores: 2, RandRMW: 1,
		Compute: 9, CallEvery: 56,
	})
	mixApp("imagick", "CPU2017", false, MixParams{
		StreamWords: 1 * mw, StreamIters: 28_000, StreamStores: 5, Compute: 10,
	})
	mixApp("lbm17", "CPU2017", false, MixParams{
		StreamWords: 4 * mw, StreamIters: 40_000, StreamStores: 8, Compute: 3,
	})
	mixApp("leela", "CPU2017", false, MixParams{
		ChaseNodes: 128 * kw, ChaseIters: 26_000,
		RandWords: 128 * kw, RandIters: 12_000, RandStores: 2, RandRMW: 1, Compute: 6,
	})
	mixApp("nab", "CPU2017", false, MixParams{
		RandWords: 128 * kw, RandIters: 26_000, RandStores: 2, RandRMW: 2, Compute: 11,
	})
	mixApp("namd17", "CPU2017", false, MixParams{
		RandWords: 64 * kw, RandIters: 28_000, RandStores: 2, RandRMW: 2, Compute: 12,
	})
	mixApp("xz", "CPU2017", false, MixParams{
		RandWords: 512 * kw, RandIters: 24_000, RandStores: 4, RandRMW: 3, Compute: 5,
	})

	// ---- DOE Mini-apps (2) -----------------------------------------------------
	mixApp("lulesh", "Mini-apps", true, MixParams{
		StreamWords: 256 * kw, StreamIters: 56_000, StreamStores: 6,
		RandWords: 128 * kw, RandIters: 16_000, RandRMW: 4, Compute: 6,
	})
	mixApp("xsbench", "Mini-apps", true, MixParams{
		RandWords: 256 * kw, RandIters: 144_000, Compute: 3,
	})

	// ---- SPLASH3 (10): low compute, many sequential/repeated writes, short
	// regions — the paper's worst case for persist-path pressure. -------------
	mixApp("cholesky", "SPLASH3", false, MixParams{
		RandWords: 512 * kw, RandIters: 26_000, RandStores: 2, RandRMW: 6, Compute: 3,
	})
	mixApp("fft", "SPLASH3", false, MixParams{
		StreamWords: 1 * mw, StreamIters: 28_000, StreamStores: 5, Compute: 4,
	})
	mixApp("lu-cg", "SPLASH3", false, MixParams{
		StreamWords: 512 * kw, StreamIters: 30_000, StreamStores: 10, Compute: 1,
	})
	mixApp("lu-ncg", "SPLASH3", false, MixParams{
		StreamWords: 256 * kw, StreamIters: 28_000, StreamStores: 11,
		RandWords: 128 * kw, RandIters: 6_000, RandStores: 6, RandRMW: 3, Compute: 1,
	})
	mixApp("ocg", "SPLASH3", false, MixParams{
		StreamWords: 1 * mw, StreamIters: 26_000, StreamStores: 7, Compute: 2,
	})
	mixApp("oncg", "SPLASH3", false, MixParams{
		StreamWords: 1 * mw, StreamIters: 24_000, StreamStores: 8,
		RandWords: 64 * kw, RandIters: 6_000, RandRMW: 4, Compute: 2,
	})
	register("radix", "SPLASH3", false, buildRadix)
	mixApp("raytrace", "SPLASH3", false, MixParams{
		ChaseNodes: 256 * kw, ChaseIters: 30_000, Compute: 4,
	})
	mixApp("water-ns", "SPLASH3", false, MixParams{
		RandWords: 128 * kw, RandIters: 26_000, RandStores: 2, RandRMW: 8, Compute: 3,
	})
	mixApp("water-sp", "SPLASH3", false, MixParams{
		RandWords: 128 * kw, RandIters: 24_000, RandStores: 2, RandRMW: 7, Compute: 4,
	})

	// ---- WHISPER (5): persistent-memory applications; all memory-intensive.
	register("pc", "WHISPER", true, func(s Scale) *ir.Program {
		return buildTree("pc", 32_000/s.Div, 40_000/s.Div, 2)
	})
	register("rb", "WHISPER", true, func(s Scale) *ir.Program {
		return buildTree("rb", 30_000/s.Div, 30_000/s.Div, 3)
	})
	mixApp("sps", "WHISPER", true, MixParams{
		RandWords: 256 * kw, RandIters: 128_000, RandStores: 8, RandRMW: 4, Compute: 1,
	})
	register("tatp", "WHISPER", true, func(s Scale) *ir.Program {
		return buildTx("tatp", 10_000/s.Div, 8, 256*kw)
	})
	register("tpcc", "WHISPER", true, func(s Scale) *ir.Program {
		return buildTx("tpcc", 5_000/s.Div, 20, 256*kw)
	})

	// ---- STAMP (3) ----------------------------------------------------------
	register("kmeans", "STAMP", false, func(s Scale) *ir.Program {
		return buildKmeans("kmeans", 26_000/s.Div)
	})
	mixApp("ssca2", "STAMP", false, MixParams{
		RandWords: 2 * mw, RandIters: 28_000, RandStores: 2, RandRMW: 5,
		AtomicEvery: 128, Compute: 2,
	})
	register("vacation", "STAMP", false, func(s Scale) *ir.Program {
		return buildTree("vacation", 16_000/s.Div, 20_000/s.Div, 4)
	})
}
