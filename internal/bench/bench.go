// Package bench is the experiment harness: one registered experiment per
// table/figure of the paper's evaluation (Section IX), each regenerating
// the same rows/series the paper reports. The absolute numbers come from
// this repo's scaled machine model; what must (and does) match the paper is
// the *shape* — who wins, by what rough factor, and where the crossovers
// fall. EXPERIMENTS.md records paper-vs-measured for every experiment.
package bench

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"

	"cwsp/internal/compiler"
	"cwsp/internal/ir"
	"cwsp/internal/runner"
	"cwsp/internal/schemes"
	"cwsp/internal/sim"
	"cwsp/internal/stats"
	"cwsp/internal/telemetry/live"
	"cwsp/internal/workloads"
)

// Options configure a harness run.
type Options struct {
	Scale  workloads.Scale
	Log    io.Writer // progress output (nil = silent)
	PerApp bool      // emit per-app rows where the paper aggregates

	// Jobs is the worker-pool width RunExperiment fans simulation cells out
	// to: 0 = GOMAXPROCS, 1 = serial (no pool). Parallelism never changes
	// report bytes — cells are deterministic and rows are assembled by the
	// same serial code either way.
	Jobs int
	// CacheDir, when set, memoizes per-cell results on disk (see
	// internal/runner): repeated or interrupted sweeps are served from the
	// store instead of re-simulating.
	CacheDir string
	// Store, when set, is used instead of opening CacheDir: the experiment
	// service hands every campaign the daemon's shared store handle. The
	// harness does not close an injected store (Close only releases stores
	// the harness opened itself via CacheDir).
	Store *runner.Store
	// NoResume disables serving cells from an existing cache: everything is
	// recomputed and the store refreshed in place.
	NoResume bool
	// Bus, when set, receives live cell/flush/sim-progress events for the
	// -http observability endpoint (see internal/telemetry/live).
	Bus *live.Bus
	// Progress, when set, is shared with the pool (see
	// runner.Options.Progress): the service reads per-campaign pace from it
	// while the sweep runs.
	Progress *runner.Progress
}

// DefaultOptions runs at quick scale, silently.
func DefaultOptions() Options {
	return Options{Scale: workloads.Quick}
}

// Row is one labelled result row.
type Row struct {
	Label string
	Suite string
	Vals  []float64
}

// Report is one regenerated table/figure.
type Report struct {
	ID      string
	Title   string
	Paper   string // the paper's headline numbers, for the write-up
	Columns []string
	Rows    []Row
	Summary map[string]float64
	Notes   []string
}

// CSV renders the report as comma-separated values (header row first).
func (r *Report) CSV() string {
	var b strings.Builder
	b.WriteString("app")
	for _, c := range r.Columns {
		b.WriteString(",")
		b.WriteString(c)
	}
	b.WriteString("\n")
	for _, row := range r.Rows {
		label := row.Label
		if row.Suite != "" {
			label = row.Suite + "/" + row.Label
		}
		b.WriteString(label)
		for _, v := range row.Vals {
			fmt.Fprintf(&b, ",%g", v)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Table renders the report as fixed-width text.
func (r *Report) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	if r.Paper != "" {
		fmt.Fprintf(&b, "paper: %s\n", r.Paper)
	}
	t := stats.NewTable(append([]string{"app"}, r.Columns...)...)
	for _, row := range r.Rows {
		cells := make([]interface{}, 0, len(row.Vals)+1)
		label := row.Label
		if row.Suite != "" {
			label = row.Suite + "/" + row.Label
		}
		cells = append(cells, label)
		for _, v := range row.Vals {
			cells = append(cells, v)
		}
		t.AddF(cells...)
	}
	b.WriteString(t.String())
	if len(r.Summary) > 0 {
		keys := make([]string, 0, len(r.Summary))
		for k := range r.Summary {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "%-28s %.3f\n", k, r.Summary[k])
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Experiment is one registered table/figure reproduction.
type Experiment struct {
	ID    string
	Title string
	Run   func(h *Harness) (*Report, error)
	// Direct experiments drive the simulator (or compiler) directly instead
	// of through Harness.RunStats*, so RunExperiment cannot plan their cells
	// and runs them serially as-is.
	Direct bool
}

var experiments []Experiment

func registerExp(id, title string, run func(h *Harness) (*Report, error)) {
	experiments = append(experiments, Experiment{ID: id, Title: title, Run: run})
}

func registerExpDirect(id, title string, run func(h *Harness) (*Report, error)) {
	experiments = append(experiments, Experiment{ID: id, Title: title, Run: run, Direct: true})
}

// Experiments lists every registered experiment in registration order.
func Experiments() []Experiment {
	return append([]Experiment(nil), experiments...)
}

// ByID finds an experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range experiments {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q", id)
}

// Harness caches compiled programs and simulation results so experiments
// sharing runs (every figure needs baselines) stay cheap. All methods are
// safe for concurrent use: RunExperiment's worker pool calls back into the
// same caches the serial API reads.
type Harness struct {
	Opt Options

	mu       sync.Mutex // guards programs, results, plan
	programs map[progKey]*progOnce
	results  map[runKey]sim.Stats
	plan     *planState // non-nil while RunExperiment collects cells

	logMu sync.Mutex

	poolOnce   sync.Once
	pool       simPool // built lazily by RunExperiment
	poolErr    error
	ownedStore *runner.Store // opened from CacheDir; closed by Close
}

type progKey struct {
	app     string
	scale   string
	compile string // "", "pruned", "unpruned"
}

type runKey struct {
	app     string
	scale   string
	compile string
	scheme  string
	cfgSig  string
}

// progOnce builds one program variant exactly once, without holding the
// harness lock across the (potentially slow) build+compile: concurrent
// cells needing the same program block on the once, not on each other's
// unrelated compiles.
type progOnce struct {
	once sync.Once
	p    *ir.Program
	err  error
}

// NewHarness builds a harness.
func NewHarness(opt Options) *Harness {
	if opt.Scale.Div == 0 {
		opt.Scale = workloads.Quick
	}
	return &Harness{
		Opt:      opt,
		programs: map[progKey]*progOnce{},
		results:  map[runKey]sim.Stats{},
	}
}

// jobs returns the effective worker count RunExperiment uses.
func (h *Harness) jobs() int {
	if h.Opt.Jobs <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return h.Opt.Jobs
}

func (h *Harness) logf(format string, args ...interface{}) {
	if h.Opt.Log == nil {
		return
	}
	h.logMu.Lock()
	defer h.logMu.Unlock()
	fmt.Fprintf(h.Opt.Log, format, args...)
}

// compileModes names the compiler-option variants the harness can build;
// "" is the original uninstrumented binary.
var compileModes = map[string]compiler.Options{
	"pruned":        compiler.DefaultOptions(),
	"unpruned":      {PruneCheckpoints: false, ChainDepth: -1},
	"prune-nohoist": {PruneCheckpoints: true, HoistCheckpoints: false, ChainDepth: -1},
	"prune-chain0":  {PruneCheckpoints: true, HoistCheckpoints: true, ChainDepth: 0},
	"prune-chain1":  {PruneCheckpoints: true, HoistCheckpoints: true, ChainDepth: 1},
}

// program builds (and caches) the workload program in the given compile
// mode: "" = original binary, otherwise a compileModes entry. Concurrent
// callers build each variant exactly once; the returned program is only
// ever read after that, so parallel simulations may share it.
func (h *Harness) program(w workloads.Workload, compile string) (*ir.Program, error) {
	key := progKey{w.Name, h.Opt.Scale.Name, compile}
	h.mu.Lock()
	po, ok := h.programs[key]
	if !ok {
		po = &progOnce{}
		h.programs[key] = po
	}
	h.mu.Unlock()
	po.once.Do(func() {
		p := w.Build(h.Opt.Scale)
		if compile != "" {
			co, ok := compileModes[compile]
			if !ok {
				po.err = fmt.Errorf("bench: unknown compile mode %q", compile)
				return
			}
			p, _, po.err = compiler.Compile(p, co)
			if po.err != nil {
				return
			}
		}
		po.p = p
	})
	return po.p, po.err
}

func cfgSig(c sim.Config) string {
	return fmt.Sprintf("%+v", c)
}

// compileModeFor picks the program variant a scheme executes.
func compileModeFor(s sim.Scheme, pruned bool) string {
	if !schemes.NeedsCompiledProgram(s) {
		return ""
	}
	if pruned {
		return "pruned"
	}
	return "unpruned"
}

// RunStats runs (with caching) one workload under a scheme/config.
func (h *Harness) RunStats(w workloads.Workload, cfg sim.Config, sch sim.Scheme, pruned bool) (sim.Stats, error) {
	return h.RunStatsMode(w, cfg, sch, compileModeFor(sch, pruned))
}

// RunStatsMode runs with an explicit compile mode (see compileModes).
// While RunExperiment's planning pass is active it records the cell and
// returns zero stats instead of simulating; experiment bodies never branch
// on stat values, so the dry run walks the same cell set the real pass
// will read.
func (h *Harness) RunStatsMode(w workloads.Workload, cfg sim.Config, sch sim.Scheme, mode string) (sim.Stats, error) {
	cfg = schemes.ConfigFor(sch, cfg)
	key := runKey{w.Name, h.Opt.Scale.Name, mode, sch.Name, cfgSig(cfg)}
	h.mu.Lock()
	if st, ok := h.results[key]; ok {
		h.mu.Unlock()
		return st, nil
	}
	if h.plan != nil {
		h.plan.add(key, w, cfg, sch, mode)
		h.mu.Unlock()
		return sim.Stats{}, nil
	}
	h.mu.Unlock()

	st, err := h.simulate(w, cfg, sch, mode)
	if err != nil {
		return sim.Stats{}, err
	}
	h.mu.Lock()
	h.results[key] = st
	h.mu.Unlock()
	h.logf("  %-10s %-16s %12d cyc\n", w.Name, sch.Name, st.Cycles)
	return st, nil
}

// simulate compiles (cached) and runs one cell, bypassing the result cache.
// cfg must already be scheme-adjusted (schemes.ConfigFor).
func (h *Harness) simulate(w workloads.Workload, cfg sim.Config, sch sim.Scheme, mode string) (sim.Stats, error) {
	p, err := h.program(w, mode)
	if err != nil {
		return sim.Stats{}, err
	}
	m, err := sim.New(p, cfg, sch)
	if err != nil {
		return sim.Stats{}, fmt.Errorf("%s/%s: %w", w.Name, sch.Name, err)
	}
	// Long cells report instruction progress to the live endpoint; a nil
	// bus keeps the kernel's disabled path branch-identical to before.
	m.SetLiveBus(h.Opt.Bus)
	st, err := m.RunStats()
	if err != nil {
		return sim.Stats{}, fmt.Errorf("%s/%s: %w", w.Name, sch.Name, err)
	}
	return st, nil
}

// Slowdown returns cycles(scheme)/cycles(baseline) for one workload, where
// the baseline runs the original binary on the same config (or on baseCfg
// when it differs, e.g. Figure 1's DRAM-main-memory reference).
func (h *Harness) Slowdown(w workloads.Workload, cfg sim.Config, sch sim.Scheme, pruned bool) (float64, error) {
	return h.SlowdownVs(w, cfg, sch, pruned, cfg, sim.Baseline())
}

// SlowdownVs normalizes against an explicit reference config/scheme.
func (h *Harness) SlowdownVs(w workloads.Workload, cfg sim.Config, sch sim.Scheme, pruned bool, baseCfg sim.Config, baseSch sim.Scheme) (float64, error) {
	return h.SlowdownVsMode(w, cfg, sch, compileModeFor(sch, pruned), baseCfg, baseSch)
}

// SlowdownVsMode is SlowdownVs with an explicit compile mode.
func (h *Harness) SlowdownVsMode(w workloads.Workload, cfg sim.Config, sch sim.Scheme, mode string, baseCfg sim.Config, baseSch sim.Scheme) (float64, error) {
	st, err := h.RunStatsMode(w, cfg, sch, mode)
	if err != nil {
		return 0, err
	}
	base, err := h.RunStats(w, baseCfg, baseSch, true)
	if err != nil {
		return 0, err
	}
	return st.Slowdown(base), nil
}
