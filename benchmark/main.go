// Command benchmark measures the cWSP simulator, the paper-sweep harness
// and the campaign daemon end to end, and splits a traced run's time by
// layer. It drives each layer only through its public functions. See
// README.md for the workloads, the metrics and their bounds.
//
// Usage, from the repository root (run.sh builds the binary first):
//
//	bash benchmark/run.sh --workload sim-persist --seed 1 --seconds 15 --trace 0
//	bash benchmark/run.sh --workload service-mix --trace 1
//	bash benchmark/run.sh --repeat 5
//	bash benchmark/run.sh --workload all --update-golden
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	run  func(e *env) (*phase, error)
}

var workloadList = []workload{
	{"sim-persist", runSimPersist},
	{"sim-base", runSimBase},
	{"repro-smoke", runRepro},
	{"service-mix", runService},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloadList {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// options fix what one run does. The sizes default to the benchmark's
// workloads; the self-test shrinks them.
type options struct {
	seed     int64
	seconds  float64
	workDir  string
	traceDir string // where a traced run writes its spans, profile and layer table
	update   bool   // record outputs as the new goldens

	setupReps int // set-ups per run; setup_s is their median
	reproExps []string
	// rounds, when set, replaces the work the run's seconds buy: sim
	// rounds, sweep passes, or requests per service client.
	rounds int
}

func defaultOptions() options {
	return options{
		seed:      1,
		seconds:   15,
		workDir:   ".bench_build",
		setupReps: 7,
		reproExps: reproExps,
	}
}

// env is what a workload runs with: its options, the golden checker, and
// the span recorder (nil when untraced).
type env struct {
	opt   options
	check *checker
	tr    *tracer
}

// tempDir makes a fresh directory under the work directory.
func (e *env) tempDir(prefix string) (string, error) {
	base := filepath.Join(e.opt.workDir, "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, prefix)
}

// phase is what one workload run measured.
type phase struct {
	setup   []float64 // seconds, one per set-up repetition
	ops     int
	lat     []float64     // ms per op
	kinds   []string      // the work each op did: ops of one kind repeat it
	clients int           // ops in flight at once
	cpu     time.Duration // process CPU time of the measured phase
	mallocs uint64        // heap allocations of the measured phase
	layer   map[string]float64
}

func newPhase() *phase { return &phase{clients: 1, layer: map[string]float64{}} }

// op records one measured op of the given kind.
func (ph *phase) op(kind string, d time.Duration) {
	ph.ops++
	ph.lat = append(ph.lat, ms(d))
	ph.kinds = append(ph.kinds, kind)
}

// best charges every op the best time its kind reached in the run. On a
// shared host, time drifts by a fifth over tens of seconds as co-tenants
// come and go, while the fastest of many repeats of the same work stays
// within a few percent; charging each op its kind's best time keeps that
// drift out of the end-to-end metrics. A kind seen once is charged its
// only time.
func (ph *phase) best() []float64 {
	floor := ph.floors()
	out := make([]float64, len(ph.kinds))
	for i, k := range ph.kinds {
		out[i] = floor[k]
	}
	return out
}

// floors returns each kind's best time (ms).
func (ph *phase) floors() map[string]float64 {
	floor := map[string]float64{}
	for i, k := range ph.kinds {
		if f, ok := floor[k]; !ok || ph.lat[i] < f {
			floor[k] = ph.lat[i]
		}
	}
	return floor
}

// opsPerSec is the throughput of the clients if every op took its kind's
// best time.
func (ph *phase) opsPerSec() float64 {
	var sum float64
	for _, d := range ph.best() {
		sum += d
	}
	if sum <= 0 {
		return 0
	}
	return float64(ph.clients) * float64(len(ph.lat)) / (sum / 1e3)
}

// mark is the state at the start of a measured phase.
type mark struct {
	start   time.Time
	cpu     time.Duration
	mallocs uint64
}

func begin() mark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return mark{start: time.Now(), cpu: cpuTime(), mallocs: ms.Mallocs}
}

func (m mark) end(ph *phase) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	ph.cpu = cpuTime() - m.cpu
	ph.mallocs = ms.Mallocs - m.mallocs
}

// units returns how many units of work (rounds, passes, requests) the run
// does: its seconds at the unit's rate on the host the bounds were
// calibrated on, at least one. The work follows from the arguments alone,
// never from a clock, so every run of a workload does the same work and
// measures for about the given seconds.
func (e *env) units(perSecond float64) int {
	if e.opt.rounds > 0 {
		return e.opt.rounds
	}
	return max(1, int(math.Round(e.opt.seconds*perSecond)))
}

// result is the line the benchmark ends its output with.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// measure runs one workload. Untraced, it reports the end-to-end metrics.
// Traced, the untraced run is the overhead baseline for a second, traced
// run, which reports the per-layer metrics.
func measure(w workload, opt options, g *golden, log io.Writer) (*result, *checker, error) {
	chk := &checker{g: g, update: opt.update}
	heap := watchHeap()
	base, err := w.run(&env{opt: opt, check: chk})
	heapP90 := heap.stop()
	if err != nil {
		return nil, nil, err
	}
	res := &result{Metrics: map[string]value{
		"setup_s":     {quantile(base.setup, 0.5), "s"},
		"ops_per_s":   {base.opsPerSec(), "1/s"},
		"heap_p90_mb": {heapP90, "MB"},
	}}
	if opt.traceDir != "" {
		if res.Metrics, err = traced(w, opt, chk, base, log); err != nil {
			return nil, nil, err
		}
	}
	res.Attempted, res.Failed = chk.attempted, chk.failed
	res.Correct = chk.failed == 0 && chk.attempted > 0
	return res, chk, nil
}

// traced runs the workload under spans and a CPU profile, writes the trace
// files and the layer table, and returns the per-layer metrics.
func traced(w workload, opt options, chk *checker, base *phase, log io.Writer) (map[string]value, error) {
	tr := &tracer{}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	ph, err := w.run(&env{opt: opt, check: chk, tr: tr})
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	p, err := parseProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	shares, samples := layerShares(p)

	metrics := map[string]value{}
	for _, m := range perLayer {
		metrics[m.name] = value{0, m.unit}
	}
	set := func(name string, v float64) {
		mv, ok := metrics[name]
		if !ok {
			panic("benchmark: unlisted per-layer metric " + name)
		}
		mv.Value = v
		metrics[name] = mv
	}
	for l, s := range shares {
		set(l+".cpu_share", s)
	}
	for k, v := range ph.layer {
		set(k, v)
	}
	if ph.ops > 0 {
		set("runtime.allocs_per_op", float64(ph.mallocs)/float64(ph.ops))
	}
	set("runtime.cpu_s", ph.cpu.Seconds())
	set("runtime.max_rss_mb", maxRSSMB())
	if t := ph.opsPerSec(); t > 0 {
		set("trace.overhead_frac", base.opsPerSec()/t-1)
	}

	dir := filepath.Join(opt.traceDir, w.name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, "cpu.pprof"), prof.Bytes(), 0o644); err != nil {
		return nil, err
	}
	if err := tr.writeChrome(filepath.Join(dir, "spans.json")); err != nil {
		return nil, err
	}
	var table bytes.Buffer
	writeLayerTable(&table, w.name, shares, samples, tr.selfTimes(), ph.ops)
	if err := os.WriteFile(filepath.Join(dir, "layers.txt"), table.Bytes(), 0o644); err != nil {
		return nil, err
	}
	log.Write(table.Bytes())
	fmt.Fprintf(log, "trace files in %s\n", dir)
	return metrics, nil
}

func main() {
	opt := defaultOptions()
	var (
		name   = flag.String("workload", "", "workload: sim-persist, sim-base, repro-smoke, service-mix (all: every one, for -update-golden)")
		trace  = flag.Int("trace", 0, "1: report per-layer metrics from a traced run (spans + CPU profile)")
		tdir   = flag.String("trace-dir", "", "where a traced run writes spans.json, cpu.pprof and layers.txt (default <work-dir>/trace)")
		repeat = flag.Int("repeat", 0, "calibrate bounds: run every workload N times untraced and print each metric's spread")
	)
	flag.Int64Var(&opt.seed, "seed", opt.seed, "seed of the service-mix traffic")
	flag.Float64Var(&opt.seconds, "seconds", opt.seconds, "how long a run measures: its work is this many seconds at the calibration host's pace")
	flag.StringVar(&opt.workDir, "work-dir", opt.workDir, "directory for temporary stores, journals and trace output")
	flag.BoolVar(&opt.update, "update-golden", false, "record this run's outputs as benchmark/golden.json")
	flag.Parse()

	if *repeat > 0 {
		if err := calibrate(opt, *repeat, os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	switch *trace {
	case 0:
	case 1:
		opt.traceDir = *tdir
		if opt.traceDir == "" {
			opt.traceDir = filepath.Join(opt.workDir, "trace")
		}
	default:
		fatal(fmt.Errorf("-trace %d: want 0 or 1", *trace))
	}
	var run []workload
	if *name == "all" && opt.update {
		run = workloadList
	} else if w, ok := workloadByName(*name); ok {
		run = []workload{w}
	} else {
		fatal(fmt.Errorf("unknown -workload %q", *name))
	}

	g, err := loadGolden()
	if err != nil {
		fatal(err)
	}
	if opt.update {
		recorded := &golden{}
		recorded.init()
		for _, w := range run {
			res, chk, err := measure(w, opt, recorded, os.Stderr)
			if err != nil {
				fatal(fmt.Errorf("%s: %w", w.name, err))
			}
			if !res.Correct {
				fatal(fmt.Errorf("%s: outputs differ between rounds: %s", w.name, strings.Join(chk.errs, "; ")))
			}
		}
		g.merge(recorded)
		if err := g.write(filepath.Join("benchmark", "golden.json")); err != nil {
			fatal(err)
		}
		fmt.Fprintln(os.Stderr, "wrote benchmark/golden.json")
		return
	}

	res, chk, err := measure(run[0], opt, g, os.Stderr)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", run[0].name, err))
	}
	for _, e := range chk.errs {
		fmt.Fprintln(os.Stderr, "FAIL:", e)
	}
	printMetrics(os.Stderr, run[0].name, res)
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// printMetrics writes a result as a readable table.
func printMetrics(w io.Writer, name string, res *result) {
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "%s: %d ops checked, %d failed\n", name, res.Attempted, res.Failed)
	for _, k := range keys {
		fmt.Fprintf(w, "  %-28s %14.4f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}
