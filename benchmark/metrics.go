package main

import (
	"bufio"
	"math"
	"os"
	"runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric names one reported number and its unit. BENCHMARK.json lists the
// same names and units; a test keeps the two in step.
type metric struct{ name, unit string }

// endToEnd is what a user of the system sees, reported by the untraced run
// on every workload. An "op" is the user's unit of work: one simulation
// (sim-*), one RunExperiment call (repro-smoke), one request from submit
// to result (service-mix). Op times are charged at their kind's best time
// in the run (phase.best).
var endToEnd = []metric{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"heap_p90_mb", "MB"},
}

// perLayer is reported by the traced run on every workload; a layer a
// workload does not exercise reports 0. Counters are per op unless they
// name a state (store records and bytes, journal bytes).
var perLayer = []metric{
	{"compiler.cpu_share", "frac"},
	{"compiler.compile_ms", "ms"},
	{"sim.cpu_share", "frac"},
	{"sim.new_us", "us"},
	{"sim.run_ms", "ms"},
	{"sim.instrs", "count"},
	{"sim.minstr_per_s", "Minstr/s"},
	{"sim.region.cpu_share", "frac"},
	{"sim.regions", "count"},
	{"sim.ckpts", "count"},
	{"mem.cpu_share", "frac"},
	{"mem.l1d_accs", "count"},
	{"mem.l1d_misses", "count"},
	{"mem.l2_misses", "count"},
	{"mem.nvm_reads", "count"},
	{"persist.cpu_share", "frac"},
	{"persist.bytes", "bytes"},
	{"persist.log_bytes", "bytes"},
	{"persist.pb_stall_cyc", "cycles"},
	{"persist.drain_stall_cyc", "cycles"},
	{"persist.wpq_hits", "count"},
	{"campaign.cpu_share", "frac"},
	{"bench.cpu_share", "frac"},
	{"bench.plan_assemble_ms", "ms"},
	{"runner.pool.cpu_share", "frac"},
	{"runner.pool_busy_frac", "frac"},
	{"runner.cell_p50_ms", "ms"},
	{"runner.cell_p99_ms", "ms"},
	{"runner.store.cpu_share", "frac"},
	{"runner.store.flushes", "count"},
	{"runner.store.records", "count"},
	{"runner.store.bytes", "bytes"},
	{"service.cpu_share", "frac"},
	{"service.req_per_s", "1/s"},
	{"service.req_p50_ms", "ms"},
	{"service.req_p99_ms", "ms"},
	{"service.submit_p50_ms", "ms"},
	{"service.submit_p99_ms", "ms"},
	{"service.queue_p99_ms", "ms"},
	{"service.rejected_429", "count"},
	{"service.run_warm_p50_ms", "ms"},
	{"service.run_cold_p50_ms", "ms"},
	{"service.poll_p50_ms", "ms"},
	{"service.polls_per_req", "count"},
	{"service.result_p50_ms", "ms"},
	{"service.warm_req_p50_ms", "ms"},
	{"service.cold_req_p50_ms", "ms"},
	{"service.journal.cpu_share", "frac"},
	{"service.journal.bytes", "bytes"},
	{"service.journal.appended", "count"},
	{"service.http.cpu_share", "frac"},
	{"telemetry.cpu_share", "frac"},
	{"runtime.gc.cpu_share", "frac"},
	{"runtime.other.cpu_share", "frac"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.max_rss_mb", "MB"},
	{"runtime.cpu_s", "s"},
	{"loadgen.cpu_share", "frac"},
	{"trace.overhead_frac", "frac"},
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = slices.Clone(xs)
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) computes them (its default "exclusive"
// method), which is how the benchmark's spread is judged.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// cpuTime returns the CPU time the process has used so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapWatch samples the live heap, as the last collection left it, every
// few milliseconds until stopped. The peak resident set, or even the peak
// live heap, of a fixed piece of work moves by a third from run to run
// with when the collector happens to run; the 90th percentile of the live
// heap repeats within a few percent.
type heapWatch struct {
	quit, done chan struct{}
	samples    []float64 // MiB
}

func watchHeap() *heapWatch {
	h := &heapWatch{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			h.samples = append(h.samples, float64(s[0].Value.Uint64())/(1<<20))
			select {
			case <-h.quit:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// stop ends the sampling and returns the live heap's 90th percentile in
// MiB.
func (h *heapWatch) stop() float64 {
	close(h.quit)
	<-h.done
	return quantile(h.samples, 0.9)
}

// maxRSSMB returns the process's peak resident set (VmHWM) in MiB.
func maxRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
