package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	"cwsp/internal/bench"
	"cwsp/internal/runner"
	"cwsp/internal/telemetry/live"
	"cwsp/internal/workloads"
)

// reproJobs is the pool width of the sweep, one worker per CPU of the
// machine the bounds were calibrated on.
const reproJobs = 2

// reproExps is the sweep repro-smoke repeats. `make repro-quick` runs all
// 23 experiments at quick scale in one 18-25 s job, and on a shared host
// one job's time moves by a fifth with co-tenant load; only the best of
// many repeats of short work is steady. So the workload is a paper sweep
// in miniature that a run can repeat a dozen times: experiments that run
// cold cells on the pool (fig01, fig06, fig17, fig20, abl-log), one whose
// cells the harness already holds (fig13), and the two that bypass the
// pool (mt, compiler), at smoke scale.
var reproExps = []string{"fig01", "fig06", "fig13", "fig17", "fig20", "abl-log", "mt", "compiler"}

// reproRate is sweep passes per second on the calibration host.
const reproRate = 0.8

// warmupExps is the sweep each set-up runs so the process is warm before
// the measured sweeps start.
var warmupExps = []string{"fig06", "fig13"}

func experiments(ids []string) ([]bench.Experiment, error) {
	var out []bench.Experiment
	for _, id := range ids {
		e, err := bench.ByID(id)
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}

// runRepro runs paper sweeps the way `make repro-quick` does: experiments
// through one bench.Harness on a 2-wide pool over a fresh result store.
// Set-up runs a warm-up sweep in a throwaway store; the measured phase
// runs the sweep repeatedly, each pass in a fresh store. An op is one
// RunExperiment call.
func runRepro(e *env) (*phase, error) {
	ph := newPhase()
	warm, err := experiments(warmupExps)
	if err != nil {
		return nil, err
	}
	for i := 0; i < e.opt.setupReps; i++ {
		t0 := time.Now()
		if _, err := sweep(e, warm, nil, nil); err != nil {
			return nil, err
		}
		ph.setup = append(ph.setup, time.Since(t0).Seconds())
	}

	exps, err := experiments(e.opt.reproExps)
	if err != nil {
		return nil, err
	}
	var bus *live.Bus
	var cells *cellLog
	if e.tr != nil {
		bus = live.NewBus()
		cells = watchCells(bus)
	}
	var stats []*sweepStats
	m := begin()
	for pass := e.units(reproRate); pass > 0; pass-- {
		st, err := sweep(e, exps, bus, ph)
		if err != nil {
			return nil, err
		}
		stats = append(stats, st)
	}
	m.end(ph)

	var poolMS, planMS float64
	var records, bytes float64
	for _, st := range stats {
		poolMS += float64(st.poolMS)
		planMS += st.expMS - float64(st.poolMS)
		records += float64(st.store.Records)
		bytes += float64(st.store.Bytes)
	}
	n := float64(len(stats))
	ph.layer["bench.plan_assemble_ms"] = planMS / n
	ph.layer["runner.store.records"] = records / n
	ph.layer["runner.store.bytes"] = bytes / n
	if cells != nil {
		evs := cells.stop(bus)
		ph.layer["runner.store.flushes"] = float64(bus.KindCount(live.StoreFlush)) / float64(ph.ops)
		var busy float64
		var lat []float64
		for _, c := range evs {
			busy += float64(c.dur)
			lat = append(lat, float64(c.dur)/1e6)
		}
		if poolMS > 0 {
			ph.layer["runner.pool_busy_frac"] = busy / 1e6 / (reproJobs * poolMS)
		}
		ph.layer["runner.cell_p50_ms"] = quantile(lat, 0.5)
		ph.layer["runner.cell_p99_ms"] = quantile(lat, 0.99)
		cellSpans(e.tr, evs)
	}
	return ph, nil
}

// sweepStats is what one sweep's harness reported.
type sweepStats struct {
	expMS  float64 // summed RunExperiment wall time
	poolMS int64   // pool wall time
	store  runner.StoreStats
}

// sweep runs experiments at smoke scale through one harness over a fresh
// store and checks each report against its golden. With ph set it is
// measured: each experiment is an op with a latency sample and an
// "experiment" span.
func sweep(e *env, exps []bench.Experiment, bus *live.Bus, ph *phase) (*sweepStats, error) {
	scale := workloads.Smoke
	dir, err := e.tempDir("repro-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	h := bench.NewHarness(bench.Options{Scale: scale, Jobs: reproJobs, CacheDir: dir, Bus: bus})
	st := &sweepStats{}
	var executed, hits int64
	for _, x := range exps {
		t0 := time.Now()
		rep, err := h.RunExperiment(x)
		t1 := time.Now()
		key := scale.Name + "/" + x.ID
		if err != nil {
			e.check.fail("%s: %v", key, err)
			continue
		}
		var ex, hi int64
		if ri := h.RunnerSummary(); ri != nil {
			ex, hi = ri.Executed-executed, ri.CacheHits-hits
			executed, hits = ri.Executed, ri.CacheHits
		}
		if !e.check.repro(key, rep.CSV(), ex, hi) || ph == nil {
			continue
		}
		ph.op(key, t1.Sub(t0))
		st.expMS += ms(t1.Sub(t0))
		e.tr.add(e.tr.newID(), 0, "experiment", 0, t0, t1)
	}
	if err := h.Close(); err != nil {
		return nil, fmt.Errorf("close harness: %w", err)
	}
	if ri := h.RunnerSummary(); ri != nil {
		st.poolMS = ri.WallMS
	}
	if ph != nil && e.tr != nil {
		// Reopened only to read its size; the sweep has released it.
		s, err := runner.OpenStore(dir)
		if err != nil {
			return nil, err
		}
		st.store = s.Stats()
		if err := s.Close(); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// cellEvent is one pool cell as the live bus reported it.
type cellEvent struct {
	worker   int
	end, dur int64 // unix ns, ns
}

// cellLog collects finished cells from a live bus on its own goroutine.
type cellLog struct {
	sub  *live.Sub
	quit chan struct{}
	wg   sync.WaitGroup
	evs  []cellEvent
}

// watchCellsBuf sizes the subscription: seconds of pool events, so none
// are dropped while the collector goroutine waits for a CPU.
const watchCellsBuf = 4096

func watchCells(bus *live.Bus) *cellLog {
	l := &cellLog{sub: bus.SubscribeBuf(watchCellsBuf), quit: make(chan struct{})}
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		for {
			select {
			case ev := <-l.sub.C:
				l.record(ev)
			case <-l.quit:
				for {
					select {
					case ev := <-l.sub.C:
						l.record(ev)
					default:
						return
					}
				}
			}
		}
	}()
	return l
}

func (l *cellLog) record(ev live.Event) {
	if ev.Kind == live.CellFinished {
		l.evs = append(l.evs, cellEvent{worker: ev.Worker, end: ev.TimeUnixNS, dur: ev.DurUS * 1e3})
	}
}

// stop ends the collection and returns every finished cell.
func (l *cellLog) stop(bus *live.Bus) []cellEvent {
	bus.Unsubscribe(l.sub)
	close(l.quit)
	l.wg.Wait()
	return l.evs
}

// cellSpans adds one "cell" span per pool cell, on its worker's lane,
// under the experiment span that was running when it started.
func cellSpans(tr *tracer, evs []cellEvent) {
	tr.mu.Lock()
	var exps []span
	for _, s := range tr.spans {
		if s.name == "experiment" {
			exps = append(exps, s)
		}
	}
	tr.mu.Unlock()
	for _, c := range evs {
		start := c.end - c.dur
		parent := 0
		for _, x := range exps {
			if start >= x.start && start <= x.end {
				parent = x.id
				break
			}
		}
		tr.addNS(tr.newID(), parent, "cell", "", c.worker+1, start, c.end)
	}
}
