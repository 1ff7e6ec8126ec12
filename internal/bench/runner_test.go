package bench

import (
	"testing"

	"cwsp/internal/mem"
	"cwsp/internal/sim"
	"cwsp/internal/workloads"
)

func runExperimentT(t *testing.T, h *Harness, id string) *Report {
	t.Helper()
	e, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := h.RunExperiment(e)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestParallelReportBytesIdentical: the acceptance property of the runner —
// fanning cells out over a pool must not change a single report byte
// relative to the serial harness.
func TestParallelReportBytesIdentical(t *testing.T) {
	serial := NewHarness(Options{Scale: workloads.Smoke, Jobs: 1})
	par := NewHarness(Options{Scale: workloads.Smoke, Jobs: 8})

	want := runExperimentT(t, serial, "fig13").CSV()
	got := runExperimentT(t, par, "fig13").CSV()
	if want != got {
		t.Fatalf("-jobs 8 report differs from serial:\nserial:\n%s\nparallel:\n%s", want, got)
	}

	ri := par.RunnerSummary()
	if ri == nil || ri.Executed == 0 {
		t.Fatalf("parallel run did not go through the pool: %+v", ri)
	}
	if ri.Cells != ri.CacheHits+ri.Shared+ri.Executed {
		t.Errorf("cell accounting: %d cells != %d hits + %d shared + %d executed",
			ri.Cells, ri.CacheHits, ri.Shared, ri.Executed)
	}
}

// TestParallelSweepOnSparesBytesIdentical: machines RunStats spent hand
// their memory to the next ones, so a second cold sweep in the same
// process builds its machines on the first sweep's spares. On a 2-wide
// pool it must produce the same report bytes and cell accounting as the
// first, which starts with no spare.
func TestParallelSweepOnSparesBytesIdentical(t *testing.T) {
	sweep := func() (csv string, executed, hits int64) {
		h := NewHarness(Options{Scale: workloads.Smoke, Jobs: 2})
		for _, id := range []string{"fig01", "fig06"} {
			csv += runExperimentT(t, h, id).CSV()
		}
		ri := h.RunnerSummary()
		return csv, ri.Executed, ri.CacheHits
	}
	for mem.TakeSpare() != nil {
	}
	want, wantExec, wantHits := sweep()
	if wantExec == 0 {
		t.Fatal("the first sweep executed no cell")
	}
	got, gotExec, gotHits := sweep()
	if got != want {
		t.Fatalf("the sweep on spares differs from the first:\nfirst:\n%s\non spares:\n%s", want, got)
	}
	if gotExec != wantExec || gotHits != wantHits {
		t.Errorf("the sweep on spares executed %d cells with %d cache hits, the first %d with %d",
			gotExec, gotHits, wantExec, wantHits)
	}
}

// TestCacheServesSecondRun: with a persistent store, a repeated harness run
// executes zero simulations — every cell is a cache hit — and still
// produces byte-identical output.
func TestCacheServesSecondRun(t *testing.T) {
	dir := t.TempDir()

	cold := NewHarness(Options{Scale: workloads.Smoke, Jobs: 4, CacheDir: dir})
	want := runExperimentT(t, cold, "fig06").CSV()
	if err := cold.Close(); err != nil {
		t.Fatal(err)
	}
	cri := cold.RunnerSummary()
	if cri.Executed == 0 || cri.CacheHits != 0 {
		t.Fatalf("cold run: %+v", cri)
	}

	warm := NewHarness(Options{Scale: workloads.Smoke, Jobs: 4, CacheDir: dir})
	got := runExperimentT(t, warm, "fig06").CSV()
	if err := warm.Close(); err != nil {
		t.Fatal(err)
	}
	if want != got {
		t.Fatal("cached report differs from cold run")
	}
	wri := warm.RunnerSummary()
	if wri.Executed != 0 {
		t.Fatalf("warm run executed %d simulations, want 0 (%+v)", wri.Executed, wri)
	}
	if wri.CacheHits != wri.Cells || wri.Cells == 0 {
		t.Fatalf("warm run not fully served from the store: %+v", wri)
	}

	// NoResume refreshes: the store is ignored for reads.
	fresh := NewHarness(Options{Scale: workloads.Smoke, Jobs: 4, CacheDir: dir, NoResume: true})
	runExperimentT(t, fresh, "fig06")
	if err := fresh.Close(); err != nil {
		t.Fatal(err)
	}
	if ri := fresh.RunnerSummary(); ri.CacheHits != 0 || ri.Executed == 0 {
		t.Fatalf("NoResume run: %+v", ri)
	}
}

// TestSharedPoolAcrossExperiments: one harness runs several experiments
// through one pool; cells computed by an earlier experiment (every figure
// needs baselines) are not recomputed by later ones.
func TestSharedPoolAcrossExperiments(t *testing.T) {
	h := NewHarness(Options{Scale: workloads.Smoke, Jobs: 4})
	runExperimentT(t, h, "fig06") // baseline + cwsp over all workloads
	after06 := h.RunnerSummary().Executed
	runExperimentT(t, h, "fig08") // cwsp over all workloads — fully warm
	after08 := h.RunnerSummary().Executed
	if after08 != after06 {
		t.Fatalf("fig08 re-executed %d cells already computed by fig06", after08-after06)
	}

	// fig19 reads the same cwsp runs again.
	runExperimentT(t, h, "fig19")
	if got := h.RunnerSummary().Executed; got != after06 {
		t.Fatalf("fig19 re-executed %d cells", got-after06)
	}
}

// TestDirectExperimentsBypassPool: experiments that drive the simulator
// directly still run (serially) under a parallel harness.
func TestDirectExperimentsBypassPool(t *testing.T) {
	h := NewHarness(Options{Scale: workloads.Smoke, Jobs: 4})
	rep := runExperimentT(t, h, "compiler")
	if len(rep.Rows) == 0 {
		t.Fatal("empty report")
	}
	if ri := h.RunnerSummary(); ri != nil && ri.Cells != 0 {
		t.Fatalf("direct experiment submitted %d cells", ri.Cells)
	}
}

// TestHarnessConcurrentAPIUse: the public RunStats path itself must be
// goroutine-safe (the latent bug the runner work fixed): many goroutines
// hammering the same workload/scheme must agree and compile it once.
func TestHarnessConcurrentAPIUse(t *testing.T) {
	h := NewHarness(Options{Scale: workloads.Smoke})
	w, err := workloads.ByName("gobmk")
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	type res struct {
		cycles int64
		err    error
	}
	const gor = 8
	ch := make(chan res, gor)
	for i := 0; i < gor; i++ {
		go func() {
			st, err := h.RunStats(w, cfg, sim.CWSP(), true)
			ch <- res{st.Cycles, err}
		}()
	}
	var first int64
	for i := 0; i < gor; i++ {
		r := <-ch
		if r.err != nil {
			t.Fatal(r.err)
		}
		if i == 0 {
			first = r.cycles
		} else if r.cycles != first {
			t.Fatalf("concurrent RunStats disagree: %d vs %d cycles", r.cycles, first)
		}
	}
}
