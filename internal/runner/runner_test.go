package runner

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func simKey(i int) Key {
	return Key{Kind: "test", Workload: fmt.Sprintf("w%d", i), Scale: "smoke",
		Scheme: "sch", CfgSig: "cfg", Salt: "v1"}
}

func TestKeySignatureDistinguishesFields(t *testing.T) {
	base := Key{Kind: "sim", Workload: "a", Scale: "quick", Compile: "pruned",
		Scheme: "s", CfgSig: "c", Salt: "v1"}
	seen := map[string]string{base.Signature(): "base"}
	variants := map[string]Key{
		"kind":     {Kind: "rec", Workload: "a", Scale: "quick", Compile: "pruned", Scheme: "s", CfgSig: "c", Salt: "v1"},
		"workload": {Kind: "sim", Workload: "b", Scale: "quick", Compile: "pruned", Scheme: "s", CfgSig: "c", Salt: "v1"},
		"scale":    {Kind: "sim", Workload: "a", Scale: "full", Compile: "pruned", Scheme: "s", CfgSig: "c", Salt: "v1"},
		"compile":  {Kind: "sim", Workload: "a", Scale: "quick", Compile: "", Scheme: "s", CfgSig: "c", Salt: "v1"},
		"scheme":   {Kind: "sim", Workload: "a", Scale: "quick", Compile: "pruned", Scheme: "t", CfgSig: "c", Salt: "v1"},
		"cfg":      {Kind: "sim", Workload: "a", Scale: "quick", Compile: "pruned", Scheme: "s", CfgSig: "d", Salt: "v1"},
		"salt":     {Kind: "sim", Workload: "a", Scale: "quick", Compile: "pruned", Scheme: "s", CfgSig: "c", Salt: "v2"},
	}
	for name, k := range variants {
		sig := k.Signature()
		if prev, dup := seen[sig]; dup {
			t.Errorf("changing %s collided with %s", name, prev)
		}
		seen[sig] = name
	}
	// Field contents must not alias across field boundaries.
	a := Key{Workload: "ab", Scale: "c"}
	b := Key{Workload: "a", Scale: "bc"}
	if a.Signature() == b.Signature() {
		t.Error("field boundary aliasing")
	}
	if base.Signature() != base.Signature() {
		t.Error("signature not deterministic")
	}
}

func TestPoolPreservesInputOrder(t *testing.T) {
	const n = 100
	cells := make([]Cell[int], n)
	for i := 0; i < n; i++ {
		i := i
		cells[i] = Cell[int]{Key: simKey(i), Run: func() (int, error) { return i * i, nil }}
	}
	p := NewPool[int](Options{Jobs: 8})
	out, err := p.Run(cells)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
	if got := p.Progress().Executed(); got != n {
		t.Fatalf("executed %d cells, want %d", got, n)
	}
}

func TestPoolCoalescesEqualSignatures(t *testing.T) {
	var runs atomic.Int64
	shared := Cell[int]{Key: simKey(7), Run: func() (int, error) {
		runs.Add(1)
		return 42, nil
	}}
	cells := []Cell[int]{shared, shared, shared, shared}
	p := NewPool[int](Options{Jobs: 4})
	out, err := p.Run(cells)
	if err != nil {
		t.Fatal(err)
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("shared cell ran %d times, want 1", got)
	}
	for i, v := range out {
		if v != 42 {
			t.Fatalf("out[%d] = %d, want 42", i, v)
		}
	}
}

func TestPoolIsolatesPanics(t *testing.T) {
	cells := []Cell[int]{
		{Key: simKey(0), Run: func() (int, error) { return 1, nil }},
		{Key: simKey(1), Run: func() (int, error) { panic("boom") }},
	}
	p := NewPool[int](Options{Jobs: 2})
	_, err := p.Run(cells)
	if err == nil || !strings.Contains(err.Error(), "panicked: boom") {
		t.Fatalf("want panic error, got %v", err)
	}
}

func TestPoolBoundedRetry(t *testing.T) {
	var attempts atomic.Int64
	cells := []Cell[int]{{Key: simKey(0), Run: func() (int, error) {
		if attempts.Add(1) < 3 {
			return 0, errors.New("transient")
		}
		return 9, nil
	}}}
	p := NewPool[int](Options{Jobs: 1, Retries: 2})
	out, err := p.Run(cells)
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 9 || attempts.Load() != 3 {
		t.Fatalf("out=%d attempts=%d, want 9 after 3 attempts", out[0], attempts.Load())
	}

	// Exhausted retries surface the error.
	attempts.Store(0)
	fail := []Cell[int]{{Key: simKey(1), Run: func() (int, error) {
		attempts.Add(1)
		return 0, errors.New("hard")
	}}}
	if _, err := NewPool[int](Options{Jobs: 1, Retries: 2}).Run(fail); err == nil {
		t.Fatal("want error after exhausted retries")
	}
	if attempts.Load() != 3 {
		t.Fatalf("attempted %d times, want 3", attempts.Load())
	}
}

func TestPoolCancelsOnFirstHardError(t *testing.T) {
	// Single worker: cell 1 fails, so cells 2..N must never start.
	var started atomic.Int64
	cells := []Cell[int]{
		{Key: simKey(0), Run: func() (int, error) { return 0, errors.New("hard") }},
	}
	for i := 1; i < 50; i++ {
		i := i
		cells = append(cells, Cell[int]{Key: simKey(i), Run: func() (int, error) {
			started.Add(1)
			return i, nil
		}})
	}
	p := NewPool[int](Options{Jobs: 1})
	if _, err := p.Run(cells); err == nil {
		t.Fatal("want error")
	}
	if got := started.Load(); got != 0 {
		t.Fatalf("%d cells started after the hard error", got)
	}
}

func TestPoolReportsEarliestError(t *testing.T) {
	// Both cells fail on a 2-wide pool; the reported error must be the
	// earliest in input order regardless of completion order. Cell 1
	// fails only once cell 0 has started: a worker that dequeued cell 0
	// but had not yet run it would see the batch cancel cell 1's failure
	// closes and skip it, leaving no earlier failure to report.
	var gate sync.WaitGroup
	gate.Add(1)
	started := make(chan struct{})
	cells := []Cell[int]{
		{Key: simKey(0), Run: func() (int, error) {
			close(started)
			gate.Wait() // finish after cell 1
			return 0, errors.New("first")
		}},
		{Key: simKey(1), Run: func() (int, error) {
			<-started
			gate.Done()
			return 0, errors.New("second")
		}},
	}
	_, err := NewPool[int](Options{Jobs: 2}).Run(cells)
	if err == nil || !strings.Contains(err.Error(), "first") {
		t.Fatalf("want earliest cell's error, got %v", err)
	}
}

func TestPoolDefaultJobs(t *testing.T) {
	if got := NewPool[int](Options{}).Jobs(); got < 1 {
		t.Fatalf("default jobs %d", got)
	}
	if got := NewPool[int](Options{Jobs: 3}).Jobs(); got != 3 {
		t.Fatalf("jobs %d, want 3", got)
	}
}

func TestProgressTelemetry(t *testing.T) {
	p := NewPool[int](Options{Jobs: 4})
	var cells []Cell[int]
	for i := 0; i < 10; i++ {
		i := i
		cells = append(cells, Cell[int]{Key: simKey(i), Run: func() (int, error) { return i, nil }})
	}
	if _, err := p.Run(cells); err != nil {
		t.Fatal(err)
	}
	prog := p.Progress()
	if prog.Cells() != 10 || prog.Executed() != 10 || prog.Hits() != 0 {
		t.Fatalf("cells=%d executed=%d hits=%d", prog.Cells(), prog.Executed(), prog.Hits())
	}
	if prog.LatencySnapshot().Count() != 10 {
		t.Fatalf("latency samples %d, want 10", prog.LatencySnapshot().Count())
	}
	info := prog.Info(4)
	if info.Jobs != 4 || info.Cells != 10 || info.Executed != 10 {
		t.Fatalf("info %+v", info)
	}
	if info.CellLatencyUS == nil || info.CellLatencyUS.Count != 10 {
		t.Fatalf("latency summary %+v", info.CellLatencyUS)
	}
}

// TestNewProgressAllocBudget pins what one Progress costs. The experiment
// service builds one per campaign and keeps it for the daemon's life, so
// anything sized here multiplies by every campaign ever admitted.
func TestNewProgressAllocBudget(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { _ = NewProgress() }); n > 4 {
		t.Errorf("NewProgress made %.0f allocations, want <= 4", n)
	}
	const runs = 100
	keep := make([]*Progress, runs)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range keep {
		keep[i] = NewProgress()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 2<<10 {
		t.Errorf("NewProgress allocated %d bytes, want < 2 KiB", per)
	}
	runtime.KeepAlive(keep)
}
