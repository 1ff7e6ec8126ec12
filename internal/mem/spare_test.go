package mem_test

import (
	"testing"

	"cwsp/internal/mem"
	"cwsp/internal/sim"
	"cwsp/internal/workloads"
)

// TestRunStatsHandsMemoryToNextMachine: after one RunStats, the next
// machine built from the same program runs on the first machine's L2 and
// DRAM cache arrays and its pages. Checked by identity, not by a
// process-wide allocation count: the spare the second machine leaves
// must hold the very arrays and pages the first one left.
func TestRunStatsHandsMemoryToNextMachine(t *testing.T) {
	for mem.TakeSpare() != nil {
	}
	w, err := workloads.ByName("tatp")
	if err != nil {
		t.Fatal(err)
	}
	p := w.Build(workloads.Smoke)
	cfg := sim.DefaultConfig()
	l2Words := cfg.L2Bytes / cfg.LineBytes
	spend := func() (map[*int64]int, *uint16, map[*[512]int64]bool) {
		t.Helper()
		m, err := sim.New(p, cfg, sim.Baseline())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.RunStats(); err != nil {
			t.Fatal(err)
		}
		return mem.NewestSpare()
	}
	arrays, dram, pages := spend()
	var l2 []*int64
	for a, n := range arrays {
		if n == l2Words {
			l2 = append(l2, a)
		}
	}
	if len(l2) != 2 || dram == nil || len(pages) == 0 {
		t.Fatalf("the first machine left %d L2-sized arrays, DRAM array %v and %d pages; want 2, one and some",
			len(l2), dram != nil, len(pages))
	}

	arrays2, dram2, pages2 := spend()
	for _, a := range l2 {
		if arrays2[a] != l2Words {
			t.Errorf("the second machine did not reuse the first one's L2 array at %p", a)
		}
	}
	if dram2 != dram {
		t.Errorf("the second machine's DRAM cache array is at %p, want the first one's at %p", dram2, dram)
	}
	if len(pages2) != len(pages) {
		t.Errorf("the second machine used %d pages, the first %d", len(pages2), len(pages))
	}
	for pg := range pages {
		if !pages2[pg] {
			t.Errorf("the second machine did not reuse the first one's page at %p", pg)
			break
		}
	}
	for mem.TakeSpare() != nil {
	}
}
