package sim

import (
	"strings"
	"testing"

	"cwsp/internal/ir"
	"cwsp/internal/mem"
	"cwsp/internal/workloads"
)

// shape is one machine geometry: a program (raw for schemes that run
// the original binary, compiled for persist schemes), its threads and a
// config.
type shape struct {
	name          string
	raw, compiled *ir.Program
	specs         []ThreadSpec
	cfg           Config
}

func (s shape) build(t *testing.T, sch Scheme) *Machine {
	t.Helper()
	p := s.raw
	if sch.Persist {
		p = s.compiled
	}
	m, err := NewThreaded(p, s.cfg, sch, s.specs)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// dropSpares empties the spare list, so the next machine is built fresh.
func dropSpares() {
	for mem.TakeSpare() != nil {
	}
}

// TestSpareOfAnotherGeometry: a machine built on the spare of a spent
// machine of another geometry — 2 cores after 1, an L3 after none, no
// DRAM cache after one, and each the other way round — gives the
// statistics, images, return values and output of a fresh machine. The
// spent machine writes a nonzero word to every word of 1 MiB, so every
// page and tag array it hands on is dirty, and it fills its DRAM cache's
// array of every set.
func TestSpareOfAnotherGeometry(t *testing.T) {
	loop := storeLoop(t, HeapBase, 1<<17)
	mt := workloads.BuildMTWorker()
	def, l3, noDRAM := DefaultConfig(), DefaultConfig().WithL3(), DefaultConfig()
	noDRAM.DRAMBytes = 0
	one := func(name string, cfg Config) shape {
		return shape{name, loop, compileT(t, loop), []ThreadSpec{{Fn: "main"}}, cfg}
	}
	two := shape{"2 cores", mt, compileT(t, mt),
		[]ThreadSpec{{Fn: "worker", Args: []int64{0, 64}}, {Fn: "worker", Args: []int64{1, 64}}}, def}
	pairs := [][2]shape{
		{one("1 core", def), two},
		{two, one("1 core", def)},
		{one("no L3", def), one("L3", l3)},
		{one("L3", l3), one("no L3", def)},
		{one("DRAM cache", def), one("no DRAM cache", noDRAM)},
		{one("no DRAM cache", noDRAM), one("DRAM cache", def)},
	}
	for _, sch := range []Scheme{Baseline(), CWSP()} {
		for _, pr := range pairs {
			spent, next := pr[0], pr[1]
			label := sch.Name + ": " + next.name + " after " + spent.name
			dropSpares()
			want, err := next.build(t, sch).Run()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := spent.build(t, sch).RunStats(); err != nil {
				t.Fatal(err)
			}
			got, err := next.build(t, sch).Run()
			if err != nil {
				t.Fatal(err)
			}
			requireSameResult(t, label, got, want)
			if g, w := got.NVM.Digest(), want.NVM.Digest(); g != w {
				t.Errorf("%s: NVM digest %#x, want %#x", label, g, w)
			}
		}
	}
	dropSpares()
}

// TestSpentMachinePanics: RunStats spends the machine; running it again,
// or reading its statistics, panics and says why.
func TestSpentMachinePanics(t *testing.T) {
	m, err := New(storeLoop(t, HeapBase, 1024), DefaultConfig(), Baseline())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunStats(); err != nil {
		t.Fatal(err)
	}
	for name, call := range map[string]func(){
		"Run":          func() { m.Run() },
		"RunStats":     func() { m.RunStats() },
		"RunUntil":     func() { m.RunUntil(10) },
		"CollectStats": func() { m.CollectStats() },
		"Mem.Load":     func() { m.Mem.Load(HeapBase) },
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "spent") && !strings.Contains(msg, "spare") {
					t.Errorf("%s on a spent machine: panic %q, want one naming the spent machine", name, msg)
				}
			}()
			call()
		}()
	}
	dropSpares()
}
