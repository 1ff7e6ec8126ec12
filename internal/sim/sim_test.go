package sim

import (
	"fmt"
	"strings"
	"testing"

	"cwsp/internal/compiler"
	"cwsp/internal/ir"
	"cwsp/internal/progen"
)

func runBoth(t *testing.T, p *ir.Program, cfg Config, sch Scheme) *Result {
	t.Helper()
	m, err := New(p, cfg, sch)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestBaselineMatchesInterp(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		p := progen.Generate(seed, progen.DefaultConfig())
		want, err := ir.Interp(p, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		res := runBoth(t, p, DefaultConfig(), Baseline())
		if res.Ret[0] != want.RetVal {
			t.Errorf("seed %d: sim ret %d, interp %d", seed, res.Ret[0], want.RetVal)
		}
		if fmt.Sprint(res.Output) != fmt.Sprint(want.Output) {
			t.Errorf("seed %d: output %v vs %v", seed, res.Output, want.Output)
		}
		// Heap contents must agree word for word.
		for _, w := range want.Mem.Snapshot() {
			if got := res.Mem.Load(w.Addr); got != w.Val {
				t.Errorf("seed %d: mem[%#x] = %d, want %d", seed, w.Addr, got, w.Val)
				break
			}
		}
	}
}

func TestCWSPMatchesInterp(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		p := progen.Generate(seed, progen.DefaultConfig())
		q, _, err := compiler.Compile(p, compiler.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		want, err := ir.Interp(p, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		res := runBoth(t, q, DefaultConfig(), CWSP())
		if res.Ret[0] != want.RetVal {
			t.Errorf("seed %d: cwsp ret %d, interp %d", seed, res.Ret[0], want.RetVal)
		}
		if fmt.Sprint(res.Output) != fmt.Sprint(want.Output) {
			t.Errorf("seed %d: output %v vs %v", seed, res.Output, want.Output)
		}
		// Heap state agrees (sim adds stack/ckpt regions; check interp's view).
		for _, w := range want.Mem.Snapshot() {
			if got := res.Mem.Load(w.Addr); got != w.Val {
				t.Errorf("seed %d: mem[%#x] = %d, want %d", seed, w.Addr, got, w.Val)
				break
			}
		}
	}
}

func TestCWSPNVMConvergesToMem(t *testing.T) {
	p := progen.Generate(3, progen.DefaultConfig())
	q, _, err := compiler.Compile(p, compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res := runBoth(t, q, DefaultConfig(), CWSP())
	// At completion every store has been persisted: the NVM image equals
	// the architectural image.
	if !res.NVM.Equal(res.Mem) {
		t.Errorf("NVM and architectural memory diverge: %v", res.NVM.Diff(res.Mem, 5))
	}
}

func TestCWSPSlowerThanBaselineButBounded(t *testing.T) {
	var ratios []float64
	for seed := int64(0); seed < 20; seed++ {
		p := progen.Generate(seed, progen.DefaultConfig())
		q, _, err := compiler.Compile(p, compiler.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		base := runBoth(t, p, DefaultConfig(), Baseline())
		cw := runBoth(t, q, DefaultConfig(), CWSP())
		r := cw.Stats.Slowdown(base.Stats)
		if r < 0.9 {
			t.Errorf("seed %d: cWSP mysteriously faster than baseline (%.3f)", seed, r)
		}
		if r > 5 {
			t.Errorf("seed %d: cWSP slowdown %.3f looks broken", seed, r)
		}
		ratios = append(ratios, r)
	}
	t.Logf("cWSP slowdowns on random programs: %v", ratios)
}

func TestRegionStats(t *testing.T) {
	p := progen.Generate(5, progen.DefaultConfig())
	q, _, err := compiler.Compile(p, compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res := runBoth(t, q, DefaultConfig(), CWSP())
	if res.Stats.Regions == 0 || res.Stats.Boundaries == 0 {
		t.Fatal("no regions committed")
	}
	ipr := res.Stats.IPR()
	if ipr < 1 || ipr > 500 {
		t.Errorf("instructions per region = %.1f, implausible", ipr)
	}
}

func TestTinyStructuresCauseStalls(t *testing.T) {
	p := progen.Generate(8, progen.DefaultConfig())
	q, _, err := compiler.Compile(p, compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.PBSize = 2
	cfg.RBTSize = 1
	cfg.WPQSize = 2
	cfg.PPBytesBPC = 0.05 // starve the path
	res := runBoth(t, q, cfg, CWSP())
	if res.Stats.PBStallCyc == 0 && res.Stats.RBTStallCyc == 0 {
		t.Error("starved persist structures should cause stalls")
	}
	// Same program on generous structures must be faster.
	fast := runBoth(t, q, DefaultConfig(), CWSP())
	if fast.Stats.Cycles >= res.Stats.Cycles {
		t.Errorf("generous config (%d cyc) not faster than starved (%d cyc)",
			fast.Stats.Cycles, res.Stats.Cycles)
	}
}

func TestDeterminism(t *testing.T) {
	p := progen.Generate(12, progen.DefaultConfig())
	q, _, err := compiler.Compile(p, compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	a := runBoth(t, q, DefaultConfig(), CWSP())
	b := runBoth(t, q, DefaultConfig(), CWSP())
	if a.Stats != b.Stats {
		t.Errorf("nondeterministic stats:\n%+v\n%+v", a.Stats, b.Stats)
	}
}

func TestMultiCoreDisjoint(t *testing.T) {
	// worker(arr, n): for i<n: arr[i] = i*2; ret sum
	fb := ir.NewFunc("worker", 2)
	entry := fb.NewBlock("entry")
	head := fb.AddBlock("head")
	body := fb.AddBlock("body")
	exit := fb.AddBlock("exit")
	fb.SetBlock(entry)
	i := fb.Reg()
	s := fb.Reg()
	fb.ConstInto(i, 0)
	fb.ConstInto(s, 0)
	fb.Jmp(head)
	fb.SetBlock(head)
	c := fb.Bin(ir.OpCmpLT, ir.R(i), ir.R(fb.Param(1)))
	fb.Br(ir.R(c), body, exit)
	fb.SetBlock(body)
	v := fb.Mul(ir.R(i), ir.Imm(2))
	a := fb.Add(ir.R(fb.Param(0)), ir.R(i))
	sh := fb.Mul(ir.R(i), ir.Imm(8))
	a2 := fb.Add(ir.R(fb.Param(0)), ir.R(sh))
	_ = a
	fb.Store(ir.R(v), ir.R(a2), 0)
	fb.BinInto(ir.OpAdd, s, ir.R(s), ir.R(v))
	fb.BinInto(ir.OpAdd, i, ir.R(i), ir.Imm(1))
	fb.Jmp(head)
	fb.SetBlock(exit)
	fb.Ret(ir.R(s))

	p := ir.NewProgram("mc")
	p.Add(fb.MustDone())
	p.Entry = "worker"
	q, _, err := compiler.Compile(p, compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	cfg := DefaultConfig()
	cfg.Cores = 2
	m, err := NewThreaded(q, cfg, CWSP(), []ThreadSpec{
		{Fn: "worker", Args: []int64{0x2000_0000, 50}},
		{Fn: "worker", Args: []int64{0x2100_0000, 50}},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := int64(49 * 50) // sum of 2i for i<50
	if res.Ret[0] != want || res.Ret[1] != want {
		t.Errorf("rets = %v, want %d each", res.Ret, want)
	}
	if res.Mem.Load(0x2000_0000+8*10) != 20 || res.Mem.Load(0x2100_0000+8*10) != 20 {
		t.Error("array contents wrong")
	}
}

func TestAtomicDrainStalls(t *testing.T) {
	// Store-heavy program with atomics: cWSP must record drain stalls.
	fb := ir.NewFunc("main", 0)
	entry := fb.NewBlock("entry")
	head := fb.AddBlock("head")
	body := fb.AddBlock("body")
	exit := fb.AddBlock("exit")
	fb.SetBlock(entry)
	arr := fb.Alloc(1024)
	i := fb.Reg()
	fb.ConstInto(i, 0)
	fb.Jmp(head)
	fb.SetBlock(head)
	c := fb.Bin(ir.OpCmpLT, ir.R(i), ir.Imm(100))
	fb.Br(ir.R(c), body, exit)
	fb.SetBlock(body)
	off := fb.Bin(ir.OpAnd, ir.R(i), ir.Imm(63))
	_ = off
	fb.Store(ir.R(i), ir.R(arr), 0)
	fb.AtomicAdd(ir.R(arr), 8, ir.Imm(1))
	fb.BinInto(ir.OpAdd, i, ir.R(i), ir.Imm(1))
	fb.Jmp(head)
	fb.SetBlock(exit)
	fb.Ret(ir.R(i))
	p := ir.NewProgram("drain")
	p.Add(fb.MustDone())
	p.Entry = "main"
	q, _, err := compiler.Compile(p, compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res := runBoth(t, q, DefaultConfig(), CWSP())
	if res.Stats.DrainStallCyc == 0 {
		t.Error("atomics in a store loop should cause drain stalls")
	}
	if res.Mem.Load(HeapBase+8) != 100 {
		t.Errorf("atomic counter = %d, want 100", res.Mem.Load(HeapBase+8))
	}
}

// TestNumMCsPowerOfTwo: controllers interleave pages by mask, so the
// machine rejects a controller count that is not a power of two, naming
// it, and runs every power of two the configurations use.
func TestNumMCsPowerOfTwo(t *testing.T) {
	p := progen.Generate(1, progen.DefaultConfig())
	for _, n := range []int{3, 6, 0} {
		cfg := DefaultConfig()
		cfg.NumMCs = n
		_, err := New(p, cfg, CWSP())
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("NumMCs %d ", n)) {
			t.Errorf("NumMCs %d: err = %v, want a rejection naming it", n, err)
		}
	}
	for _, n := range []int{1, 2, 4} {
		cfg := DefaultConfig()
		cfg.NumMCs = n
		runBoth(t, p, cfg, CWSP())
	}
}
