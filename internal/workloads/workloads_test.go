package workloads

import (
	"strings"
	"testing"

	"cwsp/internal/compiler"
	"cwsp/internal/ir"
	"cwsp/internal/sim"
)

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) != 37 {
		t.Fatalf("registry has %d workloads, want 37", len(all))
	}
	wantPerSuite := map[string]int{
		"CPU2006": 10, "CPU2017": 7, "Mini-apps": 2,
		"SPLASH3": 10, "WHISPER": 5, "STAMP": 3,
	}
	for suite, want := range wantPerSuite {
		if got := len(BySuite(suite)); got != want {
			t.Errorf("suite %s has %d workloads, want %d", suite, got, want)
		}
	}
	seen := map[string]bool{}
	for _, w := range all {
		if seen[w.Name] {
			t.Errorf("duplicate workload %q", w.Name)
		}
		seen[w.Name] = true
	}
}

func TestMemIntensiveSubset(t *testing.T) {
	mi := MemIntensive()
	if len(mi) < 8 {
		t.Errorf("memory-intensive subset too small: %d", len(mi))
	}
	names := map[string]bool{}
	for _, w := range mi {
		names[w.Name] = true
	}
	for _, want := range []string{"astar", "lbm", "libquan", "milc", "lulesh", "xsbench", "sps", "tatp", "tpcc"} {
		if !names[want] {
			t.Errorf("%s missing from memory-intensive subset", want)
		}
	}
}

func TestByName(t *testing.T) {
	if _, err := ByName("lbm"); err != nil {
		t.Error(err)
	}
	if _, err := ByName("doom"); err == nil {
		t.Error("expected error for unknown workload")
	}
}

func TestScaleByName(t *testing.T) {
	for _, tc := range []struct {
		name string
		want Scale
		ok   bool
	}{
		{"smoke", Smoke, true},
		{"quick", Quick, true},
		{"full", Full, true},
		{"smok", Scale{}, false},
		{"Quick", Scale{}, false},
		{"", Scale{}, false},
	} {
		got, err := ScaleByName(tc.name)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ScaleByName(%q) = %+v, %v; want %+v, ok=%v", tc.name, got, err, tc.want, tc.ok)
		}
		if err != nil && !strings.Contains(err.Error(), "smoke, quick or full") {
			t.Errorf("ScaleByName(%q) error %q does not name the valid scales", tc.name, err)
		}
	}
}

func TestAllWorkloadsVerifyAndCompile(t *testing.T) {
	for _, w := range All() {
		p := w.Build(Smoke)
		if err := ir.VerifyProgram(p); err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if _, _, err := compiler.Compile(p, compiler.DefaultOptions()); err != nil {
			t.Fatalf("%s: compile: %v", w.Name, err)
		}
	}
}

func TestAllWorkloadsRunDeterministically(t *testing.T) {
	cfg := sim.DefaultConfig()
	for _, w := range All() {
		p := w.Build(Smoke)
		m1, err := sim.New(p, cfg, sim.Baseline())
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		r1, err := m1.Run()
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		m2, err := sim.New(p, cfg, sim.Baseline())
		if err != nil {
			t.Fatal(err)
		}
		r2, err := m2.Run()
		if err != nil {
			t.Fatal(err)
		}
		if r1.Ret[0] != r2.Ret[0] || r1.Stats.Cycles != r2.Stats.Cycles {
			t.Errorf("%s: nondeterministic", w.Name)
		}
		if r1.Stats.Instrs < 500 {
			t.Errorf("%s: suspiciously few instructions (%d)", w.Name, r1.Stats.Instrs)
		}
	}
}

func TestWorkloadsMatchInterpreterSemantics(t *testing.T) {
	// The simulator and the functional interpreter must agree on results
	// for every workload (smoke scale keeps it fast).
	cfg := sim.DefaultConfig()
	for _, w := range All() {
		p := w.Build(Smoke)
		want, err := ir.Interp(p, nil, 50_000_000)
		if err != nil {
			t.Fatalf("%s: interp: %v", w.Name, err)
		}
		m, err := sim.New(p, cfg, sim.Baseline())
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run()
		if err != nil {
			t.Fatalf("%s: sim: %v", w.Name, err)
		}
		if res.Ret[0] != want.RetVal {
			t.Errorf("%s: sim ret %d != interp %d", w.Name, res.Ret[0], want.RetVal)
		}
	}
}

func TestScalesShrink(t *testing.T) {
	w, err := ByName("lbm")
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	runInstrs := func(s Scale) int64 {
		m, err := sim.New(w.Build(s), cfg, sim.Baseline())
		if err != nil {
			t.Fatal(err)
		}
		r, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return r.Stats.Instrs
	}
	smoke := runInstrs(Smoke)
	quick := runInstrs(Quick)
	if quick <= smoke {
		t.Errorf("quick (%d) should run more instructions than smoke (%d)", quick, smoke)
	}
}

func TestMemoryIntensiveWorkloadsMissDRAMCache(t *testing.T) {
	// The memory-intensive subset must actually reach NVM under the quick
	// scale, otherwise Figures 1/17/18 have no signal.
	cfg := sim.DefaultConfig()
	for _, name := range []string{"lbm", "xsbench", "sps"} {
		w, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		m, err := sim.New(w.Build(Quick), cfg, sim.Baseline())
		if err != nil {
			t.Fatal(err)
		}
		r, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		if r.Stats.NVMReads == 0 {
			t.Errorf("%s: no NVM reads — footprint too small for the DRAM cache", name)
		}
	}
}
