package litmus

import (
	"runtime"
	"testing"

	"cwsp/internal/sim"
)

// newMachineBytes returns the heap bytes one sim.NewThreaded of p under
// cfg allocates (MemStats.TotalAlloc delta).
func newMachineBytes(t *testing.T, p *Prepared, cfg sim.Config) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m, err := sim.NewThreaded(p.Prog, cfg, p.Sch, p.Specs)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(m)
	return after.TotalAlloc - before.TotalAlloc
}

// TestNewMachineAllocBudget pins what building one litmus-sized machine
// under the default configuration costs. A litmus cell builds two machines
// that touch a handful of lines, so the DRAM cache's tag store (256 KiB
// at the default 8 MiB capacity) must be allocated only as sets are
// touched, never up front. The eager remainder is dominated by the L1D and
// L2 way slots (~270 KiB under DefaultConfig), which stay flat because
// they sit on the per-access hot path.
func TestNewMachineAllocBudget(t *testing.T) {
	s, err := Parse("t0=S0.7,F,A2.9;t1=S1.8,C,S3.10;sch=cwsp;kern=fast;crashes=420")
	if err != nil {
		t.Fatal(err)
	}
	p, err := Prepare(s)
	if err != nil {
		t.Fatal(err)
	}
	got := newMachineBytes(t, p, p.Cfg)
	if got >= 384<<10 {
		t.Errorf("sim.NewThreaded allocated %d KiB for a litmus-sized program, want < 384 KiB", got>>10)
	}
	big := p.Cfg
	big.DRAMBytes *= 8
	if grown := newMachineBytes(t, p, big); grown > got+16<<10 {
		t.Errorf("an 8x larger DRAM cache grew sim.NewThreaded from %d to %d bytes; tags must be allocated on first touch",
			got, grown)
	}
}
