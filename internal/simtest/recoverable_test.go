package simtest

import (
	"fmt"
	"testing"

	"cwsp/internal/sim"
)

// TestRecoverableDoesNotChangeRuns is the differential proof behind
// running golden (never-crashing) machines without the persist journal:
// Config.Recoverable only records the journal and the region descriptor
// log, so a run to completion must produce byte-identical records — stats,
// return values, output, and both memory images — with it on and off.
// progen corpus × all 11 schemes × 1 and 2 cores.
func TestRecoverableDoesNotChangeRuns(t *testing.T) {
	seeds := int64(corpusSeeds)
	if testing.Short() {
		seeds = 25
	}
	cases := AllSchemes(TestConfig())
	smp := newSampler()
	for seed := int64(0); seed < seeds; seed++ {
		cp, err := GenProgram(seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, sc := range cases {
			p := cp.ProgramFor(sc.Sch)
			for _, cores := range []int{1, 2} {
				if !smp.take() {
					continue
				}
				specs := make([]sim.ThreadSpec, cores)
				for i := range specs {
					specs[i] = sim.ThreadSpec{Fn: p.Entry}
				}
				label := fmt.Sprintf("p%d/%s/x%d", seed, sc.Name, cores)
				on, off := sc.Cfg, sc.Cfg
				on.Recoverable, off.Recoverable = true, false
				want, err := Run(p, on, sc.Sch, specs)
				if err != nil {
					t.Fatalf("%s: recoverable: %v", label, err)
				}
				got, err := Run(p, off, sc.Sch, specs)
				if err != nil {
					t.Fatalf("%s: not recoverable: %v", label, err)
				}
				if w, g := Canon(want), Canon(got); w != g {
					t.Errorf("%s: Recoverable changed the run\n%s", label, firstDiff(w, g))
				}
			}
		}
	}
}
