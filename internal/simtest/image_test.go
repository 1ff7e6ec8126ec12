package simtest

import (
	"fmt"
	"testing"

	"cwsp/internal/mem"
	"cwsp/internal/sim"
)

// TestNVMImageRule pins which memory images a run keeps. Under a persist
// scheme every store persists the value it writes, so the persisted image
// is the architectural image itself; under any other scheme no store
// reaches NVM, which keeps only the words present before cycle 0. A
// machine resumed from a crash follows the same rule, with the recovered
// image as its pre-run words.
func TestNVMImageRule(t *testing.T) {
	const preAddr, preVal = 0x1000_0008, 77 // an InitWord dataset word
	for seed := int64(0); seed < 6; seed++ {
		cp, err := GenProgram(seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, sc := range AllSchemes(TestConfig()) {
			label := fmt.Sprintf("p%d/%s", seed, sc.Name)
			p := cp.ProgramFor(sc.Sch)
			specs := []sim.ThreadSpec{{Fn: p.Entry}}
			m, err := sim.NewThreaded(p, sc.Cfg, sc.Sch, specs)
			if err != nil {
				t.Fatal(err)
			}
			m.InitWord(preAddr, preVal)
			pre := m.Mem.Clone()
			res, err := m.Run()
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			checkImages(t, label, sc.Sch, res, pre)
			if res.Mem.Equal(pre) {
				t.Errorf("%s: the program stored nothing; the rule is untested", label)
			}

			// Crash the compiled variant half way and resume it: the
			// recovered image is the resumed machine's pre-run state.
			cfg := sc.Cfg
			cfg.Recoverable = true
			cm, err := sim.NewThreaded(cp.Compiled, cfg, sc.Sch, specs)
			if err != nil {
				t.Fatal(err)
			}
			cs, err := cm.CrashAt(res.Stats.Cycles / 2)
			if err != nil {
				t.Fatalf("%s: crash: %v", label, err)
			}
			rm, err := sim.NewResumed(cp.Compiled, cfg, sc.Sch, specs, cs)
			if err != nil {
				t.Fatalf("%s: resume: %v", label, err)
			}
			rres, err := rm.Run()
			if err != nil {
				t.Fatalf("%s: resumed run: %v", label, err)
			}
			checkImages(t, label+"/resumed", sc.Sch, rres, cs.NVM)
		}
	}
}

func checkImages(t *testing.T, label string, sch sim.Scheme, res *sim.Result, pre *mem.PagedMem) {
	t.Helper()
	if sch.Persist {
		if res.NVM != res.Mem {
			t.Errorf("%s: persist scheme keeps a separate NVM image", label)
		}
		return
	}
	if res.NVM == res.Mem {
		t.Errorf("%s: non-persist scheme aliases NVM to the architectural image", label)
	} else if !res.NVM.Equal(pre) {
		t.Errorf("%s: NVM holds more than the pre-run words: %v", label, res.NVM.Diff(pre, 4))
	}
}
