package cwsp

import (
	"testing"

	"cwsp/internal/progen"
)

func TestFacadeCompileAndRun(t *testing.T) {
	p := progen.Generate(1, progen.DefaultConfig())
	out, rep, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalRegions() == 0 {
		t.Error("no regions formed")
	}
	res, err := Run(out, DefaultConfig(), SchemeCWSP())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Instrs == 0 || res.Stats.Cycles == 0 {
		t.Error("empty run")
	}
	base, err := Run(p, DefaultConfig(), SchemeBaseline())
	if err != nil {
		t.Fatal(err)
	}
	if base.Ret[0] != res.Ret[0] {
		t.Errorf("schemes disagree on result: %d vs %d", base.Ret[0], res.Ret[0])
	}
}

func TestFacadeCrashConsistency(t *testing.T) {
	p := progen.Generate(2, progen.DefaultConfig())
	out, _, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, crash := range []int64{1, 500, 5000} {
		ok, err := CheckCrashConsistency(out, DefaultConfig(), crash)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Errorf("crash at %d not recovered", crash)
		}
	}
}

func TestFacadeSchemesAndWorkloads(t *testing.T) {
	if len(Workloads()) != 37 {
		t.Errorf("expected 37 workloads, got %d", len(Workloads()))
	}
	if _, ok := SchemeByName("capri"); !ok {
		t.Error("capri scheme missing")
	}
	if _, ok := SchemeByName("bogus"); ok {
		t.Error("bogus scheme resolved")
	}
	if _, err := WorkloadByName("lbm"); err != nil {
		t.Error(err)
	}
	if len(Experiments()) < 19 {
		t.Errorf("expected at least 19 experiments, got %d", len(Experiments()))
	}
}

func TestFacadeRunExperiment(t *testing.T) {
	rep, err := RunExperiment("hwcost", "smoke", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) == 0 {
		t.Error("empty experiment report")
	}
	if _, err := RunExperiment("nope", "smoke", nil); err == nil {
		t.Error("unknown experiment should fail")
	}
	if rep, err := RunExperiment("hwcost", "smok", nil); err == nil {
		t.Errorf("unknown scale should fail, got a report with %d rows", len(rep.Rows))
	}
}
