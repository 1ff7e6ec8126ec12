package litmus

import (
	"bytes"
	"testing"

	"cwsp/internal/telemetry/live"
)

func smallCampaign(jobs int, unsealed bool) CampaignOptions {
	return CampaignOptions{
		Seed:     11,
		Tests:    4,
		Gen:      GenOptions{Cores: 2, Events: 4, Points: 2},
		Schemes:  []string{"base", "cwsp", "capri", "ido"},
		Kernels:  AllKernels,
		Unsealed: unsealed,
		Shrink:   true,
		Jobs:     jobs,
	}
}

func TestCampaignReportByteIdenticalAcrossJobs(t *testing.T) {
	var reports [][]byte
	for _, jobs := range []int{1, 4} {
		rep, _, err := RunCampaign(smallCampaign(jobs, false))
		if err != nil {
			t.Fatal(err)
		}
		b, err := rep.WriteJSON()
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, b)
	}
	if !bytes.Equal(reports[0], reports[1]) {
		t.Fatal("same seed, different reports at jobs=1 vs jobs=4")
	}
}

func TestCampaignSealedHasNoViolations(t *testing.T) {
	rep, _, err := RunCampaign(smallCampaign(0, false))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Totals.Cells != 4*4*2 {
		t.Errorf("cell count: got %d, want %d", rep.Totals.Cells, 4*4*2)
	}
	if rep.Totals.Violations != 0 || rep.Totals.Errors != 0 {
		t.Errorf("sealed campaign must be clean: %+v", rep.Totals)
		for _, c := range rep.Failures() {
			t.Logf("violation: test %d %s/%s %s: %s (spec %s)",
				c.Test, c.Scheme, c.Kernel, c.Code, c.Msg, c.Result.Spec)
		}
	}
	if rep.Totals.Allowed == 0 {
		t.Error("campaign judged no cell allowed — executor or derivation broken")
	}
	if n := len(rep.CheckReport().Diags); n != rep.Totals.Unjudged {
		t.Errorf("check report: %d diags, want %d (unjudged only)", n, rep.Totals.Unjudged)
	}
}

func TestCampaignCellOrderIsGridOrder(t *testing.T) {
	opts := smallCampaign(3, false)
	rep, _, err := RunCampaign(opts)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for test := 0; test < opts.Tests; test++ {
		for _, sch := range opts.Schemes {
			for _, kern := range opts.Kernels {
				c := rep.Cells[i]
				if c.Test != test || c.Scheme != sch || c.Kernel != kern {
					t.Fatalf("cell %d out of order: got (%d,%s,%s), want (%d,%s,%s)",
						i, c.Test, c.Scheme, c.Kernel, test, sch, kern)
				}
				i++
			}
		}
	}
}

func TestCampaignUnsealedViolationsCarryRepros(t *testing.T) {
	// The seed/shape ranges here are known (from the acceptance runs) to
	// produce at least one unsealed violation on the drain schemes.
	opts := CampaignOptions{
		Seed:     7,
		Tests:    12,
		Gen:      GenOptions{Cores: 2, Events: 5, Points: 3},
		Schemes:  []string{"cwsp", "wb-delay"},
		Kernels:  []string{KernelFast},
		Unsealed: true,
		Shrink:   true,
	}
	rep, _, err := RunCampaign(opts)
	if err != nil {
		t.Fatal(err)
	}
	fails := rep.Failures()
	if len(fails) == 0 {
		t.Skip("no unsealed violation at this seed range (generator drift); teeth covered by TestRunSpecUnsealedFlagsViolation")
	}
	for _, c := range fails {
		if c.Repro == "" {
			t.Errorf("violating cell (test %d %s/%s) has no shrunk reproducer", c.Test, c.Scheme, c.Kernel)
			continue
		}
		// The reproducer's embedded spec must parse and fail on replay.
		spec := c.Repro
		spec = spec[len("cwsplitmus -replay '") : len(spec)-1]
		s, err := Parse(spec)
		if err != nil {
			t.Errorf("repro spec does not parse: %v (%q)", err, c.Repro)
			continue
		}
		res, err := RunSpec(s, RunOptions{Unsealed: true})
		if err != nil {
			t.Errorf("repro spec does not run: %v", err)
			continue
		}
		if !res.Failed() {
			t.Errorf("repro spec does not reproduce: %s (%q)", res.Outcome, c.Repro)
		}
	}
}

// TestCampaignBusMatchesReportTotals holds the live bus's recovery-outcome
// counters to the report they describe: allowed cells are clean
// recoveries, violations divergences, detections detections, and
// unjudged or erroring cells errors. It covers a passing campaign and the
// unsealed negative control, whose injected faults surface as violations.
func TestCampaignBusMatchesReportTotals(t *testing.T) {
	// `cwsplitmus -seed 1 -unsealed` shape 15 violates on every drain
	// scheme.
	unsealed := CampaignOptions{
		Seed:     1,
		Tests:    16,
		Gen:      GenOptions{Cores: 2, Events: 5, Points: 2},
		Schemes:  []string{"base", "cwsp", "ido"},
		Kernels:  AllKernels,
		Unsealed: true,
	}
	for _, tc := range []struct {
		name string
		opts CampaignOptions
	}{
		{"sealed", smallCampaign(2, false)},
		{"unsealed", unsealed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bus := live.NewBus()
			tc.opts.Bus = bus
			rep, _, err := RunCampaign(tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			tot, s := rep.Totals, bus.Snapshot()
			if tc.opts.Unsealed && tot.Violations == 0 {
				t.Fatalf("negative control found no violation: %+v", tot)
			}
			if !tc.opts.Unsealed && tot.Allowed == 0 {
				t.Fatalf("passing campaign judged no cell allowed: %+v", tot)
			}
			if s.Clean != int64(tot.Allowed) || s.Diverged != int64(tot.Violations) ||
				s.Detected != int64(tot.Detected) || s.Errors != int64(tot.Unjudged+tot.Errors) {
				t.Errorf("bus clean/diverged/detected/errors = %d/%d/%d/%d, report allowed/violations/detected/unjudged+errors = %d/%d/%d/%d",
					s.Clean, s.Diverged, s.Detected, s.Errors,
					tot.Allowed, tot.Violations, tot.Detected, tot.Unjudged+tot.Errors)
			}
		})
	}
}
