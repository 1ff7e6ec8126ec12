package litmus

import (
	"encoding/json"
	"fmt"

	"cwsp/internal/check"
	"cwsp/internal/runner"
	"cwsp/internal/telemetry/live"
)

// CampaignReportSchemaVersion versions the campaign report format.
const CampaignReportSchemaVersion = 1

// CampaignOptions configure a litmus campaign.
type CampaignOptions struct {
	// Seed is the campaign's master seed: test t's program shape and fault
	// plan are a deterministic mix of (Seed, t), so one integer reproduces
	// the whole campaign byte for byte at any -jobs width.
	Seed int64
	// Tests is the number of generated litmus shapes; each runs under
	// every (scheme, kernel) cell.
	Tests int
	// Gen shapes the per-test random draw.
	Gen GenOptions
	// Schemes and Kernels span the cell grid (defaults: all persistence
	// schemes, both kernels).
	Schemes []string
	Kernels []string

	// Unsealed disables the validation layers: the negative control where
	// injected faults surface as CWSP1xx violations instead of detections.
	Unsealed bool
	// Shrink reduces every violating cell to a minimal reproducer (off for
	// smoke runs where wall-clock matters).
	Shrink bool

	// Jobs is the worker-pool width (<= 0 = GOMAXPROCS); Store optionally
	// memoizes cells across invocations; Bus receives live progress events.
	Jobs  int
	Store *runner.Store
	Bus   *live.Bus
	// Progress, when set, is shared with the campaign's pool so an
	// embedding service can read per-campaign pace while it runs.
	Progress *runner.Progress
}

// AllSchemes is the full scheme grid the acceptance campaign spans.
var AllSchemes = []string{
	"base", "cwsp", "region-formation", "persist-path", "mc-spec",
	"wb-delay", "wpq-delay", "capri", "ido", "replaycache", "psp-ideal",
}

// AllKernels spans both simulation kernels.
var AllKernels = []string{KernelFast, KernelRef}

// CampaignCell is one campaign cell's deterministic record.
type CampaignCell struct {
	Test   int    `json:"test"`
	Scheme string `json:"scheme"`
	Kernel string `json:"kernel"`
	Result
	// Repro is the shrunk one-flag reproducer (violating cells with
	// shrinking enabled).
	Repro string `json:"repro,omitempty"`
}

// CampaignTotals aggregate the campaign.
type CampaignTotals struct {
	Cells      int `json:"cells"`
	Allowed    int `json:"allowed"`
	Violations int `json:"violations"`
	Detected   int `json:"detected"`
	Unjudged   int `json:"unjudged"`
	Errors     int `json:"errors"`
	Injected   int `json:"injected"`
	Skipped    int `json:"skipped"`
}

// CampaignReport is the campaign's machine-readable outcome. Every field
// is deterministic in (options, code version): rerunning the same seed at
// any -jobs width must reproduce the report byte for byte, which is itself
// asserted by tests.
type CampaignReport struct {
	SchemaVersion int      `json:"schema_version"`
	Seed          int64    `json:"seed"`
	Tests         int      `json:"tests"`
	Schemes       []string `json:"schemes"`
	Kernels       []string `json:"kernels"`
	Unsealed      bool     `json:"unsealed,omitempty"`

	Cells  []CampaignCell `json:"cells"`
	Totals CampaignTotals `json:"totals"`
}

// Failures returns the violating cells.
func (r *CampaignReport) Failures() []CampaignCell {
	var out []CampaignCell
	for _, c := range r.Cells {
		if c.Failed() {
			out = append(out, c)
		}
	}
	return out
}

// CheckReport renders the campaign's judgments as an internal/check
// report: one CWSP1xx diagnostic per violating or unjudged cell, in cell
// order.
func (r *CampaignReport) CheckReport() *check.Report {
	rep := &check.Report{}
	for i := range r.Cells {
		if d := r.Cells[i].Diag(); d != nil {
			rep.Diags = append(rep.Diags, *d)
		}
	}
	return rep
}

// busOutcome names a cell's judgment in the live bus's recovery-outcome
// vocabulary: an allowed post-crash image is a clean recovery and a
// violation a divergence; unjudged and erroring cells count as errors.
func busOutcome(outcome string) string {
	switch outcome {
	case ResAllowed:
		return "clean"
	case ResViolation:
		return "diverged"
	case ResDetected:
		return "detected"
	}
	return "error"
}

// WriteJSON emits the report deterministically (indented, stable order).
func (r *CampaignReport) WriteJSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// testSeed mixes the campaign seed and test ordinal into the test's spec
// seed (fixed-odd-multiplier blend — stable across runs and platforms,
// the same construction the torture campaign uses).
func testSeed(seed int64, t int) int64 {
	v := uint64(seed)*0x9e3779b97f4a7c15 + uint64(t)*0x94d049bb133111eb + 0xbf58476d1ce4e5b9
	v ^= v >> 29
	v *= 0xbf58476d1ce4e5b9
	v ^= v >> 32
	s := int64(v & 0x7fffffffffffffff)
	if s == 0 {
		s = 1
	}
	return s
}

// RunCampaign executes a seeded litmus campaign over the runner pool: Tests
// generated shapes, each judged under every (scheme, kernel) cell. The
// report's cell order is (test, scheme, kernel) — independent of pool
// scheduling.
func RunCampaign(opts CampaignOptions) (*CampaignReport, *runner.Progress, error) {
	if opts.Tests < 1 {
		opts.Tests = 1
	}
	if len(opts.Schemes) == 0 {
		opts.Schemes = AllSchemes
	}
	if len(opts.Kernels) == 0 {
		opts.Kernels = AllKernels
	}
	runOpt := RunOptions{Unsealed: opts.Unsealed}

	type cellID struct {
		test           int
		scheme, kernel string
		spec           *Spec
	}
	var ids []cellID
	var cells []runner.Cell[*CampaignCell]
	for t := 0; t < opts.Tests; t++ {
		shape := NewSpec(testSeed(opts.Seed, t), opts.Gen)
		for _, sch := range opts.Schemes {
			for _, kern := range opts.Kernels {
				spec := shape.Clone()
				spec.Scheme, spec.Kernel = sch, kern
				id := cellID{t, sch, kern, spec}
				ids = append(ids, id)
				cells = append(cells, runner.Cell[*CampaignCell]{
					Key: runner.Key{
						Kind:     "litmus",
						Workload: fmt.Sprintf("test%d", t),
						Scheme:   sch,
						CfgSig:   fmt.Sprintf("spec=%s|unsealed=%v|shrink=%v", spec.Render(), opts.Unsealed, opts.Shrink),
					},
					Run: func() (*CampaignCell, error) {
						res, err := RunSpec(id.spec, runOpt)
						if err != nil {
							return nil, err
						}
						cell := &CampaignCell{Test: id.test, Scheme: id.scheme, Kernel: id.kernel, Result: *res}
						if res.Failed() && opts.Shrink {
							if shrunk, _, err := Shrink(id.spec, runOpt); err == nil {
								cell.Repro = ReplayCommand(shrunk)
							}
						}
						if opts.Bus != nil {
							for _, inj := range res.Injected {
								opts.Bus.Publish(live.Event{
									Kind:    live.CrashInjected,
									Fault:   string(inj.Kind),
									Crash:   int64(inj.Crash),
									Skipped: inj.Skipped,
								})
							}
							opts.Bus.Publish(live.Event{
								Kind:    live.RecoveryOutcome,
								Outcome: busOutcome(res.Outcome),
								Crash:   res.Crash,
							})
						}
						return cell, nil
					},
				})
			}
		}
	}

	pool := runner.NewPool[*CampaignCell](runner.Options{
		Jobs: opts.Jobs, Store: opts.Store, Reuse: opts.Store != nil,
		Bus: opts.Bus, Progress: opts.Progress,
	})
	results, err := pool.Run(cells)
	if err != nil {
		return nil, pool.Progress(), err
	}
	if err := pool.Close(); err != nil {
		return nil, pool.Progress(), err
	}

	rep := &CampaignReport{
		SchemaVersion: CampaignReportSchemaVersion,
		Seed:          opts.Seed,
		Tests:         opts.Tests,
		Schemes:       opts.Schemes,
		Kernels:       opts.Kernels,
		Unsealed:      opts.Unsealed,
	}
	for _, c := range results {
		rep.Cells = append(rep.Cells, *c)
		rep.Totals.Cells++
		for _, inj := range c.Injected {
			if inj.Skipped {
				rep.Totals.Skipped++
			} else {
				rep.Totals.Injected++
			}
		}
		switch c.Outcome {
		case ResAllowed:
			rep.Totals.Allowed++
		case ResViolation:
			rep.Totals.Violations++
		case ResDetected:
			rep.Totals.Detected++
		case ResUnjudged:
			rep.Totals.Unjudged++
		case ResError:
			rep.Totals.Errors++
		}
	}
	return rep, pool.Progress(), nil
}
