package litmus

import (
	"errors"
	"fmt"

	"cwsp/internal/check"
	"cwsp/internal/faults"
	"cwsp/internal/sim"
)

// Outcome labels for one executed litmus cell.
const (
	// ResAllowed: the observed crash image is inside the derived set.
	ResAllowed = "allowed"
	// ResViolation: the observed image is outside the derived set — a
	// persistency-model violation, classified as a CWSP1xx code.
	ResViolation = "violation"
	// ResDetected: an injected fault was caught by a validation layer
	// (sealed journal / drain ledger) before producing a crash image.
	ResDetected = "detected"
	// ResUnjudged: the derivation hit its enumeration cap (CWSP190); the
	// cell is reported but not judged.
	ResUnjudged = "unjudged"
	// ResError: the experiment itself failed (setup or simulation error).
	ResError = "error"
)

// Result is one litmus execution's deterministic record.
type Result struct {
	Spec    string `json:"spec"`
	Outcome string `json:"outcome"`

	Crash        int64   `json:"crash,omitempty"`         // absolute crash cycle
	GoldenCycles int64   `json:"golden_cycles,omitempty"` // uninterrupted run length
	Observed     Outcome `json:"observed"`
	AllowedCount int     `json:"allowed_count,omitempty"`

	// Code/Msg carry the CWSP1xx classification (violation or unjudged).
	Code string `json:"code,omitempty"`
	Msg  string `json:"msg,omitempty"`

	Detected *sim.CorruptionError `json:"detected,omitempty"`
	Injected []faults.Injected    `json:"injected,omitempty"`
	Err      string               `json:"err,omitempty"`
}

// Failed reports whether the cell violated the litmus criterion.
func (r *Result) Failed() bool { return r.Outcome == ResViolation }

// Diag renders the result as an internal/check diagnostic (nil when the
// cell carries no code). Fn names the litmus program; Block/Index/Region
// do not apply.
func (r *Result) Diag() *check.Diagnostic {
	if r.Code == "" {
		return nil
	}
	sev := check.Error
	if r.Code == check.CodeLitmusCap {
		sev = check.Warning
	}
	return &check.Diagnostic{
		Code: r.Code, Severity: sev, Fn: "litmus",
		Block: -1, Index: -1, Region: -1,
		Msg: fmt.Sprintf("%s; spec %s; observed %s", r.Msg, r.Spec, r.Observed),
	}
}

// RunOptions tune one litmus execution.
type RunOptions struct {
	// Unsealed disables the journal/ledger validation layers — the negative
	// control: injected faults then surface as CWSP1xx violations instead
	// of detections, demonstrating the checker sees what the seals prevent.
	Unsealed bool
	// MaxSteps caps simulation steps (0: a litmus-sized default).
	MaxSteps int64
}

// RunSpec executes one litmus end to end: derive the allowed set from the
// compiled program, run uninterrupted for the cycle budget, crash at the
// plan's cycle with the plan's faults resolved against live machine state,
// and judge the reconstructed NVM image of the tracked words against the
// derived set. Setup impossibilities (unknown scheme, malformed program)
// return an error; everything the experiment itself can produce is folded
// into the Result.
func RunSpec(s *Spec, opt RunOptions) (*Result, error) {
	p, err := Prepare(s)
	if err != nil {
		return nil, err
	}
	model, err := Extract(p)
	if err != nil {
		return nil, err
	}
	derived := Derive(model)

	res := &Result{Spec: s.Render(), Observed: Outcome{}}
	cfg := p.Cfg
	cfg.Unsealed = opt.Unsealed
	if opt.MaxSteps > 0 {
		cfg.MaxSteps = opt.MaxSteps
	} else if cfg.MaxSteps == 0 || cfg.MaxSteps > 1_000_000 {
		cfg.MaxSteps = 1_000_000 // litmus programs are tiny; bound runaways
	}

	// The golden run never crashes, so it keeps no persist journal.
	gcfg := cfg
	gcfg.Recoverable = false
	golden, err := newMachine(p, gcfg)
	if err != nil {
		return nil, err
	}
	gres, err := golden.Run()
	if err != nil {
		res.Outcome, res.Err = ResError, fmt.Sprintf("golden run: %v", err)
		return res, nil
	}
	res.GoldenCycles = gres.Stats.Cycles

	crashM, err := newMachine(p, cfg)
	if err != nil {
		return nil, err
	}
	cycle := s.Plan.CrashCycle(0, gres.Stats.Cycles)
	res.Crash = cycle
	if err := crashM.RunUntil(cycle); err != nil {
		res.Outcome, res.Err = ResError, fmt.Sprintf("run to crash: %v", err)
		return res, nil
	}
	cf, injected := faults.Resolve(s.Plan, 0, crashM, cycle)
	res.Injected = injected
	cs, err := crashM.CrashAtFaults(cycle, cf)
	if err != nil {
		if ce, ok := asCorruption(err); ok {
			res.Outcome, res.Detected = ResDetected, ce
			return res, nil
		}
		res.Outcome, res.Err = ResError, fmt.Sprintf("crash reconstruction: %v", err)
		return res, nil
	}

	for k := 0; k < NumTracked; k++ {
		res.Observed[k] = cs.NVM.Load(TrackAddr(k))
	}
	res.AllowedCount = derived.Count()
	switch {
	case derived.Capped:
		res.Outcome = ResUnjudged
		res.Code = check.CodeLitmusCap
		res.Msg = "outcome enumeration hit its cap; cell not judged"
	case derived.Allows(res.Observed):
		res.Outcome = ResAllowed
	default:
		res.Outcome = ResViolation
		res.Code, res.Msg = Classify(model, res.Observed)
	}
	return res, nil
}

func newMachine(p *Prepared, cfg sim.Config) (*sim.Machine, error) {
	m, err := sim.NewThreaded(p.Prog, cfg, p.Sch, p.Specs)
	if err != nil {
		return nil, fmt.Errorf("litmus: machine: %w", err)
	}
	InitTracked(m)
	return m, nil
}

func asCorruption(err error) (*sim.CorruptionError, bool) {
	var ce *sim.CorruptionError
	ok := errors.As(err, &ce)
	return ce, ok
}
