// Package service is the fleet-scale experiment daemon (cwspd): a
// long-running HTTP/JSON service that accepts sweep, torture, and litmus
// campaign specs, runs them on the existing internal/runner pool behind a
// bounded admission queue with backpressure, shares one content-addressed
// result cache across every campaign and client, and streams progress over
// the internal/telemetry/live bus. The load generator (cwspload, built on
// RunLoad in this package) hammers a daemon with concurrent clients over
// mixed cold/warm traffic and reports what the clients saw as a
// LoadReport.
package service

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"cwsp/internal/bench"
	"cwsp/internal/litmus"
	"cwsp/internal/workloads"
)

// Campaign kinds.
const (
	KindSweep   = "sweep"
	KindTorture = "torture"
	KindLitmus  = "litmus"
)

// Spec is one campaign request: the complete, deterministic description of
// the work, normalized at admission so two specs that mean the same sweep
// hash and cache identically.
type Spec struct {
	// Kind selects the campaign engine: "sweep" (bench experiments),
	// "torture" (fault-injection recovery campaign), or "litmus"
	// (persistency-model litmus campaign).
	Kind string `json:"kind"`

	// Key, when set, is a client-supplied idempotency key and becomes the
	// campaign ID: resubmitting the same spec under the same key returns
	// the existing — possibly journal-recovered — campaign instead of
	// duplicating the work, which is how a client survives a daemon
	// restart mid-wait without double-running anything. The same key with
	// a different spec is a conflict (ErrKeyConflict, HTTP 409). Empty
	// keys get daemon-generated IDs and no dedup.
	Key string `json:"key,omitempty"`

	// Sweep: experiment IDs (see cwspbench -list) at a workload scale.
	Experiments []string `json:"experiments,omitempty"`
	Scale       string   `json:"scale,omitempty"` // smoke (default), quick, full
	PerApp      bool     `json:"per_app,omitempty"`

	// Torture: workloads, cells per workload, crash depth, fault points.
	Workloads []string `json:"workloads,omitempty"`
	Depth     int      `json:"depth,omitempty"`
	Points    int      `json:"points,omitempty"`

	// Litmus: scheme and kernel grid.
	Schemes []string `json:"schemes,omitempty"`
	Kernels []string `json:"kernels,omitempty"`

	// Shared: master seed (torture/litmus), cell count (cells per torture
	// target, litmus shapes), negative-control switch.
	Seed     int64 `json:"seed,omitempty"`
	Cells    int   `json:"cells,omitempty"`
	Unsealed bool  `json:"unsealed,omitempty"`
}

// Normalize fills defaults and canonicalizes list order in place.
func (s *Spec) Normalize() {
	s.Kind = strings.ToLower(strings.TrimSpace(s.Kind))
	s.Key = strings.TrimSpace(s.Key)
	s.Scale = s.ScaleOf().Name
	switch s.Kind {
	case KindSweep:
		if len(s.Experiments) == 0 {
			s.Experiments = []string{"fig06"}
		}
	case KindTorture:
		if len(s.Workloads) == 0 {
			s.Workloads = []string{"tatp"}
		}
		if s.Cells < 1 {
			s.Cells = 1
		}
		if s.Depth < 1 {
			s.Depth = 2
		}
		if s.Points < 1 {
			s.Points = 3
		}
	case KindLitmus:
		if s.Cells < 1 {
			s.Cells = 1
		}
		if len(s.Schemes) == 0 {
			s.Schemes = []string{"base", "cwsp"}
		}
		if len(s.Kernels) == 0 {
			s.Kernels = []string{"fast"}
		}
		sort.Strings(s.Schemes)
		sort.Strings(s.Kernels)
	}
}

// Validate rejects specs the daemon cannot run, after Normalize.
func (s *Spec) Validate() error {
	switch s.Kind {
	case KindSweep:
		for _, id := range s.Experiments {
			if _, err := bench.ByID(id); err != nil {
				return fmt.Errorf("service: %w", err)
			}
		}
	case KindTorture:
		for _, w := range s.Workloads {
			if _, err := workloads.ByName(w); err != nil {
				return fmt.Errorf("service: %w", err)
			}
		}
	case KindLitmus:
		known := map[string]bool{}
		for _, sch := range litmus.AllSchemes {
			known[sch] = true
		}
		for _, sch := range s.Schemes {
			if !known[sch] {
				return fmt.Errorf("service: unknown litmus scheme %q", sch)
			}
		}
		for _, k := range s.Kernels {
			if k != "fast" && k != "ref" {
				return fmt.Errorf("service: unknown litmus kernel %q", k)
			}
		}
	default:
		return fmt.Errorf("service: unknown campaign kind %q (want sweep, torture, or litmus)", s.Kind)
	}
	if s.Cells > 10_000 {
		return fmt.Errorf("service: %d cells exceeds the per-campaign admission cap", s.Cells)
	}
	if err := validateKey(s.Key); err != nil {
		return err
	}
	return nil
}

// validateKey bounds client-supplied idempotency keys: they become
// campaign IDs and URL path segments, so the charset is conservative.
func validateKey(key string) error {
	if key == "" {
		return nil
	}
	if len(key) > 64 {
		return fmt.Errorf("service: idempotency key longer than 64 bytes")
	}
	for _, c := range key {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return fmt.Errorf("service: idempotency key %q: only [a-zA-Z0-9._-] allowed", key)
		}
	}
	return nil
}

// equalSpec reports whether two normalized specs describe the same work
// (JSON form compared — Normalize canonicalizes list order, so equal
// work marshals equal).
func equalSpec(a, b Spec) bool {
	ab, aerr := json.Marshal(a)
	bb, berr := json.Marshal(b)
	return aerr == nil && berr == nil && string(ab) == string(bb)
}

// ScaleOf maps the spec's scale name to a workload scale; an empty or
// unknown name is smoke, as Normalize records it.
func (s *Spec) ScaleOf() workloads.Scale {
	if sc, err := workloads.ScaleByName(s.Scale); err == nil {
		return sc
	}
	return workloads.Smoke
}
