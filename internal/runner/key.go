// Package runner is the parallel experiment engine: it decomposes a sweep
// into independent work-unit Cells keyed by a content signature, executes
// them on a bounded worker pool with per-cell panic isolation and bounded
// retry, and memoizes results in a persistent sealed-log store so a
// repeated or interrupted sweep resumes instead of recomputing. Simulations
// in this repo are bit-deterministic and share no mutable state, which makes
// every experiment cell embarrassingly parallel and perfectly cacheable;
// the runner is the layer that exploits both. internal/bench and
// internal/recovery submit their cells through it; the pool reports
// progress and cell latency through internal/telemetry.
package runner

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
)

// Key is the content signature of one work unit. Every field that can
// change the result must appear here: the workload identity and scale, the
// full machine-config signature, the full scheme signature (not just its
// name), the compile mode, and a code-version salt that callers bump when
// the simulator's semantics change (invalidating every previously cached
// result at once). Two cells with equal Signatures are interchangeable;
// the pool runs one and shares the result.
type Key struct {
	Kind     string `json:"kind"`     // cell family: "sim", "recovery", ...
	Workload string `json:"workload"` // workload or program identity
	Scale    string `json:"scale"`
	Compile  string `json:"compile,omitempty"` // compile mode ("" = original binary)
	Scheme   string `json:"scheme"`            // full scheme signature
	CfgSig   string `json:"cfg"`               // full machine-config signature
	Salt     string `json:"salt"`              // code-version salt
}

// Signature returns the cell's content hash: a hex SHA-256 over an
// unambiguous field encoding (lengths prefix every field, so no separator
// collision can alias two keys).
func (k Key) Signature() string {
	h := sha256.New()
	for _, f := range []string{k.Kind, k.Workload, k.Scale, k.Compile, k.Scheme, k.CfgSig, k.Salt} {
		fmt.Fprintf(h, "%d:%s;", len(f), f)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// String renders the key for logs and store records.
func (k Key) String() string {
	return fmt.Sprintf("%s/%s@%s/%s/%s", k.Kind, k.Workload, k.Scale, k.Compile, k.Scheme)
}
