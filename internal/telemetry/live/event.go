// Package live is the campaign observability substrate: a lock-cheap,
// allocation-conscious event bus that the runner pool, the fault/recovery
// torture campaigns, and the simulation kernel publish typed events into,
// plus the HTTP endpoint (Prometheus /metrics, /progress JSON snapshots,
// an SSE /events stream, and net/http/pprof) that serves a *running*
// sweep — the post-hoc manifests of internal/telemetry report what
// happened; this package reports what is happening.
//
// Every publisher entry point is nil-guarded: a nil *Bus is a valid,
// fully disabled bus, so instrumented code pays one predictable branch
// and zero allocations when observability is off (the steady-state
// zero-alloc guarantee of the fast simulation kernel is preserved and
// regression-tested in internal/simtest).
package live

import (
	"encoding/json"
	"fmt"
)

// Kind discriminates the typed events on the bus.
type Kind uint8

// Event kinds. The zero Kind is invalid so an accidentally zero Event is
// visible in streams.
const (
	// CellStarted: a pool worker began executing a work-unit cell.
	CellStarted Kind = iota + 1
	// CellFinished: a worker finished a cell (Err != "" on failure).
	CellFinished
	// CellCached: a cell was served without executing — from the
	// persistent store, or by an identical cell in the same batch.
	CellCached
	// CrashInjected: a fault-injection campaign landed (or skipped) one
	// fault point at a crash ordinal.
	CrashInjected
	// RecoveryOutcome: one crash/recover/re-execute experiment concluded
	// (Outcome is clean/detected/diverged/error).
	RecoveryOutcome
	// PoolOccupancy: a periodic worker-pool occupancy sample.
	PoolOccupancy
	// StoreFlush: the persistent result store rewrote its dirty shards.
	StoreFlush
	// SimProgress: a long-running simulation advanced (Instrs/Cycles are
	// deltas since the machine's previous report).
	SimProgress
	// CampaignRecovered: the experiment daemon restored a journaled
	// campaign at boot (Cell is the campaign ID, Outcome its recovered
	// state).
	CampaignRecovered

	numKinds
)

var kindNames = [numKinds]string{
	CellStarted:     "cell_started",
	CellFinished:    "cell_finished",
	CellCached:      "cell_cached",
	CrashInjected:   "crash_injected",
	RecoveryOutcome: "recovery_outcome",
	PoolOccupancy:   "pool_occupancy",
	StoreFlush:      "store_flush",
	SimProgress:     "sim_progress",

	CampaignRecovered: "campaign_recovered",
}

// String names the kind (snake_case, stable: it is the SSE event name and
// the Prometheus label value).
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// MarshalJSON emits the kind name.
func (k Kind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// UnmarshalJSON parses a kind name.
func (k *Kind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	for i, n := range kindNames {
		if n == s {
			*k = Kind(i)
			return nil
		}
	}
	return fmt.Errorf("live: unknown event kind %q", s)
}

// Event is one bus message. It is a flat value type — no pointers into
// publisher state — so fan-out to subscribers is a struct copy and a
// subscriber can never observe a publisher's later mutations. Only the
// fields relevant to the Kind are set; Seq, TimeUnixNS, and the
// Active/Done/Total running totals are stamped by the bus at publish.
type Event struct {
	Seq        uint64 `json:"seq"`
	Kind       Kind   `json:"kind"`
	TimeUnixNS int64  `json:"t_ns"`

	// Cell events.
	Worker int    `json:"worker,omitempty"` // pool worker ordinal; -1 = coordinator
	Cell   string `json:"cell,omitempty"`   // work-unit key
	DurUS  int64  `json:"dur_us,omitempty"` // cell wall latency
	Err    string `json:"err,omitempty"`

	// Fault / recovery events.
	Fault   string `json:"fault,omitempty"`   // fault kind (torn-log, ...)
	Crash   int64  `json:"crash,omitempty"`   // crash cycle or ordinal
	Skipped bool   `json:"skipped,omitempty"` // no eligible victim
	Outcome string `json:"outcome,omitempty"` // clean|detected|diverged|error

	// Store events.
	Records int `json:"records,omitempty"` // records on disk after the flush

	// Simulation progress (deltas since the machine's last report).
	Instrs int64 `json:"instrs,omitempty"`
	Cycles int64 `json:"cycles,omitempty"`

	// Running totals stamped by the bus on every event.
	Active int64 `json:"active"`
	Done   int64 `json:"done"`
	Total  int64 `json:"total"`
}
