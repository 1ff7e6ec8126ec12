package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"cwsp/internal/wal"
)

// The campaign journal is the daemon's own whole-system persistence: a
// write-ahead log of campaign lifecycle records under -journal-dir. Every
// admission is fsynced before the 202 leaves the process, so an accepted
// campaign survives SIGKILL, OOM, and power loss; on the next boot the
// journal is replayed, terminal campaigns come back with their results, and
// non-terminal ones are re-admitted against the warm content-addressed
// store.
//
// The log is an internal/wal sealed append log: records are
// length-prefixed and sealed, so a torn tail — a crash mid-append — is
// detected and truncated, never misparsed, and replay trusts exactly the
// prefix of records whose frames verify and whose payloads parse.
const (
	// journalMagic frames every record ("CWSJ" little-endian).
	journalMagic = uint32(0x4a535743)
	// journalFile is the single append-only log inside the journal dir.
	journalFile = "journal-v1.wal"
)

// ErrJournalClosed is returned by journal mutations after Close.
var ErrJournalClosed = errors.New("service: journal is closed")

// journalRecord is one record's JSON payload. Kind is the lifecycle edge:
// "accepted" and "running" are non-terminal; the terminal kinds reuse the
// campaign state names ("done", "failed", "aborted"). Records appended live
// carry only the fields the edge needs (accepted carries the spec, done
// carries the result and its digest); compaction folds each campaign to a
// single record carrying everything.
type journalRecord struct {
	Kind   string `json:"kind"`
	ID     string `json:"id"`
	Client string `json:"client,omitempty"`
	TimeNS int64  `json:"t_ns,omitempty"`

	Spec *Spec `json:"spec,omitempty"` // accepted + folded terminal records

	// Terminal-record fields. Digest seals Result (sha256) so a recovered
	// "done" campaign can prove its payload intact; a digest mismatch
	// downgrades the record to non-terminal and the campaign re-runs
	// against the warm cache instead of serving corrupt bytes. Result is
	// []byte (base64 on the wire), NOT json.RawMessage: Marshal compacts
	// embedded raw JSON, which would silently reformat an indented result
	// across recovery and break both the digest and byte-identity.
	Err    string `json:"err,omitempty"`
	Digest string `json:"digest,omitempty"`
	Result []byte `json:"result,omitempty"`

	// Folded terminal records preserve the full lifecycle timeline.
	SubNS   int64 `json:"sub_ns,omitempty"`
	StartNS int64 `json:"start_ns,omitempty"`
}

// JournalEntry is one campaign's folded journal state after replay.
type JournalEntry struct {
	ID       string
	ClientID string
	Spec     Spec
	// State is a campaign state: StateQueued or StateRunning (the campaign
	// never reached a terminal record — recovery re-admits it), or a
	// terminal state (recovery restores it, result and all).
	State  string
	Err    string
	Digest string
	Result json.RawMessage

	SubmittedNS, StartedNS, FinishedNS int64
}

// JournalStats digests the journal for /api/v1/stats and manifests.
type JournalStats struct {
	Dir string `json:"dir"`
	// Campaigns is the folded campaign count; Terminal of those reached a
	// terminal record.
	Campaigns int `json:"campaigns"`
	Terminal  int `json:"terminal"`
	// Appended counts records appended by this handle since open.
	Appended int64 `json:"appended"`
	// SizeBytes is the current log size.
	SizeBytes int64 `json:"size_bytes"`
	// TornBytes is how much unverifiable tail Open truncated.
	TornBytes int64 `json:"torn_bytes,omitempty"`
	// Compactions counts folding rewrites by this handle.
	Compactions int64 `json:"compactions,omitempty"`
}

// resultDigest seals a terminal payload for end-to-end integrity (the
// frame seal covers the record bytes on disk; the digest travels with the
// result through compaction and recovery).
func resultDigest(b []byte) string {
	sum := sha256.Sum256(b)
	return "sha256:" + hex.EncodeToString(sum[:])
}

// foldInto applies one record to the per-campaign entries, kept in
// first-seen order (shared by replay and live append, so the two can never
// drift). Folding rules: a record for an unknown campaign only creates an
// entry when it carries the spec (accepted records and folded terminal
// records do); the first terminal record wins — duplicates, and terminal
// records contradicting an earlier terminal state, are ignored; a "done"
// record whose result fails its digest is treated as non-terminal so the
// campaign re-runs instead of serving corrupt bytes.
func foldInto(entries map[string]*JournalEntry, order []string, rec journalRecord) (map[string]*JournalEntry, []string) {
	if _, ok := entries[rec.ID]; !ok {
		if rec.Spec == nil {
			return entries, order // dangling edge for a campaign the log never admitted
		}
		entries[rec.ID] = &JournalEntry{ID: rec.ID, ClientID: rec.Client, Spec: *rec.Spec, State: StateQueued}
		order = append(order, rec.ID)
	}
	foldApply(entries, rec)
	return entries, order
}

// Journal is the durable campaign log: one wal.Log of framed records
// plus the folded per-campaign state it implies, kept current on every
// append so compaction never needs a snapshot from the service (and
// therefore never inverts the service's lock order). Exactly one live
// handle may own a journal directory — the same flock(2) discipline as the
// result store, so a crashed daemon's successor acquires the directory the
// moment the kernel reaps the corpse.
type Journal struct {
	mu          sync.Mutex
	log         *wal.Log
	closed      bool
	entries     map[string]*JournalEntry
	order       []string
	appended    int64
	compactions int64
}

// OpenJournal opens (creating if needed) the journal directory, acquires
// its lock, replays the log, and truncates any unverifiable tail so the
// file ends on a record boundary before the first new append.
func OpenJournal(dir string) (*Journal, error) {
	j := &Journal{entries: map[string]*JournalEntry{}}
	log, err := wal.Open(dir, journalFile, journalMagic, j.replay)
	if err != nil {
		return nil, err
	}
	j.log = log
	return j, nil
}

// replay folds one record from the log at Open. A payload that does not
// parse, or names no campaign, ends the trusted prefix.
func (j *Journal) replay(payload []byte) bool {
	var rec journalRecord
	if err := json.Unmarshal(payload, &rec); err != nil || rec.ID == "" {
		return false
	}
	j.entries, j.order = foldInto(j.entries, j.order, rec)
	return true
}

// Entries returns the folded campaigns in first-seen order.
func (j *Journal) Entries() []JournalEntry {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]JournalEntry, 0, len(j.order))
	for _, id := range j.order {
		out = append(out, *j.entries[id])
	}
	return out
}

// Stats digests the journal.
func (j *Journal) Stats() JournalStats {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JournalStats{
		Dir: j.log.Dir(), Campaigns: len(j.entries),
		Appended: j.appended, SizeBytes: j.log.Size(),
		TornBytes: j.log.Torn(), Compactions: j.compactions,
	}
	for _, e := range j.entries {
		if Terminal(e.State) {
			st.Terminal++
		}
	}
	return st
}

// Accepted journals one admission and fsyncs before returning: once the
// caller acknowledges the campaign, no crash may un-accept it.
func (j *Journal) Accepted(id, clientID string, spec Spec, tNS int64) error {
	return j.append(journalRecord{
		Kind: "accepted", ID: id, Client: clientID, TimeNS: tNS, Spec: &spec,
	}, true)
}

// Running journals a queued→running edge. Not fsynced: losing it merely
// recovers the campaign as queued, and queued and running recover
// identically (re-admit, re-run warm).
func (j *Journal) Running(id string, tNS int64) error {
	return j.append(journalRecord{Kind: "running", ID: id, TimeNS: tNS}, false)
}

// Terminal journals a campaign's terminal state (result sealed by digest
// for StateDone) and fsyncs: a result the daemon reported must survive it.
func (j *Journal) Terminal(id, state, errMsg string, result json.RawMessage, tNS int64) error {
	rec := journalRecord{Kind: state, ID: id, Err: errMsg, TimeNS: tNS}
	if state == StateDone {
		rec.Result = []byte(result)
		rec.Digest = resultDigest(result)
	}
	return j.append(rec, true)
}

func (j *Journal) append(rec journalRecord, sync bool) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("service: journal encode: %w", err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrJournalClosed
	}
	if err := j.log.Append([][]byte{payload}, sync); err != nil {
		return err
	}
	j.appended++
	// Keep the folded state current so Compact never needs a service-side
	// snapshot (and therefore never takes the service lock).
	j.entries, j.order = foldInto(j.entries, j.order, rec)
	return nil
}

// foldApply applies one record to an entry map that already contains its
// campaign.
func foldApply(entries map[string]*JournalEntry, rec journalRecord) {
	e := entries[rec.ID]
	switch rec.Kind {
	case "accepted":
		if e.SubmittedNS == 0 {
			e.SubmittedNS = rec.TimeNS
		}
	case "running":
		if !Terminal(e.State) {
			e.State = StateRunning
			e.StartedNS = rec.TimeNS
		}
	case StateDone, StateFailed, StateAborted:
		if Terminal(e.State) {
			return
		}
		if rec.Kind == StateDone {
			if rec.Digest == "" || resultDigest(rec.Result) != rec.Digest {
				return
			}
			e.Result = json.RawMessage(rec.Result)
			e.Digest = rec.Digest
		}
		if rec.SubNS != 0 {
			e.SubmittedNS = rec.SubNS
		}
		if rec.StartNS != 0 {
			e.StartedNS = rec.StartNS
		}
		e.State = rec.Kind
		e.Err = rec.Err
		e.FinishedNS = rec.TimeNS
	}
}

// foldedRecord renders one entry as its compacted record: non-terminal
// campaigns fold to a bare admission (queued and running recover the same
// way); terminal campaigns fold to a single record carrying spec, result,
// digest, and the full timeline. Deterministic given the entry, so
// compaction is idempotent byte-for-byte.
func foldedRecord(e *JournalEntry) journalRecord {
	spec := e.Spec
	if !Terminal(e.State) {
		return journalRecord{
			Kind: "accepted", ID: e.ID, Client: e.ClientID,
			TimeNS: e.SubmittedNS, Spec: &spec,
		}
	}
	return journalRecord{
		Kind: e.State, ID: e.ID, Client: e.ClientID,
		TimeNS: e.FinishedNS, SubNS: e.SubmittedNS, StartNS: e.StartedNS,
		Spec: &spec, Err: e.Err, Digest: e.Digest, Result: []byte(e.Result),
	}
}

// Compact folds the log: one record per campaign, in first-seen order,
// through wal.Rewrite (temp file, fsync, rename, directory fsync — a crash
// mid-compaction leaves the old log or the new one, never a hybrid, and
// later appends go to the file the directory names). Running it twice with
// no intervening appends produces identical bytes.
func (j *Journal) Compact() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrJournalClosed
	}
	payloads := make([][]byte, len(j.order))
	for i, id := range j.order {
		p, err := json.Marshal(foldedRecord(j.entries[id]))
		if err != nil {
			return fmt.Errorf("service: journal compact: %w", err)
		}
		payloads[i] = p
	}
	if err := j.log.Rewrite(payloads); err != nil {
		return err
	}
	j.compactions++
	return nil
}

// Close syncs and closes the log and releases the directory lock.
// Closing an already-closed journal is a no-op.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	return j.log.Close(true)
}
