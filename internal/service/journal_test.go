package service

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"cwsp/internal/wal"
)

func litmusSpec(key string, seed int64) Spec {
	s := Spec{Kind: KindLitmus, Key: key, Cells: 1, Seed: seed}
	s.Normalize()
	return s
}

func journalPath(dir string) string { return filepath.Join(dir, journalFile) }

// frameHeader is the size of a wal frame's header: magic, length, seal.
const frameHeader = 16

// journalFrame frames one record as the journal appends it.
func journalFrame(t testing.TB, rec journalRecord) []byte {
	payload, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	return wal.AppendFrame(nil, journalMagic, payload)
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Indented on purpose: campaign engines emit indented JSON, and the
	// journal must round-trip it byte-exact (a record format that compacts
	// embedded JSON breaks the digest and recovery byte-identity).
	result := json.RawMessage("{\n  \"cells\": 1,\n  \"ok\": true\n}")
	if err := j.Accepted("a", "cli-1", litmusSpec("a", 7), 100); err != nil {
		t.Fatal(err)
	}
	if err := j.Running("a", 200); err != nil {
		t.Fatal(err)
	}
	if err := j.Terminal("a", StateDone, "", result, 300); err != nil {
		t.Fatal(err)
	}
	if err := j.Accepted("b", "cli-2", litmusSpec("b", 8), 400); err != nil {
		t.Fatal(err)
	}
	if err := j.Running("b", 500); err != nil {
		t.Fatal(err)
	}
	if err := j.Accepted("c", "cli-3", litmusSpec("c", 9), 600); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	entries := j2.Entries()
	if len(entries) != 3 {
		t.Fatalf("replayed %d entries, want 3", len(entries))
	}
	a, b, c := entries[0], entries[1], entries[2]
	if a.ID != "a" || a.State != StateDone || !bytes.Equal(a.Result, result) {
		t.Fatalf("entry a = %+v, want done with result", a)
	}
	if a.SubmittedNS != 100 || a.StartedNS != 200 || a.FinishedNS != 300 {
		t.Fatalf("entry a timeline = %d/%d/%d", a.SubmittedNS, a.StartedNS, a.FinishedNS)
	}
	if a.Digest != resultDigest(result) {
		t.Fatalf("entry a digest = %q", a.Digest)
	}
	if b.ID != "b" || b.State != StateRunning {
		t.Fatalf("entry b = %+v, want running", b)
	}
	if c.ID != "c" || c.State != StateQueued {
		t.Fatalf("entry c = %+v, want queued", c)
	}
	if b.ClientID != "cli-2" || b.Spec.Seed != 8 {
		t.Fatalf("entry b lost identity: %+v", b)
	}
}

func TestJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Accepted("a", "", litmusSpec("a", 1), 1); err != nil {
		t.Fatal(err)
	}
	if err := j.Terminal("a", StateFailed, "boom", nil, 2); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(journalPath(dir))
	if err != nil {
		t.Fatal(err)
	}

	// A crash mid-append: a full frame header promising more payload than
	// the file holds.
	torn := wal.AppendFrame(nil, journalMagic, bytes.Repeat([]byte{'x'}, 4096))[:frameHeader+4]
	if err := os.WriteFile(journalPath(dir), append(append([]byte{}, good...), torn...), 0o644); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	entries := j2.Entries()
	if len(entries) != 1 || entries[0].State != StateFailed || entries[0].Err != "boom" {
		t.Fatalf("after torn tail: %+v", entries)
	}
	if st := j2.Stats(); st.TornBytes != int64(len(torn)) {
		t.Fatalf("torn bytes = %d, want %d", st.TornBytes, len(torn))
	}
	// The tail is truncated, so new appends extend the trusted prefix.
	if err := j2.Accepted("b", "", litmusSpec("b", 2), 3); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	j3, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if entries := j3.Entries(); len(entries) != 2 || entries[1].ID != "b" {
		t.Fatalf("after truncate+append: %+v", entries)
	}
	if st := j3.Stats(); st.TornBytes != 0 {
		t.Fatalf("reopened journal still torn: %d bytes", st.TornBytes)
	}
}

func TestJournalBitFlipEndsTrustedPrefix(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Accepted("a", "", litmusSpec("a", 1), 1); err != nil {
		t.Fatal(err)
	}
	end1 := j.Stats().SizeBytes
	if err := j.Accepted("b", "", litmusSpec("b", 2), 2); err != nil {
		t.Fatal(err)
	}
	if err := j.Accepted("c", "", litmusSpec("c", 3), 3); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(journalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload bit inside the second record: it and everything
	// after it — even the intact third record — leave the trusted prefix
	// (the oldest-bad-record-onward discipline).
	b[end1+frameHeader+2] ^= 0x40
	if err := os.WriteFile(journalPath(dir), b, 0o644); err != nil {
		t.Fatal(err)
	}
	j2, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	entries := j2.Entries()
	if len(entries) != 1 || entries[0].ID != "a" {
		t.Fatalf("after bit flip: %+v, want only campaign a", entries)
	}
	if st := j2.Stats(); st.TornBytes != int64(len(b))-end1 {
		t.Fatalf("torn bytes = %d, want %d", st.TornBytes, int64(len(b))-end1)
	}
	// Open truncated the untrusted tail: an append the size of the damaged
	// record cannot bring the intact third record back.
	if err := j2.Accepted("b", "", litmusSpec("b", 2), 2); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	j3, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if entries := j3.Entries(); len(entries) != 2 || entries[1].ID != "b" {
		t.Fatalf("after append over the truncated tail: %+v, want a and b", entries)
	}
}

func TestJournalDuplicateTerminalIgnored(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	result := json.RawMessage(`{"n":1}`)
	if err := j.Accepted("a", "", litmusSpec("a", 1), 1); err != nil {
		t.Fatal(err)
	}
	if err := j.Terminal("a", StateDone, "", result, 2); err != nil {
		t.Fatal(err)
	}
	// A contradicting second terminal record (a crashed daemon replaying a
	// partially folded log could produce one): first terminal wins.
	if err := j.Terminal("a", StateFailed, "late duplicate", nil, 3); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	entries := j2.Entries()
	if len(entries) != 1 {
		t.Fatalf("entries = %+v", entries)
	}
	if e := entries[0]; e.State != StateDone || !bytes.Equal(e.Result, result) || e.FinishedNS != 2 {
		t.Fatalf("duplicate terminal overwrote the first: %+v", e)
	}
}

func TestJournalEmptyAndAbsent(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir) // no file at all
	if err != nil {
		t.Fatal(err)
	}
	if entries := j.Entries(); len(entries) != 0 {
		t.Fatalf("absent log produced entries: %+v", entries)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(journalPath(dir), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	j2, err := OpenJournal(dir) // empty file
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if entries := j2.Entries(); len(entries) != 0 {
		t.Fatalf("empty log produced entries: %+v", entries)
	}
	if st := j2.Stats(); st.TornBytes != 0 || st.SizeBytes != 0 {
		t.Fatalf("empty log stats: %+v", st)
	}
}

func TestJournalDigestMismatchDowngradesToRerun(t *testing.T) {
	dir := t.TempDir()
	spec := litmusSpec("a", 1)
	acc := journalFrame(t, journalRecord{Kind: "accepted", ID: "a", TimeNS: 1, Spec: &spec})
	// A done record whose payload does not match its digest: the frame
	// seal is valid (this is exactly what compacting a log whose result
	// bytes rotted in memory would write), so only the digest can catch it.
	done := journalFrame(t, journalRecord{
		Kind: StateDone, ID: "a", TimeNS: 2,
		Result: []byte(`{"corrupt":true}`),
		Digest: resultDigest([]byte(`{"original":true}`)),
	})
	if err := os.WriteFile(journalPath(dir), append(acc, done...), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	entries := j.Entries()
	if len(entries) != 1 {
		t.Fatalf("entries = %+v", entries)
	}
	if e := entries[0]; Terminal(e.State) || e.Result != nil {
		t.Fatalf("digest-mismatched done record recovered terminally: %+v", e)
	}
}

func TestJournalCompactIdempotent(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	result := json.RawMessage(`{"n":42}`)
	if err := j.Accepted("a", "cli", litmusSpec("a", 1), 1); err != nil {
		t.Fatal(err)
	}
	if err := j.Running("a", 2); err != nil {
		t.Fatal(err)
	}
	if err := j.Terminal("a", StateDone, "", result, 3); err != nil {
		t.Fatal(err)
	}
	if err := j.Accepted("b", "cli", litmusSpec("b", 2), 4); err != nil {
		t.Fatal(err)
	}
	if err := j.Running("b", 5); err != nil {
		t.Fatal(err)
	}
	raw := j.Stats().SizeBytes

	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	once, err := os.ReadFile(journalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(once)) >= raw {
		t.Fatalf("compaction did not shrink the log: %d -> %d bytes", raw, len(once))
	}
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	twice, err := os.ReadFile(journalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(once, twice) {
		t.Fatalf("compaction is not idempotent: %d vs %d bytes", len(once), len(twice))
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// The folded log replays to the same state.
	j2, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	entries := j2.Entries()
	if len(entries) != 2 {
		t.Fatalf("entries after compact = %+v", entries)
	}
	a, b := entries[0], entries[1]
	if a.ID != "a" || a.State != StateDone || !bytes.Equal(a.Result, result) ||
		a.SubmittedNS != 1 || a.StartedNS != 2 || a.FinishedNS != 3 {
		t.Fatalf("compacted entry a = %+v", a)
	}
	// Non-terminal campaigns fold to bare admissions: queued and running
	// recover identically.
	if b.ID != "b" || b.State != StateQueued || b.SubmittedNS != 4 {
		t.Fatalf("compacted entry b = %+v", b)
	}
}

func TestJournalAppendAfterCloseFails(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Accepted("a", "", litmusSpec("a", 1), 1); err != ErrJournalClosed {
		t.Fatalf("append after close = %v, want ErrJournalClosed", err)
	}
	if err := j.Compact(); err != ErrJournalClosed {
		t.Fatalf("compact after close = %v, want ErrJournalClosed", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("double close = %v", err)
	}
}

// FuzzJournalDecode is the fold half of the journal's replay (the codec's
// own target is wal.FuzzDecode): folding whatever prefix of arbitrary
// bytes decodes must not panic and must keep first-seen order consistent
// with the entry map.
func FuzzJournalDecode(f *testing.F) {
	spec := litmusSpec("a", 1)
	acc := journalFrame(f, journalRecord{Kind: "accepted", ID: "a", TimeNS: 1, Spec: &spec})
	res := []byte(`{"n":1}`)
	done := journalFrame(f, journalRecord{
		Kind: StateDone, ID: "a", TimeNS: 2, Result: res, Digest: resultDigest(res),
	})
	f.Add([]byte{})
	f.Add(acc)
	f.Add(append(append([]byte{}, acc...), done...))
	f.Add(append(append([]byte{}, acc...), done[:len(done)-3]...)) // torn tail
	f.Add(bytes.Repeat([]byte{0xff}, 64))

	f.Fuzz(func(t *testing.T, b []byte) {
		j := &Journal{entries: map[string]*JournalEntry{}}
		wal.Decode(b, journalMagic, j.replay)
		if len(j.entries) != len(j.order) {
			t.Fatalf("fold: %d entries, %d order", len(j.entries), len(j.order))
		}
		for _, id := range j.order {
			if j.entries[id] == nil {
				t.Fatalf("fold: ordered id %q missing", id)
			}
		}
	})
}

// The journal's frame format is pinned: one fixed record encodes to the
// bytes the journal has always written, so journals already on disk keep
// replaying.
func TestJournalFramePinned(t *testing.T) {
	res := []byte(`{"n":1}`)
	got := hex.EncodeToString(journalFrame(t, journalRecord{
		Kind: StateDone, ID: "pin", TimeNS: 43, Digest: resultDigest(res), Result: res,
	}))
	const want = "4357534a8f0000005406379e69fa781b" + // "CWSJ", 143-byte payload, seal
		"7b226b696e64223a22646f6e65222c226964223a2270696e222c22745f6e73223a34332c22646967657374223a22" +
		"7368613235363a32626664313466343364313766633763656132346530393137613838373962346232663838306238" +
		"626165656331623964393066626161643635356537316264222c22726573756c74223a2265794a75496a6f7866513d3d227d"
	if got != want {
		t.Fatalf("frame\n got %s\nwant %s", got, want)
	}
}

// A journal written by an earlier build's encoder (testdata/journal-v1.wal:
// a done, a running and a failed campaign) replays unchanged.
func TestJournalReplaysEarlierFile(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", journalFile))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(journalPath(dir), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if st := j.Stats(); st.TornBytes != 0 || st.SizeBytes != int64(len(raw)) {
		t.Fatalf("stats %+v, want the whole %d-byte file trusted", st, len(raw))
	}
	entries := j.Entries()
	if len(entries) != 3 {
		t.Fatalf("replayed %d entries, want 3", len(entries))
	}
	a, b, c := entries[0], entries[1], entries[2]
	result := "{\n  \"cells\": 1,\n  \"ok\": true\n}"
	if a.ID != "a" || a.State != StateDone || string(a.Result) != result || a.Digest != resultDigest([]byte(result)) ||
		a.ClientID != "cli-1" || a.Spec.Seed != 7 || a.SubmittedNS != 100 || a.StartedNS != 200 || a.FinishedNS != 300 {
		t.Fatalf("entry a = %+v", a)
	}
	if b.ID != "b" || b.State != StateRunning || b.StartedNS != 500 {
		t.Fatalf("entry b = %+v", b)
	}
	if c.ID != "c" || c.State != StateFailed || c.Err != "boom" || c.FinishedNS != 700 {
		t.Fatalf("entry c = %+v", c)
	}
}

// Appends after Compact reach the file the directory names: a reopen
// replays them.
func TestJournalAppendAfterCompact(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Accepted("a", "", litmusSpec("a", 1), 1); err != nil {
		t.Fatal(err)
	}
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := j.Accepted("b", "", litmusSpec("b", 2), 2); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if entries := j2.Entries(); len(entries) != 2 || entries[1].ID != "b" {
		t.Fatalf("after compact+append+reopen: %+v", entries)
	}
}
