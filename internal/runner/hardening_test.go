package runner

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cwsp/internal/wal"
)

// Put/Flush/Compact after Close must fail loudly with the typed ErrClosed
// (the pre-fix behavior raced silently), Get must miss, and a second Close
// must be a no-op.
func TestStoreClosedIsTyped(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := simKey(1)
	if err := s.Put(k, json.RawMessage(`1`)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	if err := s.Put(simKey(2), json.RawMessage(`2`)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Put after Close: err=%v, want ErrClosed", err)
	}
	if err := s.Flush(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Flush after Close: err=%v, want ErrClosed", err)
	}
	if _, err := s.Compact(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Compact after Close: err=%v, want ErrClosed", err)
	}
	if _, ok := s.Get(k.Signature()); ok {
		t.Fatal("Get after Close returned a hit")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	// The pre-Close Put survived Close's final flush.
	s2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Loaded() != 1 {
		t.Fatalf("reloaded %d records, want 1", s2.Loaded())
	}
}

func TestStoreLockConflictAndStaleReclaim(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}

	// A second handle on the same directory conflicts while the first lives.
	if _, err := OpenStore(dir); !errors.Is(err, wal.ErrLocked) {
		t.Fatalf("double open: err=%v, want ErrLocked", err)
	}
	var lerr *wal.LockError
	if _, err := OpenStore(dir); !errors.As(err, &lerr) || lerr.OwnerPID != os.Getpid() {
		t.Fatalf("double open: err=%v, want *LockError owned by pid %d", err, os.Getpid())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// A lock with an unreadable owner is stale: reclaimed, not fatal.
	lockPath := filepath.Join(dir, "LOCK")
	if err := os.WriteFile(lockPath, []byte("not-a-pid\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenStore(dir)
	if err != nil {
		t.Fatalf("open over garbage lock: %v", err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	// A lock whose recorded owner is dead is reclaimed too. Pid 0 is never
	// a live peer, and very large pids are beyond the default pid_max.
	if err := os.WriteFile(lockPath, []byte(fmt.Sprintf("%d %s\n", 1<<30, time.Now().UTC().Format(time.RFC3339))), 0o644); err != nil {
		t.Fatal(err)
	}
	s3, err := OpenStore(dir)
	if err != nil {
		t.Fatalf("open over dead-owner lock: %v", err)
	}
	defer s3.Close()
}

func TestStoreCompact(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := simKey(1)
	if err := s.Put(k, json.RawMessage(`{"cycles":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(dir, storeFile)
	one, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}

	// Grow garbage: a torn append, a shard of the previous store version
	// holding a record of its own, and a temp file of a cut-short rewrite.
	f, err := os.OpenFile(logPath, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(one[:len(one)-2])
	f.Close()
	v1 := simKey(2)
	line, err := json.Marshal(record{Sig: v1.Signature(), Key: v1, Val: json.RawMessage(`2`)})
	if err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(dir, "cells-v1-"+v1.Signature()[:1]+".jsonl")
	if err := os.WriteFile(orphan, append(line, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dir, storeFile+".123.tmp")
	if err := os.WriteFile(tmp, one, 0o600); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, ok := s2.Get(v1.Signature()); ok || s2.Loaded() != 1 {
		t.Fatalf("previous store version read: loaded %d records, want 1", s2.Loaded())
	}
	st, err := s2.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 1 || st.Bytes != int64(len(one)) || st.OrphanFiles != 2 {
		t.Fatalf("compact stats %+v, want records=1 bytes=%d orphans=2", st, len(one))
	}
	for _, p := range []string{orphan, tmp} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("%s survived compaction: %v", filepath.Base(p), err)
		}
	}
	if b, err := os.ReadFile(logPath); err != nil || !bytes.Equal(b, one) {
		t.Fatalf("compacted log is %d bytes (err=%v), want the one record's %d", len(b), err, len(one))
	}
	if raw, ok := s2.Get(k.Signature()); !ok || string(raw) != `{"cycles":1}` {
		t.Fatalf("record lost in compaction: %q ok=%v", raw, ok)
	}
}

func TestStoreEvictionLRU(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Two-digit key indices keep every record exactly the same size, so the
	// byte budget below holds a whole number of records.
	val := json.RawMessage(`"` + strings.Repeat("x", 1000) + `"`)
	for i := 10; i < 13; i++ {
		if err := s.Put(simKey(i), val); err != nil {
			t.Fatal(err)
		}
	}
	budget := s.Bytes() // exactly three records' worth
	for i := 13; i < 20; i++ {
		if err := s.Put(simKey(i), val); err != nil {
			t.Fatal(err)
		}
	}

	s.SetMaxBytes(budget)
	if s.Len() != 3 || s.Evicted() != 7 {
		t.Fatalf("len=%d evicted=%d, want 3/7", s.Len(), s.Evicted())
	}
	if s.Bytes() > budget {
		t.Fatalf("bytes=%d over budget %d", s.Bytes(), budget)
	}
	// Most recently used survive; the oldest are gone.
	for i := 10; i < 17; i++ {
		if _, ok := s.Get(simKey(i).Signature()); ok {
			t.Fatalf("evicted key %d still readable", i)
		}
	}
	for i := 17; i < 20; i++ {
		if _, ok := s.Get(simKey(i).Signature()); !ok {
			t.Fatalf("recent key %d evicted", i)
		}
	}

	// Get refreshes recency: touch 17, add a new record — 18 (now coldest)
	// goes, 17 stays.
	if _, ok := s.Get(simKey(17).Signature()); !ok {
		t.Fatal("touch miss")
	}
	s.Get(simKey(19).Signature())
	if err := s.Put(simKey(20), val); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(simKey(18).Signature()); ok {
		t.Fatal("coldest key 18 survived the insert")
	}
	if _, ok := s.Get(simKey(17).Signature()); !ok {
		t.Fatal("recently touched key 17 was evicted")
	}

	// Eviction reaches disk: after a flush only the survivors remain.
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	stats := s.Stats()
	if stats.Records != 3 || stats.MaxBytes != budget {
		t.Fatalf("stats %+v, want 3 records, max=%d", stats, budget)
	}
	survivors := s.Len()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Loaded() != survivors {
		t.Fatalf("disk holds %d records after eviction flush, want %d", s2.Loaded(), survivors)
	}
}

// A cell parked in the retry loop when another cell's hard error cancels
// the batch must abandon its remaining attempts, and the pool must report
// the root-cause error, not the cancellation symptom.
func TestPoolCancelDuringRetry(t *testing.T) {
	const retries = 1000
	var (
		flakyAttempts atomic.Int64
		hardFailed    = make(chan struct{})
		once          sync.Once
	)
	hardErr := errors.New("deterministic hard failure")
	cells := []Cell[int]{
		{Key: simKey(0), Run: func() (int, error) {
			// Wait until the flaky cell is inside its retry loop, then fail
			// hard (Retries applies batch-wide, so every attempt fails).
			<-timeAfterFirst(&flakyAttempts)
			once.Do(func() { close(hardFailed) })
			return 0, hardErr
		}},
		{Key: simKey(1), Run: func() (int, error) {
			n := flakyAttempts.Add(1)
			if n == 1 {
				<-hardFailed // park the first attempt until the batch is doomed
			} else {
				time.Sleep(time.Millisecond)
			}
			return 0, errors.New("flaky")
		}},
	}
	p := NewPool[int](Options{Jobs: 2, Retries: retries})
	_, err := p.Run(cells)
	if err == nil {
		t.Fatal("want error")
	}
	if !errors.Is(err, hardErr) {
		t.Fatalf("pool error %v, want the root-cause hard error", err)
	}
	if errors.Is(err, ErrCanceled) {
		t.Fatalf("pool reported the cancellation symptom: %v", err)
	}
	if n := flakyAttempts.Load(); n >= retries {
		t.Fatalf("flaky cell burned %d attempts; cancellation did not abandon the retry loop", n)
	}
}

// timeAfterFirst resolves once the counter has moved past zero (the flaky
// cell's first attempt has started), polling cheaply.
func timeAfterFirst(n *atomic.Int64) <-chan struct{} {
	ch := make(chan struct{})
	go func() {
		for n.Load() == 0 {
			time.Sleep(100 * time.Microsecond)
		}
		close(ch)
	}()
	return ch
}

// ETA must clamp to zero when cached cells complete faster than the tick
// window (Done racing past Cells) and must never overflow negative when a
// tiny rate extrapolates a huge remainder.
func TestProgressSnapshotETANeverNegative(t *testing.T) {
	p := NewProgress()
	p.mu.Lock()
	p.start = time.Now().Add(-time.Hour)
	p.cells = 1
	p.hits = 5 // a burst of cached cells overshot the submitted count
	p.mu.Unlock()
	if s := p.Snapshot(); s.ETAMS != 0 {
		t.Fatalf("overshoot ETA=%d, want 0", s.ETAMS)
	}

	p2 := NewProgress()
	p2.mu.Lock()
	p2.start = time.Now().Add(-time.Hour)
	p2.cells = int64(1) << 62 // huge remainder at ~1 cell/hour
	p2.exec = 1
	p2.mu.Unlock()
	s := p2.Snapshot()
	if s.ETAMS < 0 {
		t.Fatalf("overflow ETA=%d, want clamped non-negative", s.ETAMS)
	}
	if s.ETAMS != maxETAMS {
		t.Fatalf("huge-remainder ETA=%d, want clamp ceiling %d", s.ETAMS, maxETAMS)
	}

	// Fresh progress: denominator unknown.
	if s := NewProgress().Snapshot(); s.ETAMS != -1 {
		t.Fatalf("unknown ETA=%d, want -1", s.ETAMS)
	}
}

// Restart re-stamps the pace clock: a service campaign's Progress exists
// from submission, but elapsed/rate/ETA must measure execution, not time
// spent waiting in the admission queue.
func TestProgressRestartExcludesQueueWait(t *testing.T) {
	p := NewProgress()
	p.mu.Lock()
	p.start = time.Now().Add(-time.Hour) // an hour stuck in the queue
	p.mu.Unlock()
	if s := p.Snapshot(); s.ElapsedMS < time.Hour.Milliseconds() {
		t.Fatalf("queued elapsed=%dms, want >= 1h", s.ElapsedMS)
	}
	p.Restart()
	if s := p.Snapshot(); s.ElapsedMS >= time.Minute.Milliseconds() {
		t.Fatalf("post-restart elapsed=%dms still includes queue wait", s.ElapsedMS)
	}
}

// Concurrent opens over a dead owner's lock: exactly one racer may
// acquire. The old existence-based reclaim had a TOCTOU where one racer's
// unconditional remove could delete another's freshly created lock and
// leave two live owners; flock(2) has no reclaim step to race.
func TestStoreLockConcurrentReclaim(t *testing.T) {
	dir := t.TempDir()
	lockPath := filepath.Join(dir, "LOCK")
	// A dead owner: pid beyond the default pid_max.
	if err := os.WriteFile(lockPath, []byte(fmt.Sprintf("%d\n", 1<<30)), 0o644); err != nil {
		t.Fatal(err)
	}
	const racers = 8
	var (
		won    atomic.Int32
		wg     sync.WaitGroup
		stores [racers]*Store
	)
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := OpenStore(dir)
			switch {
			case err == nil:
				stores[i] = s
				won.Add(1)
			case !errors.Is(err, wal.ErrLocked):
				t.Errorf("racer %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if won.Load() != 1 {
		t.Fatalf("%d racers acquired the lock, want exactly 1", won.Load())
	}
	for _, s := range stores {
		if s != nil {
			s.Close()
		}
	}
}

// A store open through wal.OpenWait outlives a lock holder that releases
// within the wait budget — the restart-after-SIGKILL path, where a
// successor daemon races the kernel reaping its predecessor.
func TestOpenStoreWait(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	open := func() (*Store, error) { return OpenStore(dir) }

	// Zero wait fails fast while the owner lives.
	if _, err := wal.OpenWait(0, open); !errors.Is(err, wal.ErrLocked) {
		t.Fatalf("zero-wait open under live lock: err=%v, want ErrLocked", err)
	}

	// Release mid-wait: the waiter acquires instead of failing.
	go func() {
		time.Sleep(50 * time.Millisecond)
		s.Close()
	}()
	s2, err := wal.OpenWait(5*time.Second, open)
	if err != nil {
		t.Fatalf("waited open: %v", err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
}
