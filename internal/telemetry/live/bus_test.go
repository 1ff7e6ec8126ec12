package live

import (
	"encoding/json"
	"sync"
	"testing"
	"time"
)

// TestNilBusSafe pins the disabled-bus contract every publisher relies
// on: a nil *Bus accepts every call as a no-op.
func TestNilBusSafe(t *testing.T) {
	var b *Bus
	b.AddTotal(10)
	b.Publish(Event{Kind: CellStarted})
	b.Unsubscribe(b.SubscribeBuf(4))
	if b.Enabled() {
		t.Fatal("nil bus reports enabled")
	}
	if b.Dropped() != 0 || b.KindCount(CellStarted) != 0 {
		t.Fatal("nil bus reports nonzero counters")
	}
	s := b.Snapshot()
	if s.SchemaVersion != SnapshotSchemaVersion {
		t.Fatalf("nil snapshot schema %d", s.SchemaVersion)
	}
	if s.ETAMS != -1 {
		t.Fatalf("nil snapshot ETA %d, want -1 (unknown)", s.ETAMS)
	}
}

// TestBusCounters drives one synthetic campaign through every event kind
// and checks the snapshot a /progress client would see.
func TestBusCounters(t *testing.T) {
	b := NewBus()
	b.AddTotal(4)
	b.Publish(Event{Kind: CellCached, Worker: -1, Cell: "a"})
	b.Publish(Event{Kind: CellStarted, Worker: 0, Cell: "b"})
	b.Publish(Event{Kind: CellFinished, Worker: 0, Cell: "b", DurUS: 1200})
	b.Publish(Event{Kind: CellStarted, Worker: 1, Cell: "c"})
	b.Publish(Event{Kind: CellFinished, Worker: 1, Cell: "c", Err: "boom"})
	b.Publish(Event{Kind: CellStarted, Worker: 0, Cell: "d"})

	b.Publish(Event{Kind: CrashInjected, Fault: "torn-log", Crash: 1})
	b.Publish(Event{Kind: CrashInjected, Fault: "drop-wpq", Skipped: true})
	b.Publish(Event{Kind: RecoveryOutcome, Outcome: "clean"})
	b.Publish(Event{Kind: RecoveryOutcome, Outcome: "detected"})
	b.Publish(Event{Kind: RecoveryOutcome, Outcome: "diverged"})
	b.Publish(Event{Kind: RecoveryOutcome, Outcome: "error"})
	b.Publish(Event{Kind: StoreFlush, Records: 17})
	b.Publish(Event{Kind: SimProgress, Instrs: 100, Cycles: 50})
	b.Publish(Event{Kind: SimProgress, Instrs: 10, Cycles: 5})

	s := b.Snapshot()
	if s.Total != 4 || s.Done != 3 || s.Active != 1 {
		t.Fatalf("cells total/done/active = %d/%d/%d, want 4/3/1", s.Total, s.Done, s.Active)
	}
	if s.Cached != 1 || s.Executed != 2 || s.Failed != 1 {
		t.Fatalf("cached/executed/failed = %d/%d/%d, want 1/2/1", s.Cached, s.Executed, s.Failed)
	}
	if want := 1.0 / 3.0; s.HitRatio != want {
		t.Fatalf("hit ratio %v, want %v", s.HitRatio, want)
	}
	if s.CrashesInjected != 1 || s.CrashesSkipped != 1 {
		t.Fatalf("crashes %d/%d, want 1/1", s.CrashesInjected, s.CrashesSkipped)
	}
	if s.Clean != 1 || s.Detected != 1 || s.Diverged != 1 || s.Errors != 1 {
		t.Fatalf("outcomes %d/%d/%d/%d, want 1 each", s.Clean, s.Detected, s.Diverged, s.Errors)
	}
	if s.StoreFlushes != 1 || s.StoreRecords != 17 {
		t.Fatalf("flushes %d records %d, want 1/17", s.StoreFlushes, s.StoreRecords)
	}
	if s.SimInstrs != 110 || s.SimCycles != 55 {
		t.Fatalf("sim instrs/cycles %d/%d, want 110/55", s.SimInstrs, s.SimCycles)
	}
	if b.KindCount(RecoveryOutcome) != 4 {
		t.Fatalf("kind count %d, want 4", b.KindCount(RecoveryOutcome))
	}

	// Worker table: worker 0 is running "d", worker 1 idle with one done.
	var w0, w1 *WorkerState
	for i := range s.Workers {
		switch s.Workers[i].Worker {
		case 0:
			w0 = &s.Workers[i]
		case 1:
			w1 = &s.Workers[i]
		}
	}
	if w0 == nil || w0.State != "running" || w0.Cell != "d" {
		t.Fatalf("worker 0 state %+v, want running d", w0)
	}
	if w1 == nil || w1.State != "idle" || w1.Done != 1 {
		t.Fatalf("worker 1 state %+v, want idle with 1 done", w1)
	}
}

// TestEventStampsRunningTotals: any single event carries enough to render
// progress without further queries.
func TestEventStampsRunningTotals(t *testing.T) {
	b := NewBus()
	sub := b.Subscribe()
	defer b.Unsubscribe(sub)
	b.AddTotal(2)
	b.Publish(Event{Kind: CellStarted, Worker: 0, Cell: "x"})
	b.Publish(Event{Kind: CellFinished, Worker: 0, Cell: "x"})
	e1 := <-sub.C
	e2 := <-sub.C
	if e1.Seq == 0 || e2.Seq != e1.Seq+1 {
		t.Fatalf("seq not monotonic: %d then %d", e1.Seq, e2.Seq)
	}
	if e1.TimeUnixNS == 0 {
		t.Fatal("event missing timestamp")
	}
	if e1.Active != 1 || e1.Done != 0 || e1.Total != 2 {
		t.Fatalf("started stamped %d/%d/%d, want 1/0/2", e1.Active, e1.Done, e1.Total)
	}
	if e2.Active != 0 || e2.Done != 1 || e2.Total != 2 {
		t.Fatalf("finished stamped %d/%d/%d, want 0/1/2", e2.Active, e2.Done, e2.Total)
	}
}

// TestSlowSubscriberDrops: a subscriber that never drains loses events
// (counted) while the publisher completes immediately — the bus must
// never block a pool worker on an HTTP client.
func TestSlowSubscriberDrops(t *testing.T) {
	b := NewBus()
	slow := b.SubscribeBuf(2)
	defer b.Unsubscribe(slow)

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			b.Publish(Event{Kind: SimProgress, Instrs: 1})
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("publisher blocked on a full subscriber")
	}
	if got := slow.Dropped(); got != 98 {
		t.Fatalf("subscriber dropped %d, want 98 (buffer 2 of 100)", got)
	}
	if got := b.Dropped(); got != 98 {
		t.Fatalf("bus dropped %d, want 98", got)
	}
	// The buffered prefix is intact and ordered.
	e1, e2 := <-slow.C, <-slow.C
	if e1.Seq != 1 || e2.Seq != 2 {
		t.Fatalf("buffered seqs %d,%d, want 1,2", e1.Seq, e2.Seq)
	}
}

// TestConcurrentPublishSubscribe hammers the bus from many publishers
// while subscribers churn and a slow reader lags — the -race CI step
// turns any unsynchronized access into a failure, and the final counters
// must still balance exactly.
func TestConcurrentPublishSubscribe(t *testing.T) {
	const (
		publishers = 8
		perPub     = 500
	)
	b := NewBus()
	b.AddTotal(publishers * perPub)

	slow := b.SubscribeBuf(1)
	stopDrain := make(chan struct{})
	var drainWG sync.WaitGroup
	drainWG.Add(1)
	go func() { // drains sporadically: keeps the drop path hot
		defer drainWG.Done()
		for {
			select {
			case <-stopDrain:
				return
			case <-slow.C:
				time.Sleep(time.Millisecond)
			}
		}
	}()

	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := 0; i < perPub; i++ {
				b.Publish(Event{Kind: CellStarted, Worker: worker, Cell: "w"})
				b.Publish(Event{Kind: CellFinished, Worker: worker, Cell: "w"})
			}
		}(p)
	}
	// Concurrent snapshotters and subscriber churn.
	stopSnap := make(chan struct{})
	var snapWG sync.WaitGroup
	snapWG.Add(1)
	go func() {
		defer snapWG.Done()
		for {
			select {
			case <-stopSnap:
				return
			default:
				_ = b.Snapshot()
				s := b.Subscribe()
				b.Unsubscribe(s)
			}
		}
	}()

	wg.Wait()
	close(stopSnap)
	snapWG.Wait()
	close(stopDrain)
	drainWG.Wait()

	s := b.Snapshot()
	if want := int64(publishers * perPub); s.Done != want || s.Executed != want {
		t.Fatalf("done/executed %d/%d, want %d", s.Done, s.Executed, want)
	}
	if s.Active != 0 {
		t.Fatalf("active %d after all finished, want 0", s.Active)
	}
}

// TestKindJSONRoundTrip pins the wire names of every kind.
func TestKindJSONRoundTrip(t *testing.T) {
	want := map[Kind]string{
		CellStarted:     "cell_started",
		CellFinished:    "cell_finished",
		CellCached:      "cell_cached",
		CrashInjected:   "crash_injected",
		RecoveryOutcome: "recovery_outcome",
		PoolOccupancy:   "pool_occupancy",
		StoreFlush:      "store_flush",
		SimProgress:     "sim_progress",
	}
	for k, name := range want {
		raw, err := json.Marshal(k)
		if err != nil {
			t.Fatal(err)
		}
		if string(raw) != `"`+name+`"` {
			t.Fatalf("kind %d marshals to %s, want %q", k, raw, name)
		}
		var back Kind
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatal(err)
		}
		if back != k {
			t.Fatalf("kind %q round-tripped to %d, want %d", name, back, k)
		}
	}
	var bad Kind
	if err := json.Unmarshal([]byte(`"no_such_kind"`), &bad); err == nil {
		t.Fatal("unknown kind name parsed")
	}
}

// TestFormatProgress pins the ticker line shape.
func TestFormatProgress(t *testing.T) {
	s := Snapshot{Total: 500, Done: 37, Active: 8, Cached: 12, CellsPerSec: 41.2, ETAMS: 56_000}
	line := FormatProgress(s)
	want := "cells 37/500 (7.4%) | active 8 | cached 12 | 41.2 cells/s | eta 56s"
	if line != want {
		t.Fatalf("ticker line\n got %q\nwant %q", line, want)
	}
	s.Diverged = 2
	s.Errors = 1
	if line := FormatProgress(s); line != "cells 37/500 (7.4%) | active 8 | cached 12 | diverged 2 errors 1 | 41.2 cells/s | eta 56s" {
		t.Fatalf("fault ticker line %q", line)
	}
	if line := FormatProgress(Snapshot{Done: 3, ETAMS: -1}); line != "cells 3/? | active 0" {
		t.Fatalf("unknown-total line %q", line)
	}
}

// TestSnapshotETANeverNegative pins the ETA clamp: a burst of cached cells
// racing Done past Total inside one tick window, or a tiny rate against a
// huge remainder overflowing the float→int conversion, must never surface
// as a negative ETA.
func TestSnapshotETANeverNegative(t *testing.T) {
	b := NewBus()
	b.AddTotal(1)
	b.startNS.Store(time.Now().Add(-time.Hour).UnixNano())
	b.done.Store(5) // cached burst overshot the submitted total
	if s := b.Snapshot(); s.ETAMS != 0 {
		t.Fatalf("overshoot ETA=%d, want 0", s.ETAMS)
	}

	b2 := NewBus()
	b2.AddTotal(1)
	b2.total.Store(int64(1) << 62) // huge remainder at ~1 cell/hour
	b2.startNS.Store(time.Now().Add(-time.Hour).UnixNano())
	b2.done.Store(1)
	s := b2.Snapshot()
	if s.ETAMS < 0 {
		t.Fatalf("overflow ETA=%d, want clamped non-negative", s.ETAMS)
	}
	if s.ETAMS != int64(1)<<50 {
		t.Fatalf("huge-remainder ETA=%d, want clamp ceiling %d", s.ETAMS, int64(1)<<50)
	}
}
