package persist

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestWPQAdmitFIFO(t *testing.T) {
	w := NewWPQ(2, 2.0, 50, 1, 1) // 2 entries, 2 bytes/cycle -> 8B entry drains in 4 cycles
	a1, d1 := w.Admit(100, 0x1000, 8)
	if a1 != 100 || d1 != 104 {
		t.Errorf("first admit = (%d,%d), want (100,104)", a1, d1)
	}
	a2, d2 := w.Admit(100, 0x2000, 8)
	if a2 != 100 || d2 != 108 {
		t.Errorf("second admit = (%d,%d), want (100,108)", a2, d2)
	}
	// Queue full: third arrival at 100 must wait for the head to drain (104).
	a3, d3 := w.Admit(100, 0x3000, 8)
	if a3 != 104 || d3 != 112 {
		t.Errorf("third admit = (%d,%d), want (104,112)", a3, d3)
	}
	if w.FullWait != 4 {
		t.Errorf("FullWait = %d, want 4", w.FullWait)
	}
}

func TestWPQPendingUntil(t *testing.T) {
	w := NewWPQ(8, 1.0, 50, 1, 1)
	_, drain := w.Admit(10, 0x1000, 8)
	if got := w.PendingUntil(0x1004, 11); got != drain {
		t.Errorf("PendingUntil = %d, want %d (same word)", got, drain)
	}
	if got := w.PendingUntil(0x1000, drain); got != 0 {
		t.Error("entry draining at now should not be pending")
	}
	if got := w.PendingUntil(0x1000, drain+1); got != 0 {
		t.Error("drained entry should not be pending")
	}
}

// TestOneCoreWPQPanicsPastBound admits three entries straight into a
// WPQ sized for a one-entry queue fed by one thread through a one-entry
// PB, with no PB to hold the third back: all three are pending at cycle
// 0, one more than the bound, so a query that scans past the two newest
// panics, naming every term of the bound.
func TestOneCoreWPQPanicsPastBound(t *testing.T) {
	w := NewWPQ(1, 0.01, 1, 1, 5) // 800 cycles per 8-byte entry
	for i := range 3 {
		w.Admit(0, int64(0x1000+8*i), 8)
	}
	if got := w.PendingUntil(0x1008, 0); got != 1600 {
		t.Errorf("PendingUntil(0x1008, 0) = %d, want 1600", got)
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "= 2 entries pending at cycle 0, with WPQSize 1, N = 1 threads, PBSize 1 and S 5") {
			t.Errorf("panic %q, want one naming WPQSize 1, one thread, PBSize 1 and S 5", msg)
		}
	}()
	w.PendingUntil(0x2000, 0)
}

func TestWPQDrainSerialization(t *testing.T) {
	// Back-to-back admits serialize on media bandwidth even when the queue
	// has space.
	w := NewWPQ(32, 1.0, 50, 1, 1) // 8 cycles per 8B entry
	var last int64
	for i := 0; i < 10; i++ {
		_, d := w.Admit(0, int64(0x1000+i*8), 8)
		if d <= last {
			t.Fatalf("drain times not increasing: %d then %d", last, d)
		}
		last = d
	}
	if last < 80 {
		t.Errorf("10 entries at 8 cycles each should finish >= 80, got %d", last)
	}
}

func TestPathBandwidthSpacing(t *testing.T) {
	w := NewWPQ(1024, 100, 50, 1, 1) // effectively infinite media bandwidth
	p := NewPath(50, 2.0, 20)
	_, a1 := p.Send(100, 0x1000, 8, w, 0, 0)
	_, a2 := p.Send(100, 0x2000, 8, w, 0, 0)
	if a2-a1 != 4 {
		t.Errorf("8B at 2B/cyc should space sends 4 cycles apart, got %d", a2-a1)
	}
	if a1 != 100+20 {
		t.Errorf("arrival should include one-way latency, got %d", a1)
	}
}

func TestPathPBBackpressure(t *testing.T) {
	// Tiny PB and slow WPQ: the path must stall the core.
	w := NewWPQ(1, 0.1, 50, 1, 1) // 80 cycles per entry
	p := NewPath(2, 8.0, 10)
	var lastProceed int64
	for i := 0; i < 6; i++ {
		proceed, _ := p.Send(0, int64(0x1000+i*8), 8, w, 0, 0)
		if proceed < lastProceed {
			t.Fatalf("proceed went backwards: %d after %d", proceed, lastProceed)
		}
		lastProceed = proceed
	}
	if p.PBStall == 0 {
		t.Error("expected PB-full stalls with a slow WPQ")
	}
}

func TestPathNUMAExtra(t *testing.T) {
	w0 := NewWPQ(64, 100, 50, 1, 1)
	w1 := NewWPQ(64, 100, 50, 1, 1)
	p := NewPath(50, 100, 20)
	_, a0 := p.Send(0, 0x1000, 8, w0, 0, 0)
	_, a1 := p.Send(0, 0x2000, 8, w1, 15, 0)
	if a1-a0 < 15 {
		t.Errorf("NUMA delta not applied: %d vs %d", a0, a1)
	}
}

func TestPathLinePersistTime(t *testing.T) {
	w := NewWPQ(64, 100, 50, 1, 1)
	p := NewPath(50, 2.0, 20)
	_, admit := p.Send(0, 0x1008, 8, w, 0, 0)
	if got := p.LinePersistTime(0x1030, 1); got != admit {
		t.Errorf("same 64B line should report persist time %d, got %d", admit, got)
	}
	if got := p.LinePersistTime(0x2000, 1); got != 0 {
		t.Error("other line should not be pending")
	}
	if got := p.LinePersistTime(0x1008, admit+1); got != 0 {
		t.Error("persisted line should not be pending")
	}
}

func TestRBTInOrderRetirement(t *testing.T) {
	r := NewRBT(16)
	_, t1 := r.Push(0, 100)
	_, t2 := r.Push(10, 50) // persists earlier but must retire after t1
	if t2 < t1 {
		t.Errorf("out-of-order retirement: %d before %d", t2, t1)
	}
	if t1 != 100 || t2 != 100 {
		t.Errorf("retire times = %d,%d", t1, t2)
	}
}

func TestRBTFullStall(t *testing.T) {
	r := NewRBT(2)
	r.Push(0, 1000)
	r.Push(0, 2000)
	proceed, _ := r.Push(0, 3000)
	if proceed != 1000 {
		t.Errorf("full RBT should stall to first retire (1000), got %d", proceed)
	}
	if r.FullStall != 1000 {
		t.Errorf("FullStall = %d", r.FullStall)
	}
}

func TestRBTDrain(t *testing.T) {
	r := NewRBT(8)
	r.Push(0, 500)
	r.Push(0, 700)
	if got := r.DrainTime(100); got != 700 {
		t.Errorf("drain = %d, want 700", got)
	}
	if got := r.DrainTime(800); got != 800 {
		t.Errorf("after retirement drain = now, got %d", got)
	}
	if r.Occupancy(800) != 0 {
		t.Error("all regions should have retired")
	}
}

func TestPathProceedMonotonic(t *testing.T) {
	// Property: for any commit sequence (non-decreasing), proceed times are
	// >= commit and admission times strictly increase per path.
	f := func(deltas []uint8) bool {
		w := NewWPQ(4, 0.5, 50, 1, 1)
		p := NewPath(8, 1.0, 20)
		now := int64(0)
		var lastAdmit int64
		for i, d := range deltas {
			now += int64(d % 16)
			proceed, admit := p.Send(now, int64(0x1000+i*8), 8, w, 0, 0)
			if proceed < now {
				return false
			}
			if admit <= lastAdmit {
				return false
			}
			lastAdmit = admit
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestWPQLogBytesSlowDrain(t *testing.T) {
	// Undo-logged entries consume more media bandwidth.
	plain := NewWPQ(64, 1.0, 50, 1, 1)
	logged := NewWPQ(64, 1.0, 50, 1, 1)
	var dp, dl int64
	for i := 0; i < 10; i++ {
		_, dp = plain.Admit(0, int64(0x1000+i*8), 8)
		_, dl = logged.Admit(0, int64(0x1000+i*8), 8+16)
	}
	if dl <= dp {
		t.Errorf("logged drain (%d) should exceed plain drain (%d)", dl, dp)
	}
}
