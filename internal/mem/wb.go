package mem

// WriteBuffer models the L1 data cache's write(back) buffer: dirty lines
// evicted from L1D wait here before draining to the shared L2. cWSP checks
// the persist buffer before releasing the head entry (paper Figure 5); the
// machine supplies that check as a callback returning the earliest cycle at
// which the line's persist-path copies are all in NVM.
type WriteBuffer struct {
	cap int
	// drainDone is a ring of the last cap entries' drain-completion times
	// (0 before the first cap inserts), rising from next, the slot of the
	// entry cap inserts ago.
	drainDone []int64
	next      int
	// The resident entries are those draining after seen, the latest
	// cycle the buffer was collected at, plus the newest when fresh, as
	// in persist's rings (its type collected).
	seen     int64
	fresh    bool
	drainLat int64

	// Occupancy statistics: integral of entry-residency cycles, divided by
	// elapsed time at query.
	lastTime    int64
	entryCycles float64
	Delayed     int64 // drains held back by the persist-path check
	FullStall   int64 // cycles the core stalled on a full WB
}

// NewWriteBuffer builds a buffer of capacity entries whose entries take
// drainLat cycles to write to L2 once released.
func NewWriteBuffer(capacity int, drainLat int64) *WriteBuffer {
	if capacity < 1 {
		capacity = 1
	}
	return &WriteBuffer{cap: capacity, drainDone: make([]int64, capacity), drainLat: drainLat}
}

func (w *WriteBuffer) account(now, drainDone int64) {
	if now > w.lastTime {
		w.lastTime = now
	}
	if drainDone > now {
		w.entryCycles += float64(drainDone - now)
	}
	if drainDone > w.lastTime {
		w.lastTime = drainDone
	}
}

// Insert places a dirty line into the buffer at cycle now. persistReady is
// the earliest cycle the persist path allows this line to reach L2 (0 when
// the check is disabled or found no match). It returns the cycle at which
// the core may proceed (now, unless the buffer was full).
func (w *WriteBuffer) Insert(now int64, persistReady int64) int64 {
	// The buffer is full until the entry cap inserts ago drains.
	if head := w.drainDone[w.next]; head > now {
		w.FullStall += head - now
		now = head
	}
	last := w.next - 1
	if last < 0 {
		last = w.cap - 1
	}
	start := max(now, w.drainDone[last])
	if persistReady > start {
		w.Delayed++
		start = persistReady
	}
	done := start + w.drainLat
	w.drainDone[w.next] = done
	if w.next++; w.next == w.cap {
		w.next = 0
	}
	w.seen, w.fresh = now, done == now
	w.account(now, done)
	return now
}

// AvgOccupancy returns the time-averaged number of resident entries: total
// entry-residency cycles over elapsed time.
func (w *WriteBuffer) AvgOccupancy() float64 {
	if w.lastTime == 0 {
		return 0
	}
	return w.entryCycles / float64(w.lastTime)
}

// Occupancy returns the entry count at cycle now, collecting the buffer
// at now first.
func (w *WriteBuffer) Occupancy(now int64) int {
	if now >= w.seen {
		w.seen, w.fresh = now, false
	}
	n := 0
	for _, d := range w.drainDone {
		if d > w.seen {
			n++
		}
	}
	if w.fresh {
		n++
	}
	return n
}
