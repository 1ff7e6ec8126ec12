package mem

// WriteBuffer models the L1 data cache's write(back) buffer: dirty lines
// evicted from L1D wait here before draining to the shared L2. cWSP checks
// the persist buffer before releasing the head entry (paper Figure 5); the
// machine supplies that check as a callback returning the earliest cycle at
// which the line's persist-path copies are all in NVM.
type WriteBuffer struct {
	cap int
	// drainDone is a FIFO ring of entry drain-completion times. Insert's
	// full-buffer stall bounds the entry count by cap, so the ring never
	// grows.
	drainDone []int64
	head      int
	len       int
	drainLat  int64

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

func (w *WriteBuffer) gc(now int64) {
	for w.len > 0 && w.drainDone[w.head] <= now {
		w.head++
		if w.head == w.cap {
			w.head = 0
		}
		w.len--
	}
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
	w.gc(now)
	if w.len >= w.cap {
		// Stall until the head drains.
		head := w.drainDone[w.head]
		w.FullStall += head - now
		now = head
		w.gc(now)
	}
	start := now
	if w.len > 0 {
		last := w.head + w.len - 1
		if last >= w.cap {
			last -= w.cap
		}
		if w.drainDone[last] > start {
			start = w.drainDone[last]
		}
	}
	if persistReady > start {
		w.Delayed++
		start = persistReady
	}
	done := start + w.drainLat
	tail := w.head + w.len
	if tail >= w.cap {
		tail -= w.cap
	}
	w.drainDone[tail] = done
	w.len++
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

// Occupancy returns the current entry count at cycle now.
func (w *WriteBuffer) Occupancy(now int64) int {
	w.gc(now)
	return w.len
}
