package mem

import "testing"

// fifoWB is the write buffer as it was before it became a fixed ring: a
// FIFO queue with a head and a length, collected at each insert's cycle
// (before and after a full-buffer stall) and at each occupancy read. It
// is the specification WriteBuffer is held to.
type fifoWB struct {
	cap         int
	drainDone   []int64
	head, len   int
	drainLat    int64
	lastTime    int64
	entryCycles float64
	delayed     int64
	fullStall   int64
}

func (w *fifoWB) gc(now int64) {
	for w.len > 0 && w.drainDone[w.head] <= now {
		w.head = (w.head + 1) % w.cap
		w.len--
	}
}

func (w *fifoWB) insert(now, persistReady int64) int64 {
	w.gc(now)
	if w.len >= w.cap {
		head := w.drainDone[w.head]
		w.fullStall += head - now
		now = head
		w.gc(now)
	}
	start := now
	if w.len > 0 {
		start = max(start, w.drainDone[(w.head+w.len-1)%w.cap])
	}
	if persistReady > start {
		w.delayed++
		start = persistReady
	}
	done := start + w.drainLat
	w.drainDone[(w.head+w.len)%w.cap] = done
	w.len++
	w.lastTime = max(w.lastTime, now)
	if done > now {
		w.entryCycles += float64(done - now)
	}
	w.lastTime = max(w.lastTime, done)
	return now
}

func (w *fifoWB) occupancy(now int64) int {
	w.gc(now)
	return w.len
}

// checkWBModel drives a WriteBuffer and the queue it replaced with the
// same inserts, made by the owning core at its rising clock (some held
// back by the persist-path check), and occupancy reads at that clock and
// behind it, as the telemetry sampler makes on multi-core machines. A
// zero drain latency lets an entry drain at its insert's cycle. It
// returns how many reads behind the owner's clock found entries.
func checkWBModel(t testing.TB, capacity int, drainLat int64, ops []byte) (behind int) {
	t.Helper()
	w := NewWriteBuffer(capacity, drainLat)
	fifo := &fifoWB{cap: capacity, drainDone: make([]int64, capacity), drainLat: drainLat}
	clock := int64(0)
	for i := 0; i+2 < len(ops); i += 3 {
		op, a, d := ops[i], ops[i+1], ops[i+2]
		switch op % 4 {
		case 0, 1:
			var ready int64
			if a&1 == 0 {
				ready = clock + int64(a) - 64
			}
			got, want := w.Insert(clock, ready), fifo.insert(clock, ready)
			if got != want {
				t.Fatalf("op %d: Insert(%d, %d) = %d, queue says %d", i/3, clock, ready, got, want)
			}
			clock = got + int64(d>>6)
		case 2:
			clock += int64(d % 16)
			if got, want := w.Occupancy(clock), fifo.occupancy(clock); got != want {
				t.Fatalf("op %d: Occupancy(%d) = %d, queue says %d", i/3, clock, got, want)
			}
		case 3:
			back := max(clock-int64(d%64), 0)
			got, want := w.Occupancy(back), fifo.occupancy(back)
			if got != want {
				t.Fatalf("op %d: Occupancy(%d) = %d, queue says %d (owner at %d)", i/3, back, got, want, clock)
			}
			if want > 0 {
				behind++
			}
		}
	}
	if w.FullStall != fifo.fullStall || w.Delayed != fifo.delayed || w.AvgOccupancy() != fifo.entryCycles/float64(max(fifo.lastTime, 1)) {
		t.Fatalf("stall/delayed/avg %d/%d/%v, queue says %d/%d/%v", w.FullStall, w.Delayed, w.AvgOccupancy(),
			fifo.fullStall, fifo.delayed, fifo.entryCycles/float64(max(fifo.lastTime, 1)))
	}
	return behind
}

// wbGeoms are (capacity, drain latency) pairs: a single entry draining at
// once, a small buffer, and the default 32 entries at 8 cycles.
var wbGeoms = [][2]int{{1, 0}, {4, 8}, {32, 8}}

func TestWriteBufferMatchesQueueModel(t *testing.T) {
	for _, g := range wbGeoms {
		for seed := int64(1); seed <= 4; seed++ {
			if checkWBModel(t, g[0], int64(g[1]), randomOps(seed, 20000)) == 0 {
				t.Errorf("WB %v seed %d: no read behind the owner's clock found an entry", g, seed)
			}
		}
	}
}
