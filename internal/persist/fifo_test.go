package persist

// The PB, the WPQ's drain ring and the RBT used to be FIFO queues with a
// head and a length, collected on every operation. Those queues are the
// specification the fixed rings are held to (model_test.go): driven with
// the same operations, including reads behind the owner's clock, the two
// must answer alike.

// fifoWPQ is the WPQ's drain ring as a queue: full at cap entries, when
// an arrival waits for the head to drain.
type fifoWPQ struct {
	cap       int
	media     rate
	drainDone []int64
	head      int
	count     int
	lastDrain int64
	fullWait  int64
}

func newFifoWPQ(capacity int, bytesPerCycle float64) *fifoWPQ {
	return &fifoWPQ{cap: capacity, media: newRate(bytesPerCycle), drainDone: make([]int64, capacity)}
}

func (w *fifoWPQ) admit(arrival int64, bytes int) (admit, drain int64) {
	admit = arrival
	if w.count >= w.cap {
		oldest := w.drainDone[w.head]
		if oldest > admit {
			w.fullWait += oldest - admit
			admit = oldest
		}
		w.head = (w.head + 1) % w.cap
		w.count--
	}
	drain = max(admit, w.lastDrain) + w.media.cycles(bytes)
	w.lastDrain = drain
	w.drainDone[(w.head+w.count)%w.cap] = drain
	w.count++
	return admit, drain
}

func (w *fifoWPQ) occupancy(now int64) int {
	n := 0
	for i := 0; i < w.count; i++ {
		if w.drainDone[(w.head+i)%w.cap] > now {
			n++
		}
	}
	return n
}

// fifoPath is the persist buffer as a queue collected at each send's
// commit and proceed cycles and at each occupancy read.
type fifoPath struct {
	pbCap     int
	link      rate
	oneWayLat int64
	sent      bool
	lastSend  int64
	pb        []pbEntry
	head, len int
	pbStall   int64
}

func newFifoPath(pbCap int, bytesPerCycle float64, oneWayLat int64) *fifoPath {
	return &fifoPath{pbCap: pbCap, link: newRate(bytesPerCycle), oneWayLat: oneWayLat, pb: make([]pbEntry, pbCap)}
}

func (p *fifoPath) gc(now int64) {
	for p.len > 0 && p.pb[p.head].free <= now {
		p.head = (p.head + 1) % p.pbCap
		p.len--
	}
}

func (p *fifoPath) send(commit, addr int64, bytes int, w *fifoWPQ, numaExtra int64, logBytes int) (proceed, admit int64) {
	proceed = commit
	p.gc(proceed)
	if p.len >= p.pbCap {
		if free := p.pb[p.head].free; free > proceed {
			p.pbStall += free - proceed
			proceed = free
		}
		p.gc(proceed)
	}
	send := proceed
	if p.sent {
		send = max(send, p.lastSend+p.link.cycles(bytes))
	}
	p.sent, p.lastSend = true, send
	admit, _ = w.admit(send+p.oneWayLat+numaExtra, bytes+logBytes)
	free := admit + p.oneWayLat
	if p.len > 0 {
		free = max(free, p.pb[(p.head+p.len-1)%p.pbCap].free)
	}
	p.pb[(p.head+p.len)%p.pbCap] = pbEntry{free: free, admit: admit, line: addr &^ 63}
	p.len++
	return proceed, admit
}

func (p *fifoPath) linePersistTime(addr, now int64) int64 {
	var t int64
	for n := p.len - 1; n >= 0; n-- {
		e := p.pb[(p.head+n)%p.pbCap]
		if e.free <= now {
			break
		}
		if e.line == addr&^63 && e.admit > t {
			t = e.admit
		}
	}
	if t <= now {
		return 0
	}
	return t
}

func (p *fifoPath) occupancy(now int64) int {
	p.gc(now)
	return p.len
}

// fifoRBT is the region boundary table as a queue collected at each
// push's now and proceed cycles and at each read.
type fifoRBT struct {
	cap       int
	retire    []int64
	head, len int
	fullStall int64
}

func newFifoRBT(capacity int) *fifoRBT {
	return &fifoRBT{cap: capacity, retire: make([]int64, capacity)}
}

func (r *fifoRBT) gc(now int64) {
	for r.len > 0 && r.retire[r.head] <= now {
		r.head = (r.head + 1) % r.cap
		r.len--
	}
}

func (r *fifoRBT) last() int64 { return r.retire[(r.head+r.len-1)%r.cap] }

func (r *fifoRBT) push(now, persistDone int64) (proceed, retireTime int64) {
	proceed = now
	r.gc(proceed)
	if r.len >= r.cap {
		if free := r.retire[r.head]; free > proceed {
			r.fullStall += free - proceed
			proceed = free
		}
		r.gc(proceed)
	}
	retireTime = max(persistDone, proceed)
	if r.len > 0 {
		retireTime = max(retireTime, r.last())
	}
	r.retire[(r.head+r.len)%r.cap] = retireTime
	r.len++
	return proceed, retireTime
}

func (r *fifoRBT) drainTime(now int64) int64 {
	r.gc(now)
	if r.len == 0 {
		return now
	}
	return r.last()
}

func (r *fifoRBT) occupancy(now int64) int {
	r.gc(now)
	return r.len
}
