// Package persist models cWSP's persistence hardware (paper Sections III,
// V): the per-core persist buffer (PB, a repurposed write-combining
// buffer) feeding a FIFO persist path, the battery-backed write pending
// queue (WPQ) of each memory controller, the region boundary table (RBT)
// that enables memory-controller speculation, and the persist-event journal
// the recovery runtime replays.
//
// All components are deterministic timestamp schedulers: because every
// queue is FIFO with known service rates, an entry's arrival, admission,
// and drain times can be computed at enqueue time, which lets the machine
// advance lazily instead of cycle by cycle.
package persist

import "fmt"

// WPQ is one memory controller's write pending queue. Entries are 8-byte
// words (cWSP) or 64-byte lines (prior work); arrival order equals drain
// order. The WPQ is inside the persistence domain: a store is *persisted*
// the moment it is admitted.
type WPQ struct {
	cap   int
	media rate // NVM media write bandwidth

	// drainDone is a ring of the last cap entries' drain-completion times
	// (0 before the first cap admits), rising from next, the slot of the
	// entry cap admits ago that the next admit overwrites.
	drainDone []int64
	next      int
	lastDrain int64

	// recent is a ring of the last admits' words and drain times, rising
	// from rnext, the slot of the oldest, which the load-delay check (paper
	// Section V-A2) scans. It holds one admit more than can be pending at
	// a query, a bound set by cap, pbCap, threads and burst (DESIGN.md
	// "Pending check"); the scan's panic on a broken bound names them.
	recent                []admitted
	rnext                 int
	pbCap, threads, burst int

	Admits   int64
	FullWait int64 // total cycles arrivals waited for a free slot
}

// admitted is one recent admit.
type admitted struct{ word, drain int64 }

// untracked is the word recorded for an admit at address 0, which the
// load check never finds: no word address (a multiple of 8) equals it.
const untracked = 1

// NewWPQ builds a WPQ with the given capacity and NVM write drain rate.
// threads cores feed it, each through one Path with a PB of pbCap
// entries, sending at most burst persists per instruction (S), and query
// it at their own clocks, which never fall, only while the scheduler
// steps them at the machine's minimum (cycle, id).
func NewWPQ(capacity int, bytesPerCycle float64, pbCap, threads, burst int) *WPQ {
	if bytesPerCycle <= 0 {
		bytesPerCycle = 1
	}
	capacity, pbCap, threads, burst = max(capacity, 1), max(pbCap, 1), max(threads, 1), max(burst, 1)
	return &WPQ{
		cap:       capacity,
		media:     newRate(bytesPerCycle),
		drainDone: make([]int64, capacity),
		recent:    make([]admitted, capacity+threads*pbCap+(threads-1)*burst+1),
		pbCap:     pbCap,
		threads:   threads,
		burst:     burst,
	}
}

// Admit schedules an entry arriving at the MC at cycle arrival that will
// write bytes to NVM media (data plus any undo-log bytes). It returns the
// admission time (the persistence instant) and the media drain-completion
// time.
func (w *WPQ) Admit(arrival int64, addr int64, bytes int) (admit, drain int64) {
	admit = arrival
	// The queue is full until the entry cap admits ago leaves it.
	if oldest := w.drainDone[w.next]; oldest > admit {
		w.FullWait += oldest - admit
		admit = oldest
	}
	drain = max(admit, w.lastDrain) + w.media.cycles(bytes)
	w.lastDrain = drain
	w.drainDone[w.next] = drain
	w.next = ringNext(w.next, w.cap)
	w.Admits++

	word := addr &^ 7
	if addr == 0 {
		word = untracked
	}
	w.recent[w.rnext] = admitted{word, drain}
	w.rnext = ringNext(w.rnext, len(w.recent))
	return admit, drain
}

// Occupancy returns the number of entries still in flight (admitted but
// not yet drained to media) at cycle now. Read-only: safe for telemetry
// sampling at any point in the schedule.
func (w *WPQ) Occupancy(now int64) int {
	return countAbove(w.drainDone, now)
}

// Backlog returns how many cycles of queued media work remain at cycle now
// (0 when the media is idle): the distance between the last scheduled
// drain completion and the present. This is the gauge that exposes
// persist-path saturation long before FullWait starts accumulating.
func (w *WPQ) Backlog(now int64) int64 {
	if w.lastDrain > now {
		return w.lastDrain - now
	}
	return 0
}

// PendingUntil returns the drain time of the newest entry for addr's word
// if it drains after cycle now, else 0. An admit at address 0 is never
// found.
//
// It scans the recent admits newest first. Drains rise strictly, so the
// scan stops at the first entry drained by now: it and every older entry
// are drained. The ring holds one admit more than can be pending at a
// query (DESIGN.md "Pending check"); the scan panics if that one is
// pending too.
func (w *WPQ) PendingUntil(addr, now int64) int64 {
	key := addr &^ 7
	n := len(w.recent)
	i := w.rnext
	for range n - 1 {
		i = ringPrev(i, n)
		e := &w.recent[i]
		if e.drain <= now {
			return 0
		}
		if e.word == key {
			return e.drain
		}
	}
	if w.recent[w.rnext].drain > now {
		panic(fmt.Sprintf("persist: more than WPQSize + N·PBSize + (N-1)·S = %d entries pending at cycle %d, "+
			"with WPQSize %d, N = %d threads, PBSize %d and S %d: each thread must feed this WPQ through a PB of PBSize entries, "+
			"send at most S persists per instruction, and query it only while it steps at the machine's minimum (cycle, id)",
			n-1, now, w.cap, w.threads, w.pbCap, w.burst))
	}
	return 0
}

// Path is one core's persist buffer plus its FIFO path to the memory
// controllers.
type Path struct {
	pbCap     int
	link      rate // persist-path bandwidth
	oneWayLat int64

	// sent distinguishes "no sends yet" from "last send was at cycle 0"
	// so the bandwidth interval applies to every send after the first.
	sent     bool
	lastSend int64
	// pb is a ring of the last pbCap entries (zero before the first pbCap
	// sends), rising from next, the slot of the entry pbCap sends ago.
	pb   []pbEntry
	next int
	collected

	Sends     int64
	PBStall   int64 // cycles the core stalled on a full PB
	BytesSent int64
}

// pbEntry is one persist-buffer slot.
type pbEntry struct {
	// free is the entry's deallocation time: the PB frees entries
	// head-first, so it is the running max of acknowledgment times and
	// rises along the ring.
	free  int64
	admit int64 // WPQ admission (persistence) time
	line  int64 // 64-byte line address, for the WB check
}

// NewPath builds a persist path with the given PB capacity, bandwidth
// (bytes per core cycle) and one-way latency in cycles.
func NewPath(pbCap int, bytesPerCycle float64, oneWayLat int64) *Path {
	if pbCap < 1 {
		pbCap = 1
	}
	if bytesPerCycle <= 0 {
		bytesPerCycle = 0.001
	}
	return &Path{
		pbCap:     pbCap,
		link:      newRate(bytesPerCycle),
		oneWayLat: oneWayLat,
		pb:        make([]pbEntry, pbCap),
	}
}

// Send schedules one persist of `bytes` at word address addr, committed at
// cycle commit, destined for WPQ w with extra per-MC latency numaExtra.
// logBytes adds undo-log media traffic at the MC. It returns the cycle the
// core may proceed (≥ commit when the PB was full) and the admission
// (persistence) time of the entry.
func (p *Path) Send(commit int64, addr int64, bytes int, w *WPQ, numaExtra int64, logBytes int) (proceed, admit int64) {
	proceed = commit
	// The PB is full until the entry pbCap sends ago deallocates.
	if free := p.pb[p.next].free; free > proceed {
		p.PBStall += free - proceed
		proceed = free
	}

	send := proceed
	if p.sent {
		send = max(send, p.lastSend+p.link.cycles(bytes))
	}
	p.sent = true
	p.lastSend = send

	arrival := send + p.oneWayLat + numaExtra
	admit, _ = w.Admit(arrival, addr, bytes+logBytes)

	// FIFO dealloc: the PB frees entries in order, so monotonize.
	free := max(admit+p.oneWayLat, p.pb[ringPrev(p.next, p.pbCap)].free)
	p.pb[p.next] = pbEntry{free: free, admit: admit, line: addr &^ 63}
	p.next = ringNext(p.next, p.pbCap)
	p.pushed(proceed, free)

	p.Sends++
	p.BytesSent += int64(bytes)
	return proceed, admit
}

// LinePersistTime returns the latest persistence time of in-flight entries
// covering the 64-byte line of addr (0 when none persists after now) — the
// PB check the WB performs before releasing a dirty line to L2.
//
// The buffered entries are the whole answer: an entry that persists after
// now frees after now. Free times rise along the ring, so the scan runs
// newest first and stops at the first entry freed by now, or collected:
// it and every older entry persisted by then.
func (p *Path) LinePersistTime(addr, now int64) int64 {
	line := addr &^ 63
	stop, n := max(now, p.seen), p.pbCap
	if p.fresh && now < p.seen {
		stop, n = now, 1 // only the newest, freeing at seen, is buffered
	}
	var t int64
	i := p.next
	for range n {
		i = ringPrev(i, p.pbCap)
		e := &p.pb[i]
		if e.free <= stop {
			break
		}
		if e.line == line && e.admit > t {
			t = e.admit
		}
	}
	if t <= now {
		return 0
	}
	return t
}

// Occupancy returns the PB entry count at cycle now.
func (p *Path) Occupancy(now int64) int {
	p.collect(now)
	n := 0
	for i := range p.pb {
		if p.pb[i].free > p.seen {
			n++
		}
	}
	return n + p.freshCount()
}

// SendBacklog returns how many cycles of persist-path send bandwidth are
// already committed beyond cycle now (0 when the path is caught up) — the
// depth of the serialization queue feeding the MCs.
func (p *Path) SendBacklog(now int64) int64 {
	if p.lastSend > now {
		return p.lastSend - now
	}
	return 0
}

// rate converts a byte count to whole cycles (at least one) at a fixed
// bandwidth. A queue sees at most two sizes, data alone and data plus its
// undo log, so the last two conversions are kept and a store pays a
// compare instead of a float divide.
type rate struct {
	bytesPerCycle float64
	size          [2]int // -1 marks an empty memo slot
	cost          [2]int64
}

func newRate(bytesPerCycle float64) rate {
	return rate{bytesPerCycle: bytesPerCycle, size: [2]int{-1, -1}}
}

func (r *rate) cycles(bytes int) int64 {
	if bytes == r.size[0] {
		return r.cost[0]
	}
	if bytes == r.size[1] {
		return r.cost[1]
	}
	c := max(int64(float64(bytes)/r.bytesPerCycle), 1)
	r.size[1], r.cost[1] = r.size[0], r.cost[0]
	r.size[0], r.cost[0] = bytes, c
	return c
}

// RBT is one core's region boundary table: a FIFO of unretired regions'
// retire times. Its capacity bounds how many regions may persist
// concurrently (the speculation depth).
type RBT struct {
	cap int
	// retire is a ring of the last cap regions' retire times (0 before the
	// first cap pushes), rising from next, the slot of the region cap
	// pushes ago.
	retire []int64
	next   int
	collected

	FullStall int64
}

// NewRBT builds an RBT with the given entry count.
func NewRBT(capacity int) *RBT {
	if capacity < 1 {
		capacity = 1
	}
	return &RBT{cap: capacity, retire: make([]int64, capacity)}
}

func (r *RBT) newest() int64 { return r.retire[ringPrev(r.next, r.cap)] }

// Push records a region whose stores all persist by persistDone, committed
// at cycle now. In-order retirement: the region retires no earlier than its
// predecessor. Returns the cycle the core may proceed (≥ now if the RBT was
// full) and the region's retire time.
func (r *RBT) Push(now, persistDone int64) (proceed, retireTime int64) {
	proceed = now
	// The table is full until the region cap pushes ago retires.
	if free := r.retire[r.next]; free > proceed {
		r.FullStall += free - proceed
		proceed = free
	}
	retireTime = max(persistDone, proceed, r.newest())
	r.retire[r.next] = retireTime
	r.next = ringNext(r.next, r.cap)
	r.pushed(proceed, retireTime)
	return proceed, retireTime
}

// DrainTime returns the cycle by which every tracked region has retired.
func (r *RBT) DrainTime(now int64) int64 {
	if r.Busy(now) {
		return r.newest()
	}
	return now
}

// Busy reports whether a region is unretired at cycle now.
func (r *RBT) Busy(now int64) bool {
	r.collect(now)
	return r.fresh || r.newest() > r.seen
}

// Occupancy returns the number of unretired regions at cycle now.
func (r *RBT) Occupancy(now int64) int {
	r.collect(now)
	return countAbove(r.retire, r.seen) + r.freshCount()
}

// collected stands in for the head of the FIFO a ring replaced, which
// was collected (its entries done by then dropped) on every operation: a
// ring's queued entries are those done after seen, the latest cycle it
// was collected at, plus the newest when fresh. A push collects at its
// cycle before it records the new entry, so that entry stays queued even
// if it is done at that cycle, until a collection reaches it.
//
// The floor matters on multi-core machines, where the telemetry sampler
// reads a core's structures behind that core's clock: an entry done
// between the two has left the queue. A push is never behind seen (the
// owner's clock only rises, and the sampler reads at or behind it), so a
// ring's one-compare full check agrees with the collected FIFO.
type collected struct {
	seen  int64
	fresh bool
}

func (c *collected) collect(now int64) {
	if now >= c.seen {
		c.seen, c.fresh = now, false
	}
}

// pushed records a push at cycle at of an entry done at cycle done.
func (c *collected) pushed(at, done int64) { c.seen, c.fresh = at, done == at }

func (c *collected) freshCount() int {
	if c.fresh {
		return 1
	}
	return 0
}

// ringNext and ringPrev step a ring index of a ring of n slots.
func ringNext(i, n int) int {
	if i++; i == n {
		return 0
	}
	return i
}

func ringPrev(i, n int) int {
	if i == 0 {
		return n - 1
	}
	return i - 1
}

// countAbove counts the times after t.
func countAbove(times []int64, t int64) int {
	n := 0
	for _, v := range times {
		if v > t {
			n++
		}
	}
	return n
}

// Rec is one journaled persist event: the recovery runtime uses the journal
// to reconstruct the NVM image at an arbitrary crash cycle (entries not yet
// admitted never reached NVM; logged entries of unretired regions roll
// back).
type Rec struct {
	Addr  int64
	Old   int64
	New   int64
	Admit int64 // persistence instant (WPQ admission); for synchronous
	// persists this equals the commit cycle
	Region int64 // global region sequence number
	Logged bool  // undo-logged at the MC (speculative or checkpoint-area)
	Core   int

	// MC and MCSeq identify the record's write pending queue admission:
	// MCSeq is the per-controller admission ordinal (FIFO arrival order =
	// drain order), 0 for synchronous persists that bypass the WPQ. The
	// recovery validator cross-checks these against the controller's drain
	// ledger to detect dropped or reordered tail entries.
	MC    int
	MCSeq int64
	// Seal is the record's integrity checksum, written by the MC alongside
	// the undo-log entry. A torn or corrupted record no longer matches its
	// seal, which recovery detects instead of silently applying a bogus
	// rollback value.
	Seal uint64
}
