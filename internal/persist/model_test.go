package persist

import (
	"math/rand"
	"testing"
)

// The WPQ's load check and the persist path's line times used to be
// plain maps with collection rules of their own, and the PB, the WPQ's
// drain ring and the RBT used to be collected queues (fifo_test.go).
// Those maps and queues are the specification the current structures are
// held to here: every query must answer as they would, under operation
// sequences shaped like the machine's (several cores at their own clocks,
// NUMA-skewed admits, PB-full stalls, and telemetry reads behind the
// owner's clock).

var (
	modelPBSizes  = []int{1, 4, 50, 288}
	modelWPQSizes = []int{1, 4, 24}
)

// modelCover counts what a model run exercised, so the tests can insist
// their sequences reach every collection rule.
type modelCover struct {
	pending int // queries answered with a time after now
	stale   int // queries of an entry done by then
	swept   int // entries a bulk sweep collected
	stalls  int64
	behind  int // reads behind the owner's last collection that found entries
	fresh   int // reads behind it that found the newest entry, recorded at that cycle, still queued
	atDrain int // queries at exactly the drain of the word's newest admit
	deepest int // the most entries pending in the queried WPQ at a query
	over    int // the most by which deepest passed WPQSize + N·PBSize
}

// checkWPQModel drives threads Paths feeding two shared WPQs the way a
// machine with that many cores does. A scheduler steps the thread with
// the minimum (clock, id), and each step is one instruction: a store of
// up to burst words (S), each checking its WPQ first, as a store miss
// does, and then sent, or a load, checking its WPQ and stalling to a
// hit's drain when the operation says so (as WPQDelay does). Every query
// runs at the stepping thread's clock, which never falls, and must
// answer as the never-dropping map of each word's newest admit would.
// Every send must match the queue its PB used to be (fifoPath), and
// every admit, Occupancy and FullWait the queue the WPQ used to be
// (fifoWPQ). The WPQs drain slowly enough to fill themselves and the
// PBs, the second is 30 cycles further away, some loads query a word at
// exactly its newest admit's drain, and addresses carry low bits.
func checkWPQModel(t testing.TB, threads, pbSize, wpqSize, burst int, oneWay int64, ops []byte) (cov modelCover) {
	t.Helper()
	paths, fifos := make([]*Path, threads), make([]*fifoPath, threads)
	for i := range paths {
		paths[i], fifos[i] = NewPath(pbSize, 2.0, oneWay), newFifoPath(pbSize, 2.0, oneWay)
	}
	wpqs := []*WPQ{NewWPQ(wpqSize, 0.25, pbSize, threads, burst), NewWPQ(wpqSize, 0.25, pbSize, threads, burst)}
	fifoWPQs := []*fifoWPQ{newFifoWPQ(wpqSize, 0.25), newFifoWPQ(wpqSize, 0.25)}
	newest := []map[int64]int64{{}, {}} // word -> drain of its newest admit
	drains := [][]int64{nil, nil}       // every admit's drain, oldest first
	clock := make([]int64, threads)
	last, lastMC := int64(0), 0
	query := func(i, c, mc int, addr int64) int64 {
		now, key := clock[c], addr&^7
		n := 0
		for j := len(drains[mc]) - 1; j >= 0 && drains[mc][j] > now; j-- {
			n++
		}
		cov.deepest = max(cov.deepest, n)
		cov.over = max(cov.over, n-wpqSize-threads*pbSize)
		want, ok := newest[mc][key]
		switch {
		case want > now:
			cov.pending++
		case ok:
			want = 0
			cov.stale++
		}
		if got := wpqs[mc].PendingUntil(addr, now); got != want {
			t.Fatalf("op %d: core %d WPQ %d PendingUntil(%#x, %d) = %d, map says %d", i/3, c, mc, addr, now, got, want)
		}
		return want
	}
	for i := 0; i+2 < len(ops); i += 3 {
		op, a, d := ops[i], ops[i+1], ops[i+2]
		c := 0
		for j := range clock {
			if clock[j] < clock[c] {
				c = j
			}
		}
		mc := int(op>>2) & 1
		addr := int64(a>>1)*64 + int64(d%8)*8 + int64(d>>3)&7
		switch op % 4 {
		case 0, 1:
			for k := range 1 + int(op>>3)%burst {
				addr := addr + 8*int64(k)
				if op&0x40 != 0 {
					query(i, c, mc, addr)
				}
				proceed, admit := paths[c].Send(clock[c], addr, 8, wpqs[mc], int64(mc)*30, 16*int(op>>7))
				if fp, fa := fifos[c].send(clock[c], addr, 8, fifoWPQs[mc], int64(mc)*30, 16*int(op>>7)); proceed != fp || admit != fa {
					t.Fatalf("op %d: core %d Send(%d) = (%d, %d), queue says (%d, %d)", i/3, c, clock[c], proceed, admit, fp, fa)
				}
				drain := fifoWPQs[mc].lastDrain
				if wpqs[mc].lastDrain != drain {
					t.Fatalf("op %d: WPQ %d admit drains at %d, queue says %d", i/3, mc, wpqs[mc].lastDrain, drain)
				}
				drains[mc] = append(drains[mc], drain)
				if addr != 0 {
					newest[mc][addr&^7] = drain
				}
				clock[c] = proceed + int64(d>>6)
				last, lastMC = addr, mc
			}
		case 2, 3:
			clock[c] += int64(d % 16)
			if a&1 == 0 {
				addr, mc = last&^7|int64(d>>4)&7, lastMC // a byte of the word stored last
			}
			if v := newest[mc][addr&^7]; op%4 == 3 && v >= clock[c] {
				clock[c] = v
				cov.atDrain++
			}
			if want := query(i, c, mc, addr); want > 0 && op>>7 == 1 {
				clock[c] = want
			}
			// A telemetry read behind the clock.
			back := max(clock[c]-int64(d%64), 0)
			for j, w := range wpqs {
				if got, want := w.Occupancy(back), fifoWPQs[j].occupancy(back); got != want {
					t.Fatalf("op %d: WPQ %d Occupancy(%d) = %d, queue says %d", i/3, j, back, got, want)
				}
			}
		}
	}
	for j, w := range wpqs {
		if w.FullWait != fifoWPQs[j].fullWait {
			t.Fatalf("WPQ %d FullWait %d, queue says %d", j, w.FullWait, fifoWPQs[j].fullWait)
		}
		cov.stalls += w.FullWait
	}
	for _, p := range paths {
		cov.stalls += p.PBStall
	}
	return cov
}

// checkPathModel drives a Path's Send/LinePersistTime with ops against
// the per-line map the path used to keep: each send raises its line's
// time to the entry's admit, a query at or past that time deletes it, and
// a send that leaves more than 8*PBSize lines deletes every line
// persisted by its commit. It also drives the queue the PB used to be
// (fifoPath) and its WPQs' queues alongside, which every send, occupancy
// and line query must match. One core owns the path, so its clock only
// rises; the telemetry sampler reads the PB at or behind that clock.
// Sends go to two WPQs, the second 30 cycles further away, so admits
// are not monotone, and the WPQs drain slowly enough to fill the PB. A
// zero one-way latency lets an entry free at its send's proceed cycle.
func checkPathModel(t testing.TB, pbSize, wpqSize int, oneWay int64, ops []byte) (cov modelCover) {
	t.Helper()
	p := NewPath(pbSize, 2.0, oneWay)
	wpqs := []*WPQ{NewWPQ(wpqSize, 0.25, pbSize, 1, 1), NewWPQ(wpqSize, 0.25, pbSize, 1, 1)}
	fifo := newFifoPath(pbSize, 2.0, oneWay)
	fifoWPQs := []*fifoWPQ{newFifoWPQ(wpqSize, 0.25), newFifoWPQ(wpqSize, 0.25)}
	ref := map[int64]int64{}
	clock, last := int64(0), int64(0)
	for i := 0; i+2 < len(ops); i += 3 {
		op, a, d := ops[i], ops[i+1], ops[i+2]
		addr := int64(a>>1)*64 + int64(d%8)*8
		switch op % 4 {
		case 0, 1:
			mc := int(op>>2) & 1
			commit := clock
			proceed, admit := p.Send(commit, addr, 8, wpqs[mc], int64(mc)*30, 16*int(op>>7))
			if proceed < commit {
				t.Fatalf("op %d: proceed %d before commit %d", i/3, proceed, commit)
			}
			if fp, fa := fifo.send(commit, addr, 8, fifoWPQs[mc], int64(mc)*30, 16*int(op>>7)); proceed != fp || admit != fa {
				t.Fatalf("op %d: Send(%d) = (%d, %d), queue says (%d, %d)", i/3, commit, proceed, admit, fp, fa)
			}
			clock = proceed + int64(d>>6)
			last = addr
			line := addr &^ 63
			if prev, ok := ref[line]; !ok || admit > prev {
				ref[line] = admit
			}
			if len(ref) > 8*pbSize {
				for k, v := range ref {
					if v <= commit {
						delete(ref, k)
						cov.swept++
					}
				}
			}
		case 2:
			clock += int64(d % 64)
			if a&1 == 0 {
				addr = last // the line the core stored to last, as an eviction often is
			}
			want := int64(0)
			if v, ok := ref[addr&^63]; ok {
				if v <= clock {
					delete(ref, addr&^63)
					cov.stale++
				} else {
					want = v
					cov.pending++
				}
			}
			if got := p.LinePersistTime(addr, clock); got != want {
				t.Fatalf("op %d: LinePersistTime(%#x, %d) = %d, map says %d", i/3, addr, clock, got, want)
			}
			if fw := fifo.linePersistTime(addr, clock); fw != want {
				t.Fatalf("op %d: queue's LinePersistTime(%#x, %d) = %d, map says %d", i/3, addr, clock, fw, want)
			}
		case 3:
			// A telemetry read behind the owner's clock.
			back := max(clock-int64(d%96), 0)
			if a&1 == 0 {
				addr = last
			}
			if got, want := p.LinePersistTime(addr, back), fifo.linePersistTime(addr, back); got != want {
				t.Fatalf("op %d: LinePersistTime(%#x, %d) = %d, queue says %d", i/3, addr, back, got, want)
			}
			pbFresh := fifo.len > 0 && fifo.pb[(fifo.head+fifo.len-1)%pbSize].free <= clock
			got, want := p.Occupancy(back), fifo.occupancy(back)
			if got != want {
				t.Fatalf("op %d: Occupancy(%d) = %d, queue says %d (owner at %d)", i/3, back, got, want, clock)
			}
			cov.count(want, pbFresh && want > 0)
			for j, w := range wpqs {
				if got, want := w.Occupancy(back), fifoWPQs[j].occupancy(back); got != want {
					t.Fatalf("op %d: WPQ %d Occupancy(%d) = %d, queue says %d", i/3, j, back, got, want)
				}
			}
		}
	}
	if p.PBStall != fifo.pbStall {
		t.Fatalf("PBStall %d, queue says %d", p.PBStall, fifo.pbStall)
	}
	cov.stalls = p.PBStall
	return cov
}

// count records a read behind the owner's clock that found n entries,
// fresh when one of them is the newest, queued at or before that clock.
func (cov *modelCover) count(n int, fresh bool) {
	if n > 0 {
		cov.behind++
	}
	if fresh {
		cov.fresh++
	}
}

// checkRBTModel drives an RBT against the queue it used to be (fifoRBT).
// The owning core pushes regions at its rising clock, often with every
// store persisted already, so the region retires at the push's proceed
// cycle; it probes with Busy and DrainTime at that clock, and telemetry
// reads Occupancy, Busy and DrainTime behind it.
func checkRBTModel(t testing.TB, capacity int, ops []byte) (cov modelCover) {
	t.Helper()
	r, fifo := NewRBT(capacity), newFifoRBT(capacity)
	clock := int64(0)
	for i := 0; i+2 < len(ops); i += 3 {
		op, a, d := ops[i], ops[i+1], ops[i+2]
		switch op % 4 {
		case 0, 1:
			done := clock + int64(a) - 128 // often already persisted
			proceed, retire := r.Push(clock, done)
			if fp, fr := fifo.push(clock, done); proceed != fp || retire != fr {
				t.Fatalf("op %d: Push(%d, %d) = (%d, %d), queue says (%d, %d)", i/3, clock, done, proceed, retire, fp, fr)
			}
			clock = proceed + int64(d>>6)
		case 2:
			clock += int64(d)
			if a&1 == 0 {
				if got, want := r.Busy(clock), fifo.occupancy(clock) > 0; got != want {
					t.Fatalf("op %d: Busy(%d) = %v, queue says %v", i/3, clock, got, want)
				}
			} else if got, want := r.DrainTime(clock), fifo.drainTime(clock); got != want {
				t.Fatalf("op %d: DrainTime(%d) = %d, queue says %d", i/3, clock, got, want)
			}
		case 3:
			back := max(clock-int64(d%64), 0)
			fresh := fifo.len > 0 && fifo.last() <= clock
			var got, want int64
			switch a % 3 {
			case 0:
				got, want = int64(r.Occupancy(back)), int64(fifo.occupancy(back))
			case 1:
				got, want = b2i(r.Busy(back)), b2i(fifo.occupancy(back) > 0)
			default:
				got, want = r.DrainTime(back), fifo.drainTime(back)
			}
			if got != want {
				t.Fatalf("op %d: read %d at %d (owner at %d) = %d, queue says %d", i/3, a%3, back, clock, got, want)
			}
			n := fifo.occupancy(back)
			cov.count(n, fresh && n > 0)
		}
	}
	if r.FullStall != fifo.fullStall {
		t.Fatalf("FullStall %d, queue says %d", r.FullStall, fifo.fullStall)
	}
	cov.stalls = r.FullStall
	return cov
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// modelOps returns n random operations biased toward bursts: runs of
// sends with no clock advance fill the PB and the WPQs.
func modelOps(rng *rand.Rand, n int) []byte {
	ops := make([]byte, 3*n)
	rng.Read(ops)
	for i := 0; i < len(ops); i += 3 {
		if rng.Intn(4) != 0 {
			ops[i] &^= 3 // an Admit or Send...
			ops[i+2] &= 0x3f
			if rng.Intn(2) == 0 {
				ops[i+2] &^= 0x1f // ...often with no clock advance
			}
		}
	}
	return ops
}

// TestOneCoreWPQMatchesMapModel runs the WPQ model with one thread. It
// requires the sequences to fill the PB, up to 50 entries (the loads'
// stalls let the media catch up before 288 fill), and to reach the
// one-core bound, WPQ size + PB size entries pending at a query, at the
// PB sizes where bursts of sends fill the PB with entries for one WPQ.
func TestOneCoreWPQMatchesMapModel(t *testing.T) {
	for _, pb := range modelPBSizes {
		for _, wq := range modelWPQSizes {
			deepest := 0
			for seed := int64(0); seed < 4; seed++ {
				cov := checkWPQModel(t, 1, pb, wq, modelBurst(seed), modelOneWay(seed), modelOps(rand.New(rand.NewSource(seed)), 4000))
				if cov.pending == 0 || cov.stale == 0 || cov.atDrain == 0 || pb <= 50 && cov.stalls == 0 {
					t.Errorf("PB %d / WPQ %d seed %d: sequence missed a rule: %+v", pb, wq, seed, cov)
				}
				deepest = max(deepest, cov.deepest)
			}
			if pb <= 4 && deepest != wq+pb {
				t.Errorf("PB %d / WPQ %d: at most %d entries pending at a query, want %d", pb, wq, deepest, wq+pb)
			}
		}
	}
}

// TestWPQPendingMatchesMapModel runs the WPQ model with two and three
// threads. At each thread count it requires a query with more entries
// pending than the WPQ and every PB hold, WPQ size + N·PB size: the other
// threads' latest stores, sent after the query's clock, are what the
// ring's (N-1)·S slots are for.
func TestWPQPendingMatchesMapModel(t *testing.T) {
	for threads := 2; threads <= 3; threads++ {
		over := 0
		for _, pb := range modelPBSizes {
			for _, wq := range modelWPQSizes {
				for seed := int64(0); seed < 4; seed++ {
					cov := checkWPQModel(t, threads, pb, wq, modelBurst(seed), modelOneWay(seed), modelOps(rand.New(rand.NewSource(seed)), 4000))
					if cov.pending == 0 || cov.stale == 0 || cov.atDrain == 0 || pb <= 50 && cov.stalls == 0 {
						t.Errorf("%d threads, PB %d / WPQ %d seed %d: sequence missed a rule: %+v", threads, pb, wq, seed, cov)
					}
					over = max(over, cov.over)
				}
			}
		}
		if over == 0 {
			t.Errorf("%d threads: no query had more than WPQ size + %d x PB size entries pending", threads, threads)
		}
	}
}

// modelBurst returns S, the most words a model store sends: 1 or 13 (a
// call's frame record plus nine spills and checkpoints).
func modelBurst(seed int64) int { return 1 + 12*int(seed>>1&1) }

// modelOneWay returns the one-way latency a path model runs with: the
// default 20 cycles, or 0 for odd seeds, so entries can free at once.
func modelOneWay(seed int64) int64 { return 20 * (1 - seed&1) }

func TestPathLineTimesMatchMapModel(t *testing.T) {
	for _, pb := range modelPBSizes {
		for _, wq := range modelWPQSizes {
			for seed := int64(0); seed < 4; seed++ {
				cov := checkPathModel(t, pb, wq, modelOneWay(seed), modelOps(rand.New(rand.NewSource(seed)), 4000))
				if cov.pending == 0 || cov.stale == 0 || cov.stalls == 0 || cov.behind == 0 || pb <= 4 && cov.swept == 0 {
					t.Errorf("PB %d / WPQ %d seed %d: sequence missed a rule: %+v", pb, wq, seed, cov)
				}
			}
		}
	}
}

func TestRBTMatchesQueueModel(t *testing.T) {
	for _, capacity := range []int{1, 4, 16} {
		for seed := int64(0); seed < 8; seed++ {
			cov := checkRBTModel(t, capacity, modelOps(rand.New(rand.NewSource(seed)), 4000))
			if cov.stalls == 0 || cov.behind == 0 || cov.fresh == 0 {
				t.Errorf("RBT %d seed %d: sequence missed a rule: %+v", capacity, seed, cov)
			}
		}
	}
}

// FuzzPersistModels runs every model check over fuzzed operation
// sequences and PB/WPQ sizes.
func FuzzPersistModels(f *testing.F) {
	for seed := int64(0); seed < 4; seed++ {
		f.Add(modelOps(rand.New(rand.NewSource(seed)), 300), uint8(seed), uint8(seed))
	}
	f.Fuzz(func(t *testing.T, ops []byte, pbSel, wpqSel uint8) {
		if len(ops) > 3*4096 {
			ops = ops[:3*4096] // the models rescan their maps: keep an exec short
		}
		wq := modelWPQSizes[int(wpqSel)%len(modelWPQSizes)]
		pb, oneWay := modelPBSizes[int(pbSel)%len(modelPBSizes)], modelOneWay(int64(pbSel>>4))
		checkWPQModel(t, 1+int(pbSel>>2)%3, pb, wq, 1+int(pbSel>>5), oneWay, ops)
		checkPathModel(t, pb, wq, oneWay, ops)
		checkRBTModel(t, 1+int(wpqSel>>4), ops)
	})
}
