package persist

import (
	"math/rand"
	"testing"
)

// The WPQ's pending table and the persist path's line times used to be
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
	stale   int // queries that collected a stale entry
	swept   int // entries a bulk sweep collected
	stalls  int64
	behind  int // reads behind the owner's last collection that found entries
	fresh   int // reads behind it that found the newest entry, recorded at that cycle, still queued
	// hidden counts queries the map answers 0 though the word's newest
	// admit drains after now: another core dropped the entry at a later
	// clock. A scan of the WPQ's admits would find it.
	hidden  int
	atDrain int // queries at exactly the drain of the word's newest admit
	deepest int // the most entries pending in the queried WPQ at a query
}

// checkWPQModel drives a WPQ's Admit/PendingUntil/Sweep with ops (three
// bytes per operation) against a map that is collected on a stale query
// and by a range-and-delete once it holds 4x the queue's capacity. Two
// cores issue the operations at their own clocks, so queries and sweeps
// arrive out of cycle order, and a core can query a word another core
// dropped at a later clock: the map then answers 0 though the word's
// newest admit is still pending, which is why such a WPQ keeps the table.
func checkWPQModel(t testing.TB, capacity int, ops []byte) (cov modelCover) {
	t.Helper()
	w := NewWPQ(capacity, 0.5) // 16 cycles per 8-byte entry: entries stay pending
	fifo := newFifoWPQ(capacity, 0.5)
	ref := map[int64]int64{}
	newest := map[int64]int64{} // word -> drain of its newest admit, never dropped
	var clock [2]int64
	for i := 0; i+2 < len(ops); i += 3 {
		op, a, d := ops[i], ops[i+1], ops[i+2]
		c := op & 1
		clock[c] += int64(d % 24)
		now := clock[c]
		addr := int64(a)*8 | int64(d>>5) // address 0 is never tracked; low bits are ignored
		switch (op >> 1) % 4 {
		case 0, 1:
			admit, drain := w.Admit(now+20, addr, 8+16*int(op>>7))
			if fa, fd := fifo.admit(now+20, 8+16*int(op>>7)); admit != fa || drain != fd {
				t.Fatalf("op %d: Admit = (%d, %d), queue says (%d, %d)", i/3, admit, drain, fa, fd)
			}
			if addr != 0 {
				ref[addr&^7] = drain
				newest[addr&^7] = drain
			}
		case 2:
			want := int64(0)
			if v, ok := ref[addr&^7]; ok {
				if v <= now {
					delete(ref, addr&^7)
					cov.stale++
				} else {
					want = v
					cov.pending++
				}
			} else if newest[addr&^7] > now {
				cov.hidden++
			}
			if got := w.PendingUntil(addr, now); got != want {
				t.Fatalf("op %d: PendingUntil(%#x, %d) = %d, map says %d", i/3, addr, now, got, want)
			}
		case 3:
			if got, want := w.Occupancy(now), fifo.occupancy(now); got != want {
				t.Fatalf("op %d: Occupancy(%d) = %d, queue says %d", i/3, now, got, want)
			}
			w.Sweep(now)
			if len(ref) >= 4*capacity {
				for k, v := range ref {
					if v <= now {
						delete(ref, k)
						cov.swept++
					}
				}
			}
		}
		if w.pending.live != len(ref) {
			t.Fatalf("op %d: %d pending entries, map holds %d", i/3, w.pending.live, len(ref))
		}
	}
	if w.FullWait != fifo.fullWait {
		t.Fatalf("FullWait %d, queue says %d", w.FullWait, fifo.fullWait)
	}
	cov.stalls = w.FullWait
	return cov
}

// checkOneCoreModel drives a Path feeding two one-core WPQs the way a
// one-core machine does, at one clock that only rises: stores send at it,
// and loads check the queried WPQ at it, stall to a hit's drain when the
// operation says so (as WPQDelay does), and sweep at the cycle they leave
// at. Each WPQ's PendingUntil must answer as the map the load check used
// to keep, collected as checkWPQModel collects it. The WPQs drain slowly
// enough to fill themselves and the PB. Some loads query a word at
// exactly its newest admit's drain, and addresses carry low bits.
func checkOneCoreModel(t testing.TB, pbSize, wpqSize int, oneWay int64, ops []byte) (cov modelCover) {
	t.Helper()
	p := NewPath(pbSize, 2.0, oneWay)
	wpqs := []*WPQ{NewOneCoreWPQ(wpqSize, 0.25, pbSize), NewOneCoreWPQ(wpqSize, 0.25, pbSize)}
	fifo := newFifoPath(pbSize, 2.0, oneWay)
	fifoWPQs := []*fifoWPQ{newFifoWPQ(wpqSize, 0.25), newFifoWPQ(wpqSize, 0.25)}
	refs := []map[int64]int64{{}, {}}
	newest := []map[int64]int64{{}, {}} // word -> drain of its newest admit
	drains := [][]int64{nil, nil}       // every admit's drain, oldest first
	clock, last, lastMC := int64(0), int64(0), 0
	for i := 0; i+2 < len(ops); i += 3 {
		op, a, d := ops[i], ops[i+1], ops[i+2]
		mc := int(op>>2) & 1
		addr := int64(a>>1)*64 + int64(d%8)*8 + int64(d>>3)&7
		switch op % 4 {
		case 0, 1:
			proceed, _ := p.Send(clock, addr, 8, wpqs[mc], int64(mc)*30, 16*int(op>>7))
			if fp, _ := fifo.send(clock, addr, 8, fifoWPQs[mc], int64(mc)*30, 16*int(op>>7)); proceed != fp {
				t.Fatalf("op %d: Send(%d) proceeds at %d, queue says %d", i/3, clock, proceed, fp)
			}
			drain := fifoWPQs[mc].lastDrain
			drains[mc] = append(drains[mc], drain)
			if addr != 0 {
				refs[mc][addr&^7] = drain
				newest[mc][addr&^7] = drain
			}
			clock = proceed + int64(d>>6)
			last, lastMC = addr, mc
		case 2, 3:
			clock += int64(d % 16)
			if a&1 == 0 {
				addr, mc = last&^7|int64(d>>4)&7, lastMC // a byte of the word stored last
			}
			key, ref := addr&^7, refs[mc]
			if v := newest[mc][key]; op%4 == 3 && v >= clock {
				clock = v
				cov.atDrain++
			}
			n := 0
			for j := len(drains[mc]) - 1; j >= 0 && drains[mc][j] > clock; j-- {
				n++
			}
			cov.deepest = max(cov.deepest, n)
			want := int64(0)
			if v, ok := ref[key]; ok {
				if v <= clock {
					delete(ref, key)
					cov.stale++
				} else {
					want = v
					cov.pending++
				}
			}
			if got := wpqs[mc].PendingUntil(addr, clock); got != want {
				t.Fatalf("op %d: WPQ %d PendingUntil(%#x, %d) = %d, map says %d", i/3, mc, addr, clock, got, want)
			}
			if want > 0 && op>>7 == 1 {
				clock = want
			}
			wpqs[mc].Sweep(clock)
			if len(ref) >= 4*wpqSize {
				for k, v := range ref {
					if v <= clock {
						delete(ref, k)
						cov.swept++
					}
				}
			}
		}
	}
	cov.stalls = p.PBStall
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
	wpqs := []*WPQ{NewWPQ(wpqSize, 0.25), NewWPQ(wpqSize, 0.25)}
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

func TestWPQPendingMatchesMapModel(t *testing.T) {
	for _, capacity := range modelWPQSizes {
		for seed := int64(0); seed < 8; seed++ {
			cov := checkWPQModel(t, capacity, modelOps(rand.New(rand.NewSource(seed)), 4000))
			if cov.pending == 0 || cov.stale == 0 || cov.swept == 0 || cov.hidden == 0 {
				t.Errorf("WPQ %d seed %d: sequence missed a rule: %+v", capacity, seed, cov)
			}
		}
	}
}

// TestOneCoreWPQMatchesMapModel also requires the sequences to fill the
// PB, up to 50 entries (the loads' stalls let the media catch up before
// 288 fill), and to reach the bound the one-core scan rests on, WPQ size
// + PB size entries pending at once, at the PB sizes where bursts of
// sends fill the PB with entries for one WPQ.
func TestOneCoreWPQMatchesMapModel(t *testing.T) {
	for _, pb := range modelPBSizes {
		for _, wq := range modelWPQSizes {
			deepest := 0
			for seed := int64(0); seed < 4; seed++ {
				cov := checkOneCoreModel(t, pb, wq, modelOneWay(seed), modelOps(rand.New(rand.NewSource(seed)), 4000))
				if cov.pending == 0 || cov.stale == 0 || cov.swept == 0 || cov.atDrain == 0 || pb <= 50 && cov.stalls == 0 {
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
		checkWPQModel(t, wq, ops)
		pb, oneWay := modelPBSizes[int(pbSel)%len(modelPBSizes)], modelOneWay(int64(pbSel>>4))
		checkPathModel(t, pb, wq, oneWay, ops)
		checkOneCoreModel(t, pb, wq, oneWay, ops)
		checkRBTModel(t, 1+int(wpqSel>>4), ops)
	})
}
