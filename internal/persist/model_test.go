package persist

import (
	"math/rand"
	"testing"
)

// The WPQ's pending table and the persist path's line times used to be
// plain maps with collection rules of their own. Those maps are the
// specification the current structures are held to here: every query
// must answer as the map would, under operation sequences shaped like
// the machine's (several cores at their own clocks, NUMA-skewed admits,
// PB-full stalls).

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
}

// checkWPQModel drives a WPQ's Admit/PendingUntil/Sweep with ops (three
// bytes per operation) against a map that is collected on a stale query
// and by a range-and-delete once it holds 4x the queue's capacity. Two
// cores issue the operations at their own clocks, so queries and sweeps
// arrive out of cycle order.
func checkWPQModel(t testing.TB, capacity int, ops []byte) (cov modelCover) {
	t.Helper()
	w := NewWPQ(capacity, 0.5) // 16 cycles per 8-byte entry: entries stay pending
	ref := map[int64]int64{}
	var clock [2]int64
	for i := 0; i+2 < len(ops); i += 3 {
		op, a, d := ops[i], ops[i+1], ops[i+2]
		c := op & 1
		clock[c] += int64(d % 24)
		now := clock[c]
		addr := int64(a)*8 | int64(d>>5) // address 0 is never tracked; low bits are ignored
		switch (op >> 1) % 4 {
		case 0, 1:
			_, drain := w.Admit(now+20, addr, 8+16*int(op>>7))
			if addr != 0 {
				ref[addr&^7] = drain
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
			}
			if got := w.PendingUntil(addr, now); got != want {
				t.Fatalf("op %d: PendingUntil(%#x, %d) = %d, map says %d", i/3, addr, now, got, want)
			}
		case 3:
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
	return cov
}

// checkPathModel drives a Path's Send/LinePersistTime with ops against
// the per-line map the path used to keep: each send raises its line's
// time to the entry's admit, a query at or past that time deletes it, and
// a send that leaves more than 8*PBSize lines deletes every line
// persisted by its commit. One core owns the path, so its clock only
// rises; the telemetry sampler collects the PB at or behind that clock.
// Sends go to two WPQs, the second 30 cycles further away, so admits
// are not monotone, and the WPQs drain slowly enough to fill the PB.
func checkPathModel(t testing.TB, pbSize, wpqSize int, ops []byte) (cov modelCover) {
	t.Helper()
	p := NewPath(pbSize, 2.0, 20)
	wpqs := []*WPQ{NewWPQ(wpqSize, 0.25), NewWPQ(wpqSize, 0.25)}
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
		case 3:
			if n := p.Occupancy(clock - int64(d)); n > pbSize {
				t.Fatalf("op %d: PB holds %d entries, capacity %d", i/3, n, pbSize)
			}
		}
	}
	cov.stalls = p.PBStall
	return cov
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
			if cov.pending == 0 || cov.stale == 0 || cov.swept == 0 {
				t.Errorf("WPQ %d seed %d: sequence missed a rule: %+v", capacity, seed, cov)
			}
		}
	}
}

func TestPathLineTimesMatchMapModel(t *testing.T) {
	for _, pb := range modelPBSizes {
		for _, wq := range modelWPQSizes {
			for seed := int64(0); seed < 4; seed++ {
				cov := checkPathModel(t, pb, wq, modelOps(rand.New(rand.NewSource(seed)), 4000))
				if cov.pending == 0 || cov.stale == 0 || cov.stalls == 0 || pb <= 4 && cov.swept == 0 {
					t.Errorf("PB %d / WPQ %d seed %d: sequence missed a rule: %+v", pb, wq, seed, cov)
				}
			}
		}
	}
}

// FuzzPersistModels runs both model checks over fuzzed operation
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
		checkPathModel(t, modelPBSizes[int(pbSel)%len(modelPBSizes)], wq, ops)
	})
}
