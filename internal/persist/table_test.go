package persist

import (
	"math/rand"
	"slices"
	"testing"
)

// tableModel drives an addrTable and a plain map through the same
// operation sequence and asserts they stay indistinguishable — get on
// every touched key, live count, and link order: a key joins the back
// when it is put while absent, and a re-put keeps its place and marks
// it.
type tableModel struct {
	t      *testing.T
	tbl    *addrTable
	ref    map[int64]int64
	order  []int64         // live keys, first linked first
	linked map[int64]int64 // live key -> value it was linked at
	reput  map[int64]bool  // live keys put again since they were linked
	keys   map[int64]bool  // every key ever touched, for full-surface checks
	// steppedOver counts live entries a popBelow walked past: linked by
	// its limit but re-put above it.
	steppedOver int
}

func newTableModel(t *testing.T) *tableModel {
	return &tableModel{t: t, tbl: newAddrTable(), ref: map[int64]int64{},
		linked: map[int64]int64{}, reput: map[int64]bool{}, keys: map[int64]bool{}}
}

func (m *tableModel) drop(k int64) {
	for i, o := range m.order {
		if o == k {
			m.order = append(m.order[:i], m.order[i+1:]...)
			return
		}
	}
}

func (m *tableModel) put(k, v int64) {
	m.tbl.put(k, v)
	if _, ok := m.ref[k]; !ok {
		m.order = append(m.order, k)
		m.linked[k] = v
	} else {
		m.reput[k] = true
	}
	m.ref[k] = v
	m.keys[k] = true
}

func (m *tableModel) del(k int64) {
	m.tbl.del(k)
	delete(m.ref, k)
	delete(m.linked, k)
	delete(m.reput, k)
	m.drop(k)
	m.keys[k] = true
}

// popBelow mirrors the WPQ sweep: every entry <= limit goes. The model
// deletes by value, so the table's prefix walk must find them all.
func (m *tableModel) popBelow(limit int64) {
	m.tbl.popBelow(limit)
	for k, v := range m.ref {
		if v <= limit {
			delete(m.ref, k)
			delete(m.linked, k)
			delete(m.reput, k)
			m.drop(k)
		} else if m.linked[k] <= limit {
			m.steppedOver++
		}
	}
}

func (m *tableModel) check() {
	m.t.Helper()
	if m.tbl.live != len(m.ref) {
		m.t.Fatalf("live %d != len(map) %d", m.tbl.live, len(m.ref))
	}
	for k := range m.keys {
		got, ok := m.tbl.get(k)
		want, wok := m.ref[k]
		if ok != wok || (ok && got != want) {
			m.t.Fatalf("get(%d) = (%d,%v), map says (%d,%v)", k, got, ok, want, wok)
		}
	}
	var got []int64
	for i := m.tbl.head; i >= 0; i = m.tbl.slots[i].next {
		s := m.tbl.slots[i]
		got = append(got, s.key)
		if (s.val < 0) != m.reput[s.key] {
			m.t.Fatalf("key %d holds %d; re-put since linked: %v", s.key, s.val, m.reput[s.key])
		}
	}
	if !slices.Equal(got, m.order) {
		m.t.Fatalf("link order %v, want %v", got, m.order)
	}
}

// clusteredKey produces keys that collide heavily: a handful of 4 KiB-aligned
// bases (the tracked-address shape the WPQ actually sees) plus small offsets,
// so probe chains run long and rebuilds must preserve them.
func clusteredKey(rng *rand.Rand) int64 {
	base := int64(rng.Intn(4)) * 0x1000_0000
	return base + int64(rng.Intn(64))*0x1000
}

func TestAddrTableCollisionChainsAcrossRebuilds(t *testing.T) {
	m := newTableModel(t)
	rng := rand.New(rand.NewSource(1))
	// Interleave puts and deletes on clustered keys so tombstones pile up
	// inside probe chains; the 3/4 load trigger forces several rebuilds
	// (both growing and same-size tombstone-purging ones).
	for step := 0; step < 20000; step++ {
		k := clusteredKey(rng)
		switch rng.Intn(4) {
		case 0:
			m.del(k)
		default:
			m.put(k, int64(rng.Intn(1000)))
		}
		if step%997 == 0 {
			m.check()
		}
	}
	m.check()
	if len(m.tbl.slots) == 64 {
		t.Error("sequence never grew the table; collision pressure too low to mean anything")
	}
}

func TestAddrTableSpareBufferRebuildUnderDrainSortedPops(t *testing.T) {
	// The WPQ's steady state: admit a batch of fresh lines with ascending
	// drain times, then sweep them all from the front in drain order. The
	// live set stays small while tombstones accumulate, so every rebuild
	// is a same-size tombstone purge that must run out of the retained
	// spare buffer — zero allocations once warm. batch is kept under 3/8
	// of the initial table so the size never grows.
	m := newTableModel(t)
	cycle := int64(0)
	base := int64(0)
	const batch = 20
	warm := func(rounds int) {
		for round := 0; round < rounds; round++ {
			for i := 0; i < batch; i++ {
				cycle++
				m.put((base+int64(i))*0x1000, cycle) // fresh lines: tombstones pile up
			}
			base += batch
			m.check()
			m.popBelow(cycle - batch/2)
			m.check()
			m.popBelow(cycle)
			m.check()
		}
	}
	warm(50)
	if m.tbl.spare == nil {
		t.Fatal("steady-state churn never populated the spare buffer")
	}
	if len(m.tbl.spare) != len(m.tbl.slots) {
		t.Fatalf("spare size %d != table size %d; same-size swap impossible",
			len(m.tbl.spare), len(m.tbl.slots))
	}
	// Warm steady state must not allocate: every rebuild swaps buffers.
	allocs := testing.AllocsPerRun(20, func() {
		for i := 0; i < batch; i++ {
			cycle++
			m.tbl.put((base+int64(i))*0x1000, cycle)
		}
		m.tbl.popBelow(cycle)
		base += batch
	})
	if allocs > 0 {
		t.Errorf("steady-state churn allocates (%v allocs/op); spare-buffer swap not engaging", allocs)
	}
	// And correctness must survive the buffer swaps (the model cleared to
	// match: AllocsPerRun drove the raw table only, leaving it empty).
	m.ref, m.order, m.linked, m.reput = map[int64]int64{}, nil, map[int64]int64{}, map[int64]bool{}
	warm(50)
}

// TestAddrTableSweepStepsOverRePuts puts a small key set at rising drains,
// as a WPQ does, so most puts re-put a key linked long before. Sweep
// limits lie past those early links but below the keys' current drains:
// the walk must step over them, keep their place, and still delete every
// drained entry linked around them, across rebuilds.
func TestAddrTableSweepStepsOverRePuts(t *testing.T) {
	m := newTableModel(t)
	rng := rand.New(rand.NewSource(3))
	drain := int64(0)
	for step := 0; step < 20000; step++ {
		drain++
		if rng.Intn(8) == 0 {
			m.popBelow(drain - int64(rng.Intn(96)))
		} else {
			m.put(int64(rng.Intn(128))*0x1000, drain)
		}
		if step%499 == 0 {
			m.check()
		}
	}
	m.check()
	if m.steppedOver == 0 {
		t.Error("no sweep stepped over a re-put entry")
	}
}
