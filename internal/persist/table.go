package persist

import "math"

// addrTable is an open-addressed int64→int64 hash table that keeps its
// entries in link order, specialized for the WPQ's pending drains. It
// replaces the Go map the hot path used to hit on every admitted store and
// every NVM read.
//
// Faithfulness matters more than raw speed here: the WPQ's sweep trigger
// fires on the entry count, and a sweep's deletions are observable
// (another core can query an address the sweep dropped), so the table
// mirrors map semantics exactly — deletions are real (tombstoned) and
// `live` equals what len(map) would be after the same operation sequence.
//
// A doubly linked list threaded through the slots holds the link order: a
// put of an absent key appends it at the back, a put of a present key
// overwrites its value in place and marks the slot re-put, and del
// unlinks. Values are non-negative (drain cycles), so the mark is the
// sign: a re-put slot holds ^val. An unmarked slot's value is the one its
// key was linked at. Internal rebuilds drop only tombstones, never live
// entries, keep the order and the marks, and reuse a spare buffer so a
// steady-state rebuild allocates nothing.
type addrTable struct {
	slots []tslot
	spare []tslot // retained for same-size rebuilds (lazily sized)
	mask  uint64
	live  int // occupied, non-tombstone slots == len() of the mirrored map
	used  int // occupied slots including tombstones
	// head and tail are the first and last linked live slots (-1 when
	// empty).
	head, tail int32
}

type tslot struct {
	key, val   int64 // val < 0: ^val, the key was put again since it was linked
	prev, next int32 // link-order neighbours (-1 at either end)
}

const (
	tblEmpty = math.MinInt64     // no entry ever occupied this slot
	tblTomb  = math.MinInt64 + 1 // deleted entry; probes continue past it
)

func newAddrTable() *addrTable {
	t := &addrTable{slots: make([]tslot, 64)}
	t.reset()
	return t
}

// reset empties the current slot array.
func (t *addrTable) reset() {
	for i := range t.slots {
		t.slots[i].key = tblEmpty
	}
	t.mask = uint64(len(t.slots) - 1)
	t.live, t.used = 0, 0
	t.head, t.tail = -1, -1
}

func (t *addrTable) slot(key int64) uint64 {
	h := uint64(key) * 0x9E3779B97F4A7C15
	return (h ^ (h >> 29)) & t.mask
}

// get returns the value stored under key.
func (t *addrTable) get(key int64) (int64, bool) {
	i := t.slot(key)
	for {
		switch t.slots[i].key {
		case key:
			return max(t.slots[i].val, ^t.slots[i].val), true
		case tblEmpty:
			return 0, false
		}
		i = (i + 1) & t.mask
	}
}

// put inserts key with val >= 0, or overwrites it and marks it re-put.
func (t *addrTable) put(key, val int64) { t.store(key, val, ^val) }

// store inserts key with fresh, or overwrites it with again.
func (t *addrTable) store(key, fresh, again int64) {
	i := t.slot(key)
	ins := int32(-1)
	for {
		s := &t.slots[i]
		switch s.key {
		case key:
			s.val = again
			return
		case tblTomb:
			if ins < 0 {
				ins = int32(i)
			}
		case tblEmpty:
			if ins < 0 {
				ins = int32(i)
				t.used++
			}
			t.slots[ins].key, t.slots[ins].val = key, fresh
			t.linkBack(ins)
			t.live++
			if 4*t.used >= 3*len(t.slots) {
				t.rebuild()
			}
			return
		}
		i = (i + 1) & t.mask
	}
}

// del removes key (mirrors delete(map, key)).
func (t *addrTable) del(key int64) {
	i := t.slot(key)
	for {
		switch t.slots[i].key {
		case key:
			t.remove(int32(i))
			return
		case tblEmpty:
			return
		}
		i = (i + 1) & t.mask
	}
}

// popBelow deletes every entry whose value is <= limit. It walks the list
// from the front, stepping over re-put entries above limit, and stops at
// the first unmarked entry above limit. When values rise in link order
// and a re-put only raises a key's value, as drains do in a WPQ, every
// later entry was linked at a higher value and holds at least that, so
// this is exactly the map range-and-delete of every entry <= limit.
func (t *addrTable) popBelow(limit int64) {
	for i := t.head; i >= 0; {
		next, v := t.slots[i].next, t.slots[i].val
		if max(v, ^v) <= limit {
			t.remove(i)
		} else if v >= 0 {
			return // linked at v > limit; every later entry was linked above v
		}
		i = next
	}
}

func (t *addrTable) remove(i int32) {
	t.slots[i].key = tblTomb
	t.unlink(i)
	t.live--
}

func (t *addrTable) unlink(i int32) {
	s := &t.slots[i]
	if s.prev >= 0 {
		t.slots[s.prev].next = s.next
	} else {
		t.head = s.next
	}
	if s.next >= 0 {
		t.slots[s.next].prev = s.prev
	} else {
		t.tail = s.prev
	}
}

func (t *addrTable) linkBack(i int32) {
	t.slots[i].prev, t.slots[i].next = t.tail, -1
	if t.tail >= 0 {
		t.slots[t.tail].next = i
	} else {
		t.head = i
	}
	t.tail = i
}

// rebuild rehashes the live entries in link order, dropping tombstones.
// The size grows only when the live set genuinely needs it, and same-size
// rebuilds swap into the retained spare buffer, so a steady-state table
// never allocates.
func (t *addrTable) rebuild() {
	size := len(t.slots)
	for 4*t.live >= 3*(size/2) && size < 1<<30 {
		size *= 2
	}
	old, head := t.slots, t.head
	if size == len(t.spare) {
		t.slots = t.spare
	} else {
		t.slots = make([]tslot, size)
	}
	if len(old) == size {
		t.spare = old
	}
	t.reset()
	for i := head; i >= 0; i = old[i].next {
		t.store(old[i].key, old[i].val, old[i].val)
	}
}
