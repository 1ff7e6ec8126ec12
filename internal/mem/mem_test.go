package mem

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestPagedMemBasic(t *testing.T) {
	m := NewPagedMem()
	if m.Load(0x1234560) != 0 {
		t.Error("fresh memory should read 0")
	}
	m.Store(0x1234560, 42)
	if m.Load(0x1234560) != 42 {
		t.Error("store/load roundtrip failed")
	}
	m.Store(0x1234560, 0)
	if m.Load(0x1234560) != 0 {
		t.Error("overwrite with zero failed")
	}
}

func TestPagedMemQuickRoundtrip(t *testing.T) {
	f := func(addrs []int64, vals []int64) bool {
		m := NewPagedMem()
		ref := map[int64]int64{}
		for i, a := range addrs {
			a &= 0xFFFF_FFF8
			if a < 0 {
				a = -a
			}
			v := int64(i)
			if i < len(vals) {
				v = vals[i]
			}
			m.Store(a, v)
			ref[a&^7] = v
		}
		for a, v := range ref {
			if m.Load(a) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPagedMemCloneAndEqual(t *testing.T) {
	m := NewPagedMem()
	for i := int64(0); i < 1000; i++ {
		m.Store(i*8, i*i)
	}
	c := m.Clone()
	if !m.Equal(c) {
		t.Fatal("clone not equal")
	}
	c.Store(80, 999)
	if m.Equal(c) {
		t.Fatal("modified clone still equal")
	}
	if m.Load(80) == 999 {
		t.Fatal("clone shares storage")
	}
	d := m.Diff(c, 10)
	if len(d) != 1 || d[0] != 80 {
		t.Errorf("diff = %v, want [80]", d)
	}
}

func TestPagedMemZeroPageEqualsAbsent(t *testing.T) {
	a := NewPagedMem()
	b := NewPagedMem()
	a.Store(0x5000, 7)
	a.Store(0x5000, 0) // page exists, all zero
	if !a.Equal(b) {
		t.Error("zero-filled page should equal absent page")
	}
}

func TestCacheHitMiss(t *testing.T) {
	c := NewCache("l1", 1024, 2, 64) // 16 lines, 8 sets
	hit, _ := c.Access(0, false)
	if hit {
		t.Error("first access should miss")
	}
	hit, _ = c.Access(8, false) // same line
	if !hit {
		t.Error("same-line access should hit")
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Errorf("hits=%d misses=%d", c.Hits, c.Misses)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache("l1", 2*64*2, 2, 64) // 2 sets, 2 ways
	// Three lines mapping to the same set: 0, 2*64, 4*64 (set = line % 2).
	c.Access(0, true) // dirty
	c.Access(2*64, false)
	c.Access(0, false) // touch line 0 so line 2*64 is LRU
	_, ev := c.Access(4*64, false)
	if !ev.Valid || ev.Line != 2 || ev.Dirty {
		t.Errorf("eviction = %+v, want clean line 2", ev)
	}
	// Line 0 must still be present.
	if hit, _ := c.Access(0, false); !hit {
		t.Error("LRU evicted the wrong line")
	}
}

func TestCacheDirtyEviction(t *testing.T) {
	c := NewCache("l1", 2*64*2, 2, 64)
	c.Access(0, true)
	c.Access(2*64, true)
	_, ev := c.Access(4*64, false) // evicts line 0 (LRU)
	if !ev.Valid || !ev.Dirty {
		t.Errorf("expected dirty eviction, got %+v", ev)
	}
}

func TestCacheWorkingSetFits(t *testing.T) {
	// A working set equal to cache capacity must reach ~100% hits on the
	// second pass with LRU and power-of-two strides.
	c := NewCache("l1", 32*1024, 8, 64)
	for pass := 0; pass < 2; pass++ {
		for a := int64(0); a < 32*1024; a += 64 {
			c.Access(a, false)
		}
	}
	if c.Hits < 500 {
		t.Errorf("resident working set hits = %d", c.Hits)
	}
}

func TestDRAMCacheDirectMapped(t *testing.T) {
	d := NewDRAMCache(2*64, 64) // 2 sets
	if d.Access(0) {
		t.Error("cold miss expected")
	}
	if !d.Access(0) {
		t.Error("hit expected")
	}
	// Conflicting line (same set) displaces line 0.
	if d.Access(2 * 64) {
		t.Error("conflict miss expected")
	}
	if d.Access(0) {
		t.Error("line 0 must have been displaced")
	}
	if d.Access(64) || !d.Access(64) {
		t.Error("set 1: want miss then hit, independent of set 0")
	}
	if d.Hits != 2 || d.Misses != 4 {
		t.Errorf("hits=%d misses=%d, want 2/4", d.Hits, d.Misses)
	}
}

// TestDRAMCacheLazyChunks covers the chunked tag store: the first
// dramLazyChunks touched chunks are allocated alone, the next touch
// allocates every missing chunk at once, a non-power-of-two set count
// indexes by modulo into a short last chunk, and hit/miss behavior matches
// a flat direct-mapped cache throughout.
func TestDRAMCacheLazyChunks(t *testing.T) {
	const chunkSets = 1 << dramChunkShift
	nChunks := dramLazyChunks + 3
	sets := (nChunks-1)*chunkSets + 3 // not a power of two: short last chunk
	allocated := func(d *DRAMCache) (n, setsHeld int) {
		for _, c := range d.chunks {
			if c != nil {
				n++
				setsHeld += len(c)
			}
		}
		return n, setsHeld
	}

	d := NewDRAMCache(sets*64, 64)
	if len(d.chunks) != nChunks {
		t.Fatalf("%d chunks, want %d", len(d.chunks), nChunks)
	}
	if n, _ := allocated(d); n != 0 {
		t.Fatalf("%d chunks allocated before any access", n)
	}
	last := int64(sets-1) * 64
	if d.Access(last) || !d.Access(last) {
		t.Error("last set: want miss then hit")
	}
	if n, held := allocated(d); n != 1 || held != 3 {
		t.Errorf("%d chunks holding %d sets, want only the 3-set last chunk", n, held)
	}
	// Line sets-1+sets wraps to the same (last) set and displaces it.
	if d.Access(last + int64(sets)*64) {
		t.Error("wrapped conflict miss expected")
	}
	if d.Access(last) {
		t.Error("last set must have been displaced")
	}
	for k := 0; k < dramLazyChunks-1; k++ {
		d.Access(int64(k*chunkSets) * 64)
	}
	if n, _ := allocated(d); n != dramLazyChunks {
		t.Fatalf("%d chunks allocated after %d touched, want one each", n, dramLazyChunks)
	}
	d.Access(int64(dramLazyChunks*chunkSets) * 64)
	if n, held := allocated(d); n != nChunks || held != sets {
		t.Fatalf("%d chunks holding %d sets after the bulk fill, want %d holding %d", n, held, nChunks, sets)
	}
	if !d.Access(last) {
		t.Error("bulk fill must keep the lazily allocated chunks' tags")
	}

	// Reference model: a flat tag array over a deterministic address walk.
	d = NewDRAMCache(sets*64, 64)
	ref := make([]int64, sets)
	for i := int64(0); i < 100000; i++ {
		line := i * 7919 % 150001
		set := line % int64(sets)
		want := ref[set] == line+1
		ref[set] = line + 1
		if got := d.Access(line * 64); got != want {
			t.Fatalf("access %d (line %d): hit=%v, want %v", i, line, got, want)
		}
	}

	// A fully touched 8 MiB cache holds 2 bytes per set: its tags, plus
	// the lazily allocated chunks the bulk fill replaced. TotalAlloc is
	// process-wide, so other goroutines' allocations count against a
	// fill; the least of three fills is the one to bound.
	const bigSets = 8 << 20 / 64
	var fill uint64
	for rep := 0; rep < 3; rep++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d = NewDRAMCache(bigSets*64, 64)
		for set := int64(0); set < bigSets; set++ {
			d.Access(set * 64)
		}
		runtime.ReadMemStats(&after)
		if _, held := allocated(d); held != bigSets || unsafe.Sizeof(d.chunks[0][0]) != 2 {
			t.Errorf("%d sets held at %d bytes each, want %d at 2", held, unsafe.Sizeof(d.chunks[0][0]), bigSets)
		}
		if got := after.TotalAlloc - before.TotalAlloc; rep == 0 || got < fill {
			fill = got
		}
	}
	if want := uint64(2*bigSets + 2*dramLazyChunks*chunkSets + 4<<10); fill > want {
		t.Errorf("touching every set of an 8 MiB DRAM cache allocated %d bytes (least of 3 fills), want at most %d", fill, want)
	}
}

func TestWriteBufferOccupancyAndStall(t *testing.T) {
	w := NewWriteBuffer(2, 10)
	now := w.Insert(100, 0)
	if now != 100 {
		t.Errorf("insert into empty buffer should not stall, got %d", now)
	}
	now = w.Insert(100, 0)
	if now != 100 {
		t.Errorf("second insert should fit, got %d", now)
	}
	// Buffer full: third insert at 100 stalls until head drains at 110.
	now = w.Insert(100, 0)
	if now != 110 {
		t.Errorf("full buffer should stall to 110, got %d", now)
	}
	if w.FullStall != 10 {
		t.Errorf("FullStall = %d, want 10", w.FullStall)
	}
}

func TestWriteBufferPersistDelay(t *testing.T) {
	w := NewWriteBuffer(8, 5)
	w.Insert(10, 50) // persist path holds the line until cycle 50
	if w.Delayed != 1 {
		t.Errorf("Delayed = %d, want 1", w.Delayed)
	}
	if w.Occupancy(54) != 1 {
		t.Errorf("entry should still be draining at 54 (done at 55)")
	}
	if w.Occupancy(56) != 0 {
		t.Errorf("entry should be gone at 56")
	}
}

func TestWriteBufferAvgOccupancyLow(t *testing.T) {
	// Sparse inserts with fast drain: average occupancy near zero, like the
	// paper's Figure 6 (0.39 entries).
	w := NewWriteBuffer(32, 4)
	rng := rand.New(rand.NewSource(1))
	now := int64(0)
	for i := 0; i < 1000; i++ {
		now += int64(20 + rng.Intn(30))
		w.Insert(now, 0)
	}
	if got := w.AvgOccupancy(); got > 0.5 {
		t.Errorf("avg occupancy = %v, want < 0.5", got)
	}
}

// TestSpareListBounded: workers that each build a machine's structures
// from a spare, write them and release them, all at once, leave at most
// GOMAXPROCS spares on the list, and every structure built from a spare
// starts empty. Releases onto a full list keep it at GOMAXPROCS.
func TestSpareListBounded(t *testing.T) {
	for TakeSpare() != nil {
	}
	workers := runtime.GOMAXPROCS(0) + 3
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				sp := TakeSpare()
				c, d, img := sp.NewCache("l1d", 4<<10, 4, 64), sp.NewDRAMCache(1<<20, 64), sp.NewPagedMem()
				if hit, _ := c.Access(0, true); hit {
					t.Error("a cache built from a spare hit before any fill")
				}
				img.Store(8, 1) // page 0 comes from the spare, when it has one
				if img.Load(64) != 0 {
					t.Error("a page from a spare kept a word stored before")
				}
				for a := int64(0); a < 1<<20; a += 64 {
					if d.Access(a) {
						t.Error("a DRAM cache built from a spare hit before any fill")
						break
					}
					img.Store(a, a+1)
				}
				Release([]*Cache{c}, d, img, img)
			}
		}()
	}
	wg.Wait()
	kept := func() int {
		spares.Lock()
		defer spares.Unlock()
		return len(spares.list)
	}
	if n := kept(); n < 1 || n > runtime.GOMAXPROCS(0) {
		t.Errorf("%d spares kept after %d concurrent workers, want 1 to GOMAXPROCS (%d)", n, workers, runtime.GOMAXPROCS(0))
	}
	for i := 0; i < workers; i++ {
		Release([]*Cache{NewCache("l1d", 4<<10, 4, 64)}, nil, NewPagedMem())
	}
	if n := kept(); n != runtime.GOMAXPROCS(0) {
		t.Errorf("%d spares kept after %d more releases, want GOMAXPROCS (%d)", n, workers, runtime.GOMAXPROCS(0))
	}
	for TakeSpare() != nil {
	}
}
