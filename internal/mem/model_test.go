package mem

import (
	"math"
	"math/rand"
	"testing"
)

// refCache is the reference cache model: parallel tag, dirty and recency
// arrays and a full probe on every access. Its tags are raw lines and a
// way is empty while its recency is 0 (ticks start at 1), so no line can
// hit an empty way.
type refCache struct {
	lineShift  uint
	sets, ways int
	tags       []int64
	dirty      []bool
	lru        []int64
	tick       int64

	hits, misses, evictions int64
}

func newRefCache(sizeBytes, ways, lineBytes int) *refCache {
	sets := max(sizeBytes/lineBytes/ways, 1)
	return &refCache{
		lineShift: log2(lineBytes),
		sets:      sets,
		ways:      ways,
		tags:      make([]int64, sets*ways),
		dirty:     make([]bool, sets*ways),
		lru:       make([]int64, sets*ways),
	}
}

func (c *refCache) access(addr int64, write bool) (hit bool, ev Evicted) {
	line := addr >> c.lineShift
	base := int(uint64(line)%uint64(c.sets)) * c.ways
	c.tick++
	for w := base; w < base+c.ways; w++ {
		if c.lru[w] != 0 && c.tags[w] == line {
			c.lru[w] = c.tick
			c.dirty[w] = c.dirty[w] || write
			c.hits++
			return true, Evicted{}
		}
	}
	c.misses++
	victim := base
	for w := base; w < base+c.ways; w++ {
		if c.lru[w] == 0 {
			victim = w
			break
		}
		if c.lru[w] < c.lru[victim] {
			victim = w
		}
	}
	if c.lru[victim] != 0 {
		ev = Evicted{Valid: true, Line: c.tags[victim], Dirty: c.dirty[victim]}
		c.evictions++
	}
	c.tags[victim], c.dirty[victim], c.lru[victim] = line, write, c.tick
	return false, ev
}

// refDRAM is a direct-mapped cache holding each set's full line.
type refDRAM struct {
	lineShift    uint
	lines        []int64
	valid        []bool
	hits, misses int64
}

func newRefDRAM(sizeBytes, lineBytes int) *refDRAM {
	sets := max(sizeBytes/lineBytes, 1)
	return &refDRAM{lineShift: log2(lineBytes), lines: make([]int64, sets), valid: make([]bool, sets)}
}

func (d *refDRAM) access(addr int64) bool {
	line := addr >> d.lineShift
	set := uint64(line) % uint64(len(d.lines))
	if d.valid[set] && d.lines[set] == line {
		d.hits++
		return true
	}
	d.misses++
	d.lines[set], d.valid[set] = line, true
	return false
}

// farLines are lines at the edges of the DRAM tag range for the set
// counts the tests use (quotients 0xFFFD, 0xFFFE and 0xFFFF for 16, 5
// and 1<<17 sets), lines of addresses at and above 2^39, and negative
// and extreme lines.
var farLines = []int64{
	0xFFFD * 16, 0xFFFE * 16, 0xFFFF * 16,
	0xFFFD * 5, 0xFFFE*5 + 3, 0xFFFF*5 + 1,
	0xFFFD << 17, 0xFFFE << 17, 0xFFFF << 17,
	1 << 33, 1<<33 + 1<<17, -1, -2, -(1 << 17), -(1 << 40),
	math.MaxInt64 >> 6, math.MinInt64 >> 6,
}

// collidingPages are page keys with equal low 8 bits, which an index by
// those bits would put in one entry: the pages of the sim address map's
// BrkAddr, HeapBase, StackBase, CkptBase and EmitBase, and a negative key.
var collidingPages = []int64{0x8000, 0x10000, 0x40000, 0x60000, 0x78000, -256}

// memOp decodes one access from three bytes: sel picks the address class
// (a repeat of the previous address, a small pool of lines dense enough
// to evict, a far line, or a line of addresses −64…−1) and bit 2 of sel
// makes it a write.
func memOp(sel, x, y byte, prev int64) (addr int64, write bool) {
	off := int64(y & 63)
	switch sel & 3 {
	case 0:
		addr = prev&^63 | off
	case 1:
		addr = int64(x%48)<<6 | off
	case 2:
		addr = farLines[int(x)%len(farLines)]<<6 | off
	default:
		addr = -64 + int64(x%64)
	}
	return addr, sel&4 != 0
}

// cacheGeoms are (size, ways, line bytes): a small power-of-two set
// count, a non-power-of-two one, direct-mapped, fully associative, and
// the default L1D.
var cacheGeoms = [][3]int{{1024, 2, 64}, {3 * 4 * 64, 4, 64}, {4 * 64, 1, 64}, {4 * 64, 4, 64}, {32 << 10, 8, 64}}

// dramGeoms are DRAM set counts: power of two, not, and the default
// 8 MiB cache's 1<<17.
var dramGeoms = []int{16, 5, 1 << 17}

// memModels drives every model over one op stream (three bytes per op)
// and fails at the first access whose outcome differs from its reference.
type memModels struct {
	caches    []*Cache
	refCaches []*refCache
	drams     []*DRAMCache
	refDRAMs  []*refDRAM
	prev      int64
}

func newMemModels(cacheG [][3]int, dramG []int) *memModels {
	mm := &memModels{}
	for _, g := range cacheG {
		mm.caches = append(mm.caches, NewCache("t", g[0], g[1], g[2]))
		mm.refCaches = append(mm.refCaches, newRefCache(g[0], g[1], g[2]))
	}
	for _, sets := range dramG {
		mm.drams = append(mm.drams, NewDRAMCache(sets*64, 64))
		mm.refDRAMs = append(mm.refDRAMs, newRefDRAM(sets*64, 64))
	}
	return mm
}

func (mm *memModels) step(t testing.TB, i int, sel, x, y byte) {
	t.Helper()
	addr, write := memOp(sel, x, y, mm.prev)
	mm.prev = addr
	for g, c := range mm.caches {
		r := mm.refCaches[g]
		hit, ev := c.Access(addr, write)
		wantHit, wantEv := r.access(addr, write)
		if hit != wantHit || ev != wantEv {
			t.Fatalf("op %d cache %v: Access(%#x, %v) = %v %+v, want %v %+v",
				i, cacheGeoms[g], addr, write, hit, ev, wantHit, wantEv)
		}
		if c.Hits != r.hits || c.Misses != r.misses || c.Evictions != r.evictions {
			t.Fatalf("op %d cache %v: counters %d/%d/%d, want %d/%d/%d", i, cacheGeoms[g],
				c.Hits, c.Misses, c.Evictions, r.hits, r.misses, r.evictions)
		}
	}
	for g, d := range mm.drams {
		r := mm.refDRAMs[g]
		if hit, want := d.Access(addr), r.access(addr); hit != want || d.Hits != r.hits || d.Misses != r.misses {
			t.Fatalf("op %d DRAM %d sets: Access(%#x) = %v (hits %d misses %d), want %v (%d, %d)",
				i, d.sets, addr, hit, d.Hits, d.Misses, want, r.hits, r.misses)
		}
	}
}

// randomOps returns n ops' worth of bytes, one op in four a repeat.
func randomOps(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, 3*n)
	rng.Read(b)
	return b
}

// TestCacheMatchesThreeArrayModel drives Cache against the three-array
// model it replaced on random streams of reads, writes, repeats of the
// previous line (sometimes a write after reads, so the repeat path must
// set the dirty bit), evicting conflicts, far and negative lines, on
// power-of-two and other set counts. Hit, eviction (line and dirty bit)
// and the counters must match on every access.
func TestCacheMatchesThreeArrayModel(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		mm := newMemModels(cacheGeoms, nil)
		ops := randomOps(seed, 20000)
		for i := 0; i+2 < len(ops); i += 3 {
			mm.step(t, i/3, ops[i], ops[i+1], ops[i+2])
		}
		for g, c := range mm.caches {
			if c.Evictions == 0 || c.Hits == 0 {
				t.Errorf("seed %d cache %v: %d hits, %d evictions; the stream must exercise both",
					seed, cacheGeoms[g], c.Hits, c.Evictions)
			}
		}
	}
}

// TestDRAMCacheMatchesFullTagModel drives DRAMCache against a full-line
// tag model, with lines on both sides of the 16-bit tag range, addresses
// at and above 2^39, negative addresses, and a non-power-of-two set count.
func TestDRAMCacheMatchesFullTagModel(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		mm := newMemModels(nil, dramGeoms)
		ops := randomOps(seed, 20000)
		for i := 0; i+2 < len(ops); i += 3 {
			mm.step(t, i/3, ops[i], ops[i+1], ops[i+2])
		}
		for _, d := range mm.drams {
			if len(d.far) == 0 {
				t.Errorf("seed %d, %d sets: no far line was filled", seed, d.sets)
			}
		}
	}
}

// TestNegativeLineMissesCold: line −1 (addresses −64…−1) must miss on a
// cold L1D, L2 and DRAM cache and hit only once filled; a tag encoding
// that maps it to the empty marker makes it hit never-filled ways.
func TestNegativeLineMissesCold(t *testing.T) {
	for addr := int64(-64); addr < 0; addr++ {
		for _, c := range []*Cache{NewCache("l1d", 32<<10, 8, 64), NewCache("l2", 1<<20, 16, 64)} {
			if hit, ev := c.Access(addr, false); hit || ev.Valid {
				t.Fatalf("%s: cold access to %d: hit=%v ev=%+v, want a plain miss", c.name, addr, hit, ev)
			}
			if hit, _ := c.Access(addr, false); !hit {
				t.Fatalf("%s: second access to %d missed", c.name, addr)
			}
		}
		d := NewDRAMCache(8<<20, 64)
		if d.Access(addr) || !d.Access(addr) {
			t.Fatalf("DRAM cache: access to %d: want a cold miss, then a hit", addr)
		}
	}
}

// pagedModel is a PagedMem beside the word map it must agree with, the
// set of pages a nonzero store has written, which must be exactly the
// image's resident pages, and the address of the image's last store.
type pagedModel struct {
	m     *PagedMem
	ref   map[int64]int64
	pages map[int64]bool
	last  int64
}

// runPagedOps drives a few images against word maps over an op stream:
// loads and stores on colliding pages and their neighbours, absent-page
// loads followed by stores, stores of 0 (half of all stores: into absent
// and present pages, and over the image's last store), and Clones that
// must stay independent of their source afterwards. After every store
// the image must hold exactly the pages a nonzero store has written, so
// a store of 0 into an absent page adds none.
func runPagedOps(t testing.TB, ops []byte) {
	t.Helper()
	imgs := []pagedModel{{NewPagedMem(), map[int64]int64{}, map[int64]bool{}, 0}}
	for i := 0; i+2 < len(ops); i += 3 {
		sel, x, y := ops[i], ops[i+1], ops[i+2]
		img := &imgs[int(x)%len(imgs)]
		key := collidingPages[int(y)%len(collidingPages)] + int64(sel>>6)
		addr := (key<<pageShift | int64(x)) << 3
		switch sel & 3 {
		case 0, 1:
			if got := img.m.Load(addr); got != img.ref[addr] {
				t.Fatalf("op %d: Load(%#x) = %d, want %d", i/3, addr, got, img.ref[addr])
			}
		case 2:
			v := int64(i) + 1
			if sel&4 != 0 {
				v = 0
				if sel&8 != 0 {
					addr = img.last
				}
			}
			img.m.Store(addr, v)
			img.ref[addr], img.last = v, addr
			if v != 0 {
				img.pages[addr>>3>>pageShift] = true
			}
			if got, want := img.m.Pages(), len(img.pages); got != want {
				t.Fatalf("op %d: Store(%#x, %d) left %d pages, want %d", i/3, addr, v, got, want)
			}
		default:
			if len(imgs) < 4 {
				ref := make(map[int64]int64, len(img.ref))
				for a, v := range img.ref {
					ref[a] = v
				}
				pages := make(map[int64]bool, len(img.pages))
				for k := range img.pages {
					pages[k] = true
				}
				imgs = append(imgs, pagedModel{img.m.Clone(), ref, pages, img.last})
			}
		}
	}
	for n, img := range imgs {
		for a, v := range img.ref {
			if got := img.m.Load(a); got != v {
				t.Fatalf("image %d: Load(%#x) = %d at the end, want %d", n, a, got, v)
			}
		}
	}
}

// TestPagedMemMatchesMapModel drives PagedMem against a word map, after
// checking that the page cache's hash gives each colliding page its own
// entry.
func TestPagedMemMatchesMapModel(t *testing.T) {
	m, seen := NewPagedMem(), map[*pcEntry]int64{}
	for _, key := range collidingPages {
		e := m.entry(key)
		if other, ok := seen[e]; ok {
			t.Errorf("pages %#x and %#x share a page-cache entry", key, other)
		}
		seen[e] = key
	}
	for seed := int64(1); seed <= 4; seed++ {
		runPagedOps(t, randomOps(seed, 20000))
	}
}

// FuzzMemModels fuzzes the cache, DRAM cache, page-image and write
// buffer models against their references over one op stream.
func FuzzMemModels(f *testing.F) {
	f.Add(randomOps(1, 200))
	f.Add([]byte{3, 63, 0, 4, 0, 0, 2, 0, 0, 6, 1, 0, 3, 7, 9, 2, 5, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 3*4096 {
			ops = ops[:3*4096]
		}
		mm := newMemModels(cacheGeoms[:4], dramGeoms[:2])
		for i := 0; i+2 < len(ops); i += 3 {
			mm.step(t, i/3, ops[i], ops[i+1], ops[i+2])
		}
		runPagedOps(t, ops)
		for _, g := range wbGeoms {
			checkWBModel(t, g[0], int64(g[1]), ops)
		}
	})
}
