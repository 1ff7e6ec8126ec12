package mem

// Cache is a set-associative cache model with true-LRU replacement and
// per-line dirty bits. It models tags only (data lives in the functional
// memory image); the machine uses it purely for hit/miss/eviction
// decisions.
type Cache struct {
	name      string
	lineShift uint
	sets      int
	ways      int
	// tags[set*ways+way] = line tag (address >> lineShift) + 1, 0 empty.
	// The +1 bias makes a freshly zeroed slice all-empty, so construction
	// needs no sentinel fill pass.
	tags  []int64
	dirty []bool
	// lru[set*ways+way] = recency counter; higher = more recent.
	lru     []int64
	lruTick int64
	// setMask is sets-1 when sets is a power of two (index by mask, not
	// modulo), else -1.
	setMask int64
	// mru[set] is the way of the set's last hit or fill — a lookup-order
	// hint only (accesses revisit lines in bursts, so one predicted-way
	// probe usually replaces the full scan); stale hints just miss the
	// tag compare and fall back to the scan.
	mru []int32

	Hits      int64
	Misses    int64
	Evictions int64
}

// NewCache builds a cache of sizeBytes with the given associativity and
// line size (must be powers of two; sizeBytes divisible by ways*lineBytes).
func NewCache(name string, sizeBytes, ways, lineBytes int) *Cache {
	lines := sizeBytes / lineBytes
	sets := lines / ways
	if sets < 1 {
		sets = 1
	}
	setMask := int64(-1)
	if sets&(sets-1) == 0 {
		setMask = int64(sets - 1)
	}
	return &Cache{
		name:      name,
		lineShift: log2(lineBytes),
		sets:      sets,
		ways:      ways,
		tags:      make([]int64, sets*ways),
		dirty:     make([]bool, sets*ways),
		lru:       make([]int64, sets*ways),
		setMask:   setMask,
		mru:       make([]int32, sets),
	}
}

func log2(v int) uint {
	var s uint
	for (1 << s) < v {
		s++
	}
	return s
}

// Line returns the line tag of a byte address.
func (c *Cache) Line(addr int64) int64 { return addr >> c.lineShift }

func (c *Cache) set(line int64) int {
	if c.setMask >= 0 {
		return int(uint64(line) & uint64(c.setMask))
	}
	return int(uint64(line) % uint64(c.sets))
}

// Evicted describes a line displaced by a fill.
type Evicted struct {
	Valid bool
	Line  int64 // line tag
	Dirty bool
}

// Access performs a load (write=false) or store (write=true) of addr,
// filling on miss. It returns whether the access hit and any eviction the
// fill caused.
func (c *Cache) Access(addr int64, write bool) (hit bool, ev Evicted) {
	line := c.Line(addr)
	set := c.set(line)
	base := set * c.ways
	c.lruTick++
	tag := line + 1
	if w := base + int(c.mru[set]); c.tags[w] == tag {
		c.lru[w] = c.lruTick
		if write {
			c.dirty[w] = true
		}
		c.Hits++
		return true, Evicted{}
	}
	tags := c.tags[base : base+c.ways]
	for w, t := range tags {
		if t == tag {
			c.lru[base+w] = c.lruTick
			if write {
				c.dirty[base+w] = true
			}
			c.mru[set] = int32(w)
			c.Hits++
			return true, Evicted{}
		}
	}
	c.Misses++
	// Fill: choose an empty way or the LRU victim.
	victim := base
	lru := c.lru[base : base+c.ways]
	for w, t := range tags {
		if t == 0 {
			victim = base + w
			goto fill
		}
		if lru[w] < c.lru[victim] {
			victim = base + w
		}
	}
	if c.tags[victim] != 0 {
		ev = Evicted{Valid: true, Line: c.tags[victim] - 1, Dirty: c.dirty[victim]}
		c.Evictions++
	}
fill:
	c.tags[victim] = tag
	c.dirty[victim] = write
	c.lru[victim] = c.lruTick
	c.mru[set] = int32(victim - base)
	return false, ev
}

// The DRAM cache's tags come in chunks of 1<<dramChunkShift sets (32 KiB).
// The first dramLazyChunks touched are allocated alone, so a machine that
// touches a few lines (a litmus machine touches two) never pays for the
// whole store; touching more allocates the rest at once, so a running
// machine's size, and the live heap the collector sees, stops tracking
// its progress.
const (
	dramChunkShift = 12
	dramLazyChunks = 2
)

// DRAMCache is the direct-mapped DRAM cache (LLC) used in PMEM memory mode
// and the CXL configurations: one tag per set, with the same +1 bias as
// Cache (0 = empty). It keeps no dirty bits: WSP drops dirty victims (the
// persist path already carried the data).
type DRAMCache struct {
	lineShift uint
	sets      int
	setMask   int64     // sets-1 when sets is a power of two, else -1
	chunks    [][]int64 // chunks[set>>dramChunkShift]; nil until allocated
	lazy      int       // chunks allocated one at a time so far

	Hits   int64
	Misses int64
}

// NewDRAMCache builds a direct-mapped cache of sizeBytes.
func NewDRAMCache(sizeBytes, lineBytes int) *DRAMCache {
	sets := sizeBytes / lineBytes
	if sets < 1 {
		sets = 1
	}
	setMask := int64(-1)
	if sets&(sets-1) == 0 {
		setMask = int64(sets - 1)
	}
	return &DRAMCache{
		lineShift: log2(lineBytes),
		sets:      sets,
		setMask:   setMask,
		chunks:    make([][]int64, (sets+1<<dramChunkShift-1)>>dramChunkShift),
	}
}

// Access performs an access, filling on miss, and returns the hit status.
func (d *DRAMCache) Access(addr int64) (hit bool) {
	line := addr >> d.lineShift
	var set int
	if d.setMask >= 0 {
		set = int(uint64(line) & uint64(d.setMask))
	} else {
		set = int(uint64(line) % uint64(d.sets))
	}
	chunk := d.chunks[set>>dramChunkShift]
	if chunk == nil {
		chunk = d.alloc(set >> dramChunkShift)
	}
	tag := &chunk[set&(1<<dramChunkShift-1)]
	if *tag == line+1 {
		d.Hits++
		return true
	}
	d.Misses++
	*tag = line + 1
	return false
}

// alloc allocates tag chunk i: alone while fewer than dramLazyChunks
// have been, otherwise as part of one array holding every set.
func (d *DRAMCache) alloc(i int) []int64 {
	if d.lazy < dramLazyChunks {
		d.lazy++
		d.chunks[i] = make([]int64, min(1<<dramChunkShift, d.sets-i<<dramChunkShift))
		return d.chunks[i]
	}
	all := make([]int64, d.sets)
	for j, c := range d.chunks {
		lo := j << dramChunkShift
		d.chunks[j] = all[lo:min(lo+1<<dramChunkShift, d.sets)]
		copy(d.chunks[j], c)
	}
	return d.chunks[i]
}
