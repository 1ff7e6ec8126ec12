package mem

// tagBias is xored into line tags and page keys so that none can equal
// the empty marker 0: a line (an address shifted right by at least one
// bit) or a page key agrees with its sign in bits 62 and 63, and the xor
// makes those two bits differ. A zeroed table therefore starts all-empty,
// with no sentinel fill pass, and no address — line −1 included — can
// match a never-filled entry.
const tagBias = 1 << 62

// Cache is a set-associative cache model with true-LRU replacement and
// per-line dirty bits. It models tags only (data lives in the functional
// memory image); the machine uses it purely for hit/miss/eviction
// decisions.
type Cache struct {
	name      string
	lineShift uint
	sets      int
	ways      int
	// setMask is sets-1 when sets is a power of two (index by mask, not
	// modulo), else -1.
	setMask int64
	wayBits uint // log2(ways)
	// tags[set*ways+way] is the way's line xor tagBias (0 empty) and
	// stamps[set*ways+way] its tick<<1 | dirty (0 empty). Ticks are
	// unique and rising, so comparing stamps orders a set's ways by
	// recency exactly as comparing ticks would.
	tags   []int64
	stamps []int64
	tick   int64
	// last is the way of the previous access and lastTag its tag (0,
	// the empty marker, before the first access). That line is resident
	// and its set's newest way, so a repeat of it needs no probe.
	last    int
	lastTag int64

	Hits      int64
	Misses    int64
	Evictions int64
}

// NewCache builds a cache of sizeBytes with the given associativity and
// line size (must be powers of two; sizeBytes divisible by ways*lineBytes).
func NewCache(name string, sizeBytes, ways, lineBytes int) *Cache {
	return newCache(name, sizeBytes, ways, lineBytes, nil)
}

// newCache is NewCache with its tag and stamp arrays from s (nil: new).
func newCache(name string, sizeBytes, ways, lineBytes int, s *Spare) *Cache {
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
		setMask:   setMask,
		wayBits:   log2(ways),
		tags:      s.ints(sets * ways),
		stamps:    s.ints(sets * ways),
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
	tag := line ^ tagBias
	var dirty int64
	if write {
		dirty = 1
	}
	if tag == c.lastTag {
		// Already its set's newest way: a fresh stamp would not reorder
		// the set, so only the dirty bit can change.
		c.stamps[c.last] |= dirty
		c.Hits++
		return true, Evicted{}
	}
	c.tick++
	base := c.set(line) * c.ways
	tags, stamps := c.tags[base:base+c.ways], c.stamps[base:base+c.ways]
	for w, t := range tags {
		if t == tag {
			stamps[w] = c.tick<<1 | stamps[w]&1 | dirty
			c.last, c.lastTag = base+w, tag
			c.Hits++
			return true, Evicted{}
		}
	}
	c.Misses++
	// Fill the first way with the oldest stamp: the first empty way
	// (stamp 0; a filled way's tick is at least 1) or the LRU victim.
	// The minimum of stamp<<wayBits | way picks it, taken without branches
	// (keys are non-negative, so the difference cannot overflow).
	wb, key := c.wayBits&63, int64(1<<63-1)
	for w, st := range stamps {
		d := (st<<wb | int64(w)) - key
		key += d & (d >> 63)
	}
	victim, oldest := int(key&(1<<wb-1)), key>>wb
	if oldest != 0 {
		ev = Evicted{Valid: true, Line: tags[victim] ^ tagBias, Dirty: oldest&1 != 0}
		c.Evictions++
	}
	tags[victim], stamps[victim] = tag, c.tick<<1|dirty
	c.last, c.lastTag = base+victim, tag
	return false, ev
}

// The DRAM cache's tags come in chunks of 1<<dramChunkShift sets (8 KiB).
// The first dramLazyChunks touched are allocated alone, so a machine that
// touches a few lines (a litmus machine touches two) never pays for the
// whole store; touching more allocates the rest at once, so a running
// machine's size, and the live heap the collector sees, stops tracking
// its progress.
const (
	dramChunkShift = 12
	dramLazyChunks = 2
)

// dramFar is the DRAM tag of a far line, whose quotient does not fit in
// a tag: the set's full line is kept in DRAMCache.far instead.
const dramFar = 0xFFFF

// DRAMCache is the direct-mapped DRAM cache (LLC) used in PMEM memory mode
// and the CXL configurations. Each set holds one uint16 tag: the line's
// quotient by the set count (its bits above the set index when the count
// is a power of two) plus one, 0 for empty. The set and the quotient
// determine the line, so equal tags mean equal lines. A line whose
// quotient is dramFar-1 or more — under the default geometry an address
// at or above 2^39, or a negative one — is far: its set's tag is dramFar
// and its full line sits in the far map. It keeps no dirty bits: WSP
// drops dirty victims (the persist path already carried the data).
type DRAMCache struct {
	lineShift uint
	sets      int
	setMask   int64      // sets-1 when sets is a power of two, else -1
	setShift  uint       // log2(sets) when setMask >= 0
	chunks    [][]uint16 // chunks[set>>dramChunkShift]; nil until allocated
	lazy      int        // chunks allocated one at a time so far
	// all is the array of every set once the bulk fill has made it;
	// before that, a spare array of that length for the fill, or nil.
	all []uint16
	// far maps each set that has held a far line to the last one, read
	// only while the set's tag is dramFar; nil until the first far fill.
	far map[int]int64

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
		setShift:  log2(sets),
		chunks:    make([][]uint16, (sets+1<<dramChunkShift-1)>>dramChunkShift),
	}
}

// Access performs an access, filling on miss, and returns the hit status.
func (d *DRAMCache) Access(addr int64) (hit bool) {
	line := uint64(addr >> d.lineShift)
	var set int
	var q uint64
	if d.setMask >= 0 {
		set, q = int(line&uint64(d.setMask)), line>>d.setShift
	} else {
		q = line / uint64(d.sets)
		set = int(line - q*uint64(d.sets))
	}
	chunk := d.chunks[set>>dramChunkShift]
	if chunk == nil {
		chunk = d.alloc(set >> dramChunkShift)
	}
	t := &chunk[set&(1<<dramChunkShift-1)]
	tag := uint16(dramFar)
	if q < dramFar-1 {
		tag = uint16(q + 1)
	}
	if *t == tag && (tag != dramFar || d.far[set] == int64(line)) {
		d.Hits++
		return true
	}
	d.Misses++
	if tag == dramFar {
		if d.far == nil {
			d.far = map[int]int64{}
		}
		d.far[set] = int64(line)
	}
	*t = tag
	return false
}

// alloc allocates tag chunk i: alone while fewer than dramLazyChunks
// have been, otherwise as part of one array holding every set (the
// spare one, cleared, when there is one).
func (d *DRAMCache) alloc(i int) []uint16 {
	if d.lazy < dramLazyChunks {
		d.lazy++
		d.chunks[i] = make([]uint16, min(1<<dramChunkShift, d.sets-i<<dramChunkShift))
		return d.chunks[i]
	}
	all := d.all
	if all == nil {
		all = make([]uint16, d.sets)
		d.all = all
	} else {
		clear(all)
	}
	for j, c := range d.chunks {
		lo := j << dramChunkShift
		d.chunks[j] = all[lo:min(lo+1<<dramChunkShift, d.sets)]
		copy(d.chunks[j], c)
	}
	return d.chunks[i]
}
