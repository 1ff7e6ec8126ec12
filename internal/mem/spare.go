package mem

import (
	"runtime"
	"sync"
)

// Spare is the memory of one spent machine, held for the next machine to
// build on: its caches' tag and stamp arrays, its DRAM cache's array of
// every set, and its images' pages. A paper sweep builds hundreds of
// machines and keeps only their statistics, so without spares each one
// allocates (and the collector reclaims) a few hundred KiB. A nil *Spare
// is valid and builds everything fresh.
type Spare struct {
	arrays [][]int64
	dram   []uint16
	// pages is a separate allocation, so the images sharing it do not
	// keep the rest of the spare alive.
	pages *[]*[pageWords]int64
}

// spares is the process-wide spare list, holding at most GOMAXPROCS
// spares: one per worker that can be running a machine at once. Like a
// sync.Pool it is shared state, but bounded, and the collector does not
// empty it.
var spares struct {
	sync.Mutex
	list []*Spare
}

// TakeSpare removes the most recently released spare from the list and
// returns it, or nil when the list is empty.
func TakeSpare() *Spare {
	spares.Lock()
	defer spares.Unlock()
	n := len(spares.list)
	if n == 0 {
		return nil
	}
	s := spares.list[n-1]
	spares.list[n-1] = nil // the list must not keep a spare a machine now owns
	spares.list = spares.list[:n-1]
	return s
}

// Release hands a spent machine's memory to the spare list: the tag and
// stamp arrays of caches, d's array of every set (d may be nil), and the
// pages resident in images (an image may appear twice). Pages an image
// took from a spare and never used are dropped, so a spare holds one
// machine's memory and no more. When the list is full, the memory is left
// to the collector. Release leaves every structure it is given unusable:
// a Load or Store on a released image panics.
func Release(caches []*Cache, d *DRAMCache, images ...*PagedMem) {
	s := &Spare{pages: new([]*[pageWords]int64)}
	for _, c := range caches {
		s.arrays = append(s.arrays, c.tags, c.stamps)
		c.tags, c.stamps = nil, nil
	}
	if d != nil {
		s.dram = d.all
		d.all, d.chunks = nil, nil
	}
	for _, m := range images {
		if m.pages == nil {
			continue // the same image, already released
		}
		for _, p := range m.pages {
			*s.pages = append(*s.pages, p)
		}
		m.pages, m.free, m.cache = nil, nil, [1 << pcBits]pcEntry{}
	}
	spares.Lock()
	if len(spares.list) < runtime.GOMAXPROCS(0) {
		spares.list = append(spares.list, s)
	}
	spares.Unlock()
}

// ints returns a zeroed array of n words: a spare array of exactly that
// length when s holds one, else a new one.
func (s *Spare) ints(n int) []int64 {
	if s != nil {
		for i, a := range s.arrays {
			if len(a) == n {
				s.arrays[i] = s.arrays[len(s.arrays)-1]
				s.arrays = s.arrays[:len(s.arrays)-1]
				clear(a)
				return a
			}
		}
	}
	return make([]int64, n)
}

// NewCache builds a cache as the package's NewCache does, taking its tag
// and stamp arrays from s when s holds arrays of the right length.
func (s *Spare) NewCache(name string, sizeBytes, ways, lineBytes int) *Cache {
	return newCache(name, sizeBytes, ways, lineBytes, s)
}

// NewDRAMCache builds a DRAM cache as the package's NewDRAMCache does,
// keeping s's array of every set for the bulk fill when its length fits.
func (s *Spare) NewDRAMCache(sizeBytes, lineBytes int) *DRAMCache {
	d := NewDRAMCache(sizeBytes, lineBytes)
	if s != nil && len(s.dram) == d.sets {
		d.all, s.dram = s.dram, nil
	}
	return d
}

// NewPagedMem returns an empty image that takes its pages from s before
// the allocator. Every image built from one spare shares its pages.
func (s *Spare) NewPagedMem() *PagedMem {
	m := NewPagedMem()
	if s != nil {
		m.free = s.pages
	}
	return m
}
