// Package mem provides the memory-system substrate of the cWSP machine
// model: a paged functional memory (the architectural and NVM images), a
// set-associative LRU cache model, a direct-mapped DRAM cache model, and
// the L1D write buffer whose drain the cWSP hardware delays to prevent the
// stale-read race (paper Section V-A1).
package mem

import "sort"

const (
	pageShift = 9 // 512 words (4 KiB) per page
	pageWords = 1 << pageShift
	pageMask  = pageWords - 1
)

// pcBits sizes the per-image page-lookup cache (1<<pcBits entries) that
// short-circuits the page map on the hot Load/Store paths.
const pcBits = 10

// pcEntry caches one page lookup: key is the page key xor tagBias (0 for
// an unused entry) and page its page, nil when the page is absent.
type pcEntry struct {
	key  int64
	page *[pageWords]int64
}

// PagedMem is a sparse, word-granularity memory image. Addresses are byte
// addresses; accesses are aligned 8-byte words. A page is allocated on the
// first nonzero write to it (an absent page reads 0, so a zero store into
// one is a no-op), so multi-megabyte footprints stay cheap; an image built
// from a Spare takes its pages from the spare, cleared, before the
// allocator. A direct-mapped cache of page lookups, indexed by a
// multiplicative hash of the page key so that the 4 MiB-aligned areas of
// the address map do not share an entry, keeps the simulator's hot
// load/store loops off the map hash. It remembers absent pages too (Store
// refreshes the entry when it allocates one), and it is transparent: the
// map remains the sole owner of every page.
//
// A PagedMem belongs to one goroutine at a time: Load as well as Store
// writes the page cache. Equal, Diff, EqualWhere, Digest, and Clone read
// only the page map, so concurrent goroutines may run those on an image
// nobody is writing; a goroutine that needs Load takes its own Clone.
type PagedMem struct {
	pages map[int64]*[pageWords]int64
	cache [1 << pcBits]pcEntry
	// free holds pages to reuse before allocating (nil for none), shared
	// by the images built from one Spare.
	free *[]*[pageWords]int64
}

// NewPagedMem returns an empty image.
func NewPagedMem() *PagedMem {
	return &PagedMem{pages: map[int64]*[pageWords]int64{}}
}

// entry returns the page-cache entry for key (Fibonacci hashing).
func (m *PagedMem) entry(key int64) *pcEntry {
	return &m.cache[uint64(key)*0x9E3779B97F4A7C15>>(64-pcBits)]
}

// page returns the resident page for key (nil when absent), consulting
// the page cache first and leaving key's lookup in it.
func (m *PagedMem) page(key int64) *[pageWords]int64 {
	e := m.entry(key)
	if e.key == key^tagBias {
		return e.page
	}
	if m.pages == nil {
		panic("mem: image used after Release handed its pages to a spare")
	}
	p := m.pages[key]
	e.key, e.page = key^tagBias, p
	return p
}

// Load reads the word at addr (0 if the page was never written).
func (m *PagedMem) Load(addr int64) int64 {
	w := addr >> 3
	p := m.page(w >> pageShift)
	if p == nil {
		return 0
	}
	return p[w&pageMask]
}

// Store writes the word at addr. A store of 0 into an absent page
// allocates nothing: the page already reads 0.
func (m *PagedMem) Store(addr, val int64) {
	w := addr >> 3
	key := w >> pageShift
	p := m.page(key)
	if p == nil {
		if val == 0 {
			return
		}
		p = m.newPage()
		m.pages[key] = p
		m.entry(key).page = p // page left key's entry in place
	}
	p[w&pageMask] = val
}

// newPage returns a zeroed page: a cleared spare page while any is left,
// else a new one.
func (m *PagedMem) newPage() *[pageWords]int64 {
	if m.free == nil || len(*m.free) == 0 {
		return new([pageWords]int64)
	}
	free := *m.free
	p := free[len(free)-1]
	*m.free = free[:len(free)-1]
	*p = [pageWords]int64{}
	return p
}

// Clone deep-copies the image.
func (m *PagedMem) Clone() *PagedMem {
	c := NewPagedMem()
	for k, p := range m.pages {
		np := *p
		c.pages[k] = &np
	}
	return c
}

// Equal reports whether two images hold identical contents (zero-filled
// pages compare equal to absent pages).
func (m *PagedMem) Equal(o *PagedMem) bool {
	return m.subsetEq(o) && o.subsetEq(m)
}

func (m *PagedMem) subsetEq(o *PagedMem) bool {
	for k, p := range m.pages {
		q := o.pages[k]
		if q == nil {
			for _, v := range p {
				if v != 0 {
					return false
				}
			}
			continue
		}
		if *p != *q {
			return false
		}
	}
	return true
}

// Diff returns up to max differing word addresses between m and o.
func (m *PagedMem) Diff(o *PagedMem, max int) []int64 {
	var out []int64
	seen := map[int64]bool{}
	collect := func(a, b *PagedMem) {
		for k, p := range a.pages {
			q := b.pages[k]
			for i, v := range p {
				var w int64
				if q != nil {
					w = q[i]
				}
				if v != w {
					addr := ((k << pageShift) | int64(i)) << 3
					if !seen[addr] {
						seen[addr] = true
						out = append(out, addr)
						if len(out) >= max {
							return
						}
					}
				}
			}
			if len(out) >= max {
				return
			}
		}
	}
	collect(m, o)
	if len(out) < max {
		collect(o, m)
	}
	return out
}

// EqualWhere reports whether the images agree on every word whose address
// satisfies keep.
func (m *PagedMem) EqualWhere(o *PagedMem, keep func(addr int64) bool) bool {
	check := func(a, b *PagedMem) bool {
		for k, p := range a.pages {
			q := b.pages[k]
			for i, v := range p {
				var w int64
				if q != nil {
					w = q[i]
				}
				if v != w {
					addr := ((k << pageShift) | int64(i)) << 3
					if keep(addr) {
						return false
					}
				}
			}
		}
		return true
	}
	return check(m, o) && check(o, m)
}

// Pages returns the number of resident pages: pages that some nonzero
// store has written, whatever they hold now (for footprint assertions).
func (m *PagedMem) Pages() int { return len(m.pages) }

// Digest returns a 64-bit FNV-1a digest of the image's logical contents.
// Pages are hashed in sorted key order and all-zero pages are skipped, so
// two images that compare Equal always digest identically regardless of
// their allocation histories.
func (m *PagedMem) Digest() uint64 {
	keys := make([]int64, 0, len(m.pages))
	for k := range m.pages {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })

	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	word := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	for _, k := range keys {
		p := m.pages[k]
		zero := true
		for _, v := range p {
			if v != 0 {
				zero = false
				break
			}
		}
		if zero {
			continue
		}
		word(uint64(k))
		for _, v := range p {
			word(uint64(v))
		}
	}
	return h
}
