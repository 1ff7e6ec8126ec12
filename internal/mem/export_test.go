package mem

// NewestSpare reports, by address, what the newest spare on the list
// holds: the length of each cache array by its first word, the first word
// of the DRAM cache's array of every set (nil for none), and the pages.
// It leaves the list as it is.
func NewestSpare() (arrays map[*int64]int, dram *uint16, pages map[*[pageWords]int64]bool) {
	spares.Lock()
	defer spares.Unlock()
	if len(spares.list) == 0 {
		return nil, nil, nil
	}
	s := spares.list[len(spares.list)-1]
	arrays = map[*int64]int{}
	for _, a := range s.arrays {
		arrays[&a[0]] = len(a)
	}
	if len(s.dram) > 0 {
		dram = &s.dram[0]
	}
	pages = map[*[pageWords]int64]bool{}
	for _, p := range *s.pages {
		pages[p] = true
	}
	return arrays, dram, pages
}
