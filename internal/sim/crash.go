package sim

import (
	"fmt"
	"math"
	"sort"

	"cwsp/internal/mem"
)

// CrashState is what survives a power failure at a given cycle: the
// rolled-back NVM image and, per core, the oldest-unpersisted-region
// descriptor that recovery restarts from (paper Section VII).
type CrashState struct {
	Cycle    int64
	NVM      *mem.PagedMem
	Restarts []Restart

	// Seals is the checkpoint-area seal table (addr -> SealWord of the
	// correctly reconstructed content). NewResumed scrubs the recovered
	// image against it before executing a single instruction, so a
	// corrupted slot is reported instead of silently replayed into
	// registers. Hardware analogue: the MC writes per-slot checksums
	// transactionally with every checkpoint and undo write.
	Seals map[int64]uint64
}

// Restart is one core's recovery point.
type Restart struct {
	Core   int
	Done   bool // the core finished and every region persisted: nothing to do
	Region RegionInfo
}

// CrashAt runs the machine until the crash cycle, then performs the
// recovery protocol's NVM reconstruction:
//
//  1. persists that had not been admitted to a WPQ by the crash never
//     reached NVM — undone in reverse order;
//  2. undo logs of every unretired region (speculative stores and
//     checkpoint-area stores) roll back, newest first;
//  3. each core's restart point is its oldest region whose stores had not
//     all persisted.
//
// Requires Config.Recoverable.
func (m *Machine) CrashAt(cycle int64) (*CrashState, error) {
	return m.CrashAtFaults(cycle, nil)
}

// CrashAtFaults is CrashAt with adversarial hardware corruption injected at
// the power-failure instant (see internal/faults): torn undo-log records,
// dropped or reordered WPQ tail entries, and corrupted checkpoint-area
// words. Unless Config.Unsealed is set, the reconstruction validates every
// sealed structure it reads and returns a *CorruptionError naming the
// faulted record instead of a corrupted crash state; checkpoint-word
// corruption is detected later, by NewResumed's seal scrub.
func (m *Machine) CrashAtFaults(cycle int64, cf *CrashFaults) (*CrashState, error) {
	if !m.Cfg.Recoverable {
		return nil, fmt.Errorf("sim: CrashAt requires Config.Recoverable")
	}
	if err := m.RunUntil(cycle); err != nil {
		return nil, err
	}

	// Which regions had fully persisted by the crash?
	retired := map[int64]bool{}
	for _, ri := range m.Regions {
		if ri.Retire <= cycle {
			retired[ri.Seq] = true
		}
	}

	// Ground-truth reconstruction: what a fault-free power loss leaves.
	// The seal table is derived from it — hardware sealed every protected
	// write as it happened, before any fault could strike.
	clean := m.NVM.Clone()
	m.reconstruct(clean, cycle, retired, nil)
	cs := &CrashState{Cycle: cycle, NVM: clean, Seals: m.sealCkptArea(clean)}

	if !cf.Empty() {
		if !m.Cfg.Unsealed {
			if err := m.validateJournal(cycle, cf); err != nil {
				return nil, err
			}
		}
		faulty := m.NVM.Clone()
		m.reconstruct(faulty, cycle, retired, cf)
		// Apply checkpoint-word corruption in sorted address order: the final
		// image is order-independent (each word is XORed once), but the store
		// order must not inherit map iteration order — every observable side
		// effect of a crash has to be bit-reproducible across runs.
		xaddrs := make([]int64, 0, len(cf.CkptXOR))
		for addr := range cf.CkptXOR {
			xaddrs = append(xaddrs, addr)
		}
		sort.Slice(xaddrs, func(a, b int) bool { return xaddrs[a] < xaddrs[b] })
		for _, addr := range xaddrs {
			faulty.Store(addr, faulty.Load(addr)^int64(cf.CkptXOR[addr]))
		}
		cs.NVM = faulty
	}

	// Restart points: per core, the oldest (minimum-Seq) unretired region.
	// m.Regions is appended in open order, but per-core retire times need
	// not be monotone (battery-buffered schemes retire out of order, and a
	// descriptor log reordered by a caller must not change the answer), so
	// scan for the explicit minimum instead of trusting list order.
	for _, c := range m.cores {
		r := Restart{Core: c.id, Done: true}
		var oldest *RegionInfo
		for _, ri := range m.Regions {
			if ri.Core != c.id || ri.Retire <= cycle {
				continue
			}
			if oldest == nil || ri.Seq < oldest.Seq {
				oldest = ri
			}
		}
		if oldest != nil {
			r.Done = false
			r.Region = *oldest
		}
		if r.Done && !c.done {
			// The core was still executing but every *closed* region
			// persisted; its open region is the restart point.
			if c.cur != nil {
				r.Done = false
				r.Region = *c.cur.info
			}
		}
		cs.Restarts = append(cs.Restarts, r)
	}
	return cs, nil
}

// reconstruct rewinds img (a clone of the crash-instant NVM image) to the
// state recovery begins from, walking the journal newest-first: entries not
// admitted by the crash never reached media, and logged entries of
// unretired regions roll back via the MC undo logs. A non-nil cf overlays
// hardware faults without mutating the journal.
func (m *Machine) reconstruct(img *mem.PagedMem, cycle int64, retired map[int64]bool, cf *CrashFaults) {
	for i := len(m.Journal) - 1; i >= 0; i-- {
		rec := &m.Journal[i]
		old := rec.Old
		admitted := rec.Admit <= cycle
		if cf != nil {
			if x, ok := cf.TornOld[i]; ok {
				old ^= int64(x)
			}
			if cf.Drop[i] {
				admitted = false // the WPQ lied: the entry never drained
			}
		}
		if !admitted {
			img.Store(rec.Addr, old) // never reached NVM
			continue
		}
		if rec.Logged && !retired[rec.Region] {
			img.Store(rec.Addr, old) // rolled back via MC undo log
		}
	}
	if cf == nil {
		return
	}
	// Reordered drains: when both entries survived reconstruction and hit
	// the same word, the older value drains last and wins on media.
	for _, pr := range cf.Reorder {
		i, j := pr[0], pr[1]
		if i < 0 || j < 0 || i >= len(m.Journal) || j >= len(m.Journal) {
			continue
		}
		if j < i {
			i, j = j, i
		}
		ri, rj := &m.Journal[i], &m.Journal[j]
		if cf.Drop[i] || cf.Drop[j] || ri.Admit > cycle || rj.Admit > cycle {
			continue
		}
		if ri.Logged && !retired[ri.Region] || rj.Logged && !retired[rj.Region] {
			continue // rollback already erased the pair's effect
		}
		if ri.Addr == rj.Addr {
			img.Store(ri.Addr, ri.New)
		}
	}
}

// validateJournal performs the recovery-side integrity checks over the
// faulted journal view: per-record seals (torn undo-log writes) and the
// per-MC drain ledger (dropped or reordered WPQ tail entries; the ledger
// models the sequence-numbered drain journal the controller persists as
// entries reach media).
func (m *Machine) validateJournal(cycle int64, cf *CrashFaults) error {
	// Seal check on every record the reconstruction will read, in journal
	// order so the reported record is deterministic.
	torn := make([]int, 0, len(cf.TornOld))
	for i := range cf.TornOld {
		torn = append(torn, i)
	}
	sort.Ints(torn)
	for _, i := range torn {
		if i < 0 || i >= len(m.Journal) {
			continue
		}
		rec := m.Journal[i] // copy; apply the torn read
		rec.Old ^= int64(cf.TornOld[i])
		if sealRec(&rec) != m.Journal[i].Seal {
			return &CorruptionError{
				Kind: "undo-log", Addr: rec.Addr, Index: i,
				Detail: fmt.Sprintf("record content does not match its seal (old=%#x)", rec.Old),
			}
		}
	}

	// Drain-ledger cross-check: the journal's admitted MCSeq stream per
	// controller, versus the media-side drain order after faults.
	type ent struct {
		idx int
		seq int64
	}
	// A counting pass sizes each controller's list exactly.
	admitted := func(i int) bool { return m.Journal[i].MCSeq != 0 && m.Journal[i].Admit <= cycle }
	counts := make([]int, len(m.wpqs))
	maxCount := 0
	for i := range m.Journal {
		if admitted(i) {
			mc := m.Journal[i].MC
			counts[mc]++
			maxCount = max(maxCount, counts[mc])
		}
	}
	perMC := make([][]ent, len(counts))
	for mc, n := range counts {
		perMC[mc] = make([]ent, 0, n)
	}
	for i := range m.Journal {
		if admitted(i) {
			mc := m.Journal[i].MC
			perMC[mc] = append(perMC[mc], ent{i, m.Journal[i].MCSeq})
		}
	}
	ledger := make([]ent, 0, maxCount)
	for mc, expect := range perMC {
		sort.Slice(expect, func(a, b int) bool { return expect[a].seq < expect[b].seq })
		ledger = ledger[:0]
		for _, e := range expect {
			if !cf.Drop[e.idx] {
				ledger = append(ledger, e)
			}
		}
		for _, pr := range cf.Reorder {
			var a, b = -1, -1
			for k, e := range ledger {
				if e.idx == pr[0] {
					a = k
				}
				if e.idx == pr[1] {
					b = k
				}
			}
			if a >= 0 && b >= 0 {
				ledger[a], ledger[b] = ledger[b], ledger[a]
			}
		}
		if len(ledger) != len(expect) {
			missing := int64(-1)
			have := map[int64]bool{}
			for _, e := range ledger {
				have[e.seq] = true
			}
			for _, e := range expect {
				if !have[e.seq] {
					missing = e.seq
					break
				}
			}
			return &CorruptionError{
				Kind: "wpq-ledger", MC: mc, Seq: missing,
				Detail: fmt.Sprintf("%d admitted entries, %d drained", len(expect), len(ledger)),
			}
		}
		for k := range expect {
			if ledger[k].seq != expect[k].seq {
				return &CorruptionError{
					Kind: "wpq-ledger", MC: mc, Seq: expect[k].seq,
					Detail: fmt.Sprintf("drain order inverted (drained seq %d at position %d)", ledger[k].seq, k),
				}
			}
		}
	}
	return nil
}

// sealCkptArea seals every checkpoint-area word the journal touched,
// against its content in the correctly reconstructed image.
func (m *Machine) sealCkptArea(img *mem.PagedMem) map[int64]uint64 {
	seals := map[int64]uint64{}
	for i := range m.Journal {
		addr := m.Journal[i].Addr
		if IsCkptArea(addr) {
			if _, ok := seals[addr]; !ok {
				seals[addr] = SealWord(addr, img.Load(addr))
			}
		}
	}
	return seals
}

// SealedCkptAddrs returns the sorted checkpoint-area addresses the journal
// has touched so far — the slots a checkpoint-corruption fault can target
// (and exactly the set NewResumed scrubs).
func (m *Machine) SealedCkptAddrs() []int64 {
	seen := map[int64]bool{}
	var out []int64
	for i := range m.Journal {
		addr := m.Journal[i].Addr
		if IsCkptArea(addr) && !seen[addr] {
			seen[addr] = true
			out = append(out, addr)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// MaxRetire reports the latest region retirement time (useful to pick
// crash cycles that still have work in flight).
func (m *Machine) MaxRetire() int64 {
	var max int64
	for _, ri := range m.Regions {
		if ri.Retire != math.MaxInt64 && ri.Retire > max {
			max = ri.Retire
		}
	}
	return max
}
