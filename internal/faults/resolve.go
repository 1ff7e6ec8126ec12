package faults

import (
	"sort"

	"cwsp/internal/sim"
)

// Injected records how one fault point resolved against a concrete machine
// at a concrete crash cycle — the campaign report's ground truth for what
// was actually corrupted.
type Injected struct {
	Kind  Kind  `json:"kind"`
	Crash int   `json:"crash"`
	// Index / Index2 are journal record indexes (torn-log, drop-wpq, and
	// the reorder-wpq pair); Addr is the victim word (corrupt-ckpt, and
	// informational for journal faults).
	Index  int    `json:"index,omitempty"`
	Index2 int    `json:"index2,omitempty"`
	Addr   int64  `json:"addr,omitempty"`
	XOR    uint64 `json:"xor,omitempty"`
	// Skipped marks a point with no eligible victim at this crash (e.g. a
	// torn-log fault when nothing was undo-logged yet).
	Skipped bool `json:"skipped,omitempty"`
}

// wpqTailWindow bounds drop/reorder eligibility to the most recently
// admitted entries per controller — battery-drain failures strike the tail
// the battery was still responsible for, not entries drained long ago.
const wpqTailWindow = 16

// Resolve translates the plan's points for one crash ordinal into concrete
// journal corruption against m's state at the crash cycle. The machine must
// already have run to the crash cycle (m.RunUntil(cycle)); Resolve only
// reads its journal and region log, never mutates. Resolution is
// deterministic: eligible victims are enumerated in a canonical order and
// each point picks by ordinal (Pick modulo the count).
func Resolve(p *Plan, crash int, m *sim.Machine, cycle int64) (*sim.CrashFaults, []Injected) {
	cf := &sim.CrashFaults{
		TornOld: map[int]uint64{},
		Drop:    map[int]bool{},
		CkptXOR: map[int64]uint64{},
	}
	var report []Injected

	retired := map[int64]bool{}
	for _, ri := range m.Regions {
		if ri.Retire <= cycle {
			retired[ri.Seq] = true
		}
	}

	// Eligibility sets, each in deterministic (journal / address) order.
	var tornable []int // logged records of unretired regions: rolled back at recovery
	type adm struct {
		idx int
		mc  int
		seq int64
	}
	admitted := make([]adm, 0, len(m.Journal)) // WPQ-admitted by the crash, in admission order per MC
	for i := 0; i < len(m.Journal); i++ {
		rec := &m.Journal[i]
		if rec.Logged && !retired[rec.Region] {
			tornable = append(tornable, i)
		}
		if rec.MCSeq > 0 && rec.Admit <= cycle {
			admitted = append(admitted, adm{i, rec.MC, rec.MCSeq})
		}
	}
	// Tail window per MC: the last wpqTailWindow admissions of each
	// controller, ordered (mc, seq). A counting pass sizes each
	// controller's list exactly.
	counts := make([]int, m.Cfg.NumMCs)
	for _, a := range admitted {
		counts[a.mc]++
	}
	perMC := make([][]adm, len(counts))
	for mc, n := range counts {
		perMC[mc] = make([]adm, 0, n)
	}
	for _, a := range admitted {
		perMC[a.mc] = append(perMC[a.mc], a)
	}
	var tail []adm
	for _, l := range perMC {
		sort.Slice(l, func(a, b int) bool { return l[a].seq < l[b].seq })
		if len(l) > wpqTailWindow {
			l = l[len(l)-wpqTailWindow:]
		}
		tail = append(tail, l...)
	}
	// Adjacent same-MC pairs in the tail (reorder victims). Same-address
	// pairs would be the juiciest, but adjacency alone keeps the set dense
	// enough and the ledger check flags either way.
	var pairs [][2]adm
	for k := 1; k < len(tail); k++ {
		if tail[k].mc == tail[k-1].mc && tail[k].seq == tail[k-1].seq+1 {
			pairs = append(pairs, [2]adm{tail[k-1], tail[k]})
		}
	}
	ckptAddrs := m.SealedCkptAddrs()

	for _, pt := range p.PointsAt(crash) {
		inj := Injected{Kind: pt.Kind, Crash: crash, XOR: pt.XOR}
		switch pt.Kind {
		case TornLog:
			if len(tornable) == 0 {
				inj.Skipped = true
				break
			}
			i := tornable[int(pt.Pick%int64(len(tornable)))]
			x := pt.XOR
			if x == 0 {
				x = 0xffffffff00000000 // torn 8-byte write: high half lost
			}
			cf.TornOld[i] = x
			inj.Index, inj.Addr, inj.XOR = i, m.Journal[i].Addr, x
		case DropWPQ:
			if len(tail) == 0 {
				inj.Skipped = true
				break
			}
			a := tail[int(pt.Pick%int64(len(tail)))]
			cf.Drop[a.idx] = true
			inj.Index, inj.Addr = a.idx, m.Journal[a.idx].Addr
		case ReorderWPQ:
			if len(pairs) == 0 {
				inj.Skipped = true
				break
			}
			pr := pairs[int(pt.Pick%int64(len(pairs)))]
			cf.Reorder = append(cf.Reorder, [2]int{pr[0].idx, pr[1].idx})
			inj.Index, inj.Index2, inj.Addr = pr[0].idx, pr[1].idx, m.Journal[pr[0].idx].Addr
		case CorruptCkpt:
			if len(ckptAddrs) == 0 {
				inj.Skipped = true
				break
			}
			addr := ckptAddrs[int(pt.Pick%int64(len(ckptAddrs)))]
			x := pt.XOR
			if x == 0 {
				x = 1
			}
			cf.CkptXOR[addr] ^= x
			if cf.CkptXOR[addr] == 0 { // two points cancelled; renudge
				cf.CkptXOR[addr] = x
			}
			inj.Addr, inj.XOR = addr, x
		default:
			inj.Skipped = true
		}
		report = append(report, inj)
	}
	return cf, report
}
