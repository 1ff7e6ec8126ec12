package sim

import (
	"fmt"
	"sort"

	"cwsp/internal/ir"
)

// NewResumed builds a machine that continues execution from a crash state:
// the paper's recovery protocol (Section VII). For every core it
//
//  1. rebuilds the call stack by walking the persisted frame records on
//     the NVM stack,
//  2. replays the restart region's recovery slice against the NVM
//     checkpoint slots to restore its live-in registers, and
//  3. resumes execution at the region's boundary instruction.
//
// The specs must match the original machine's thread placement (they are
// needed only for arity checks; argument values are recovered from NVM).
func NewResumed(prog *ir.Program, cfg Config, sch Scheme, specs []ThreadSpec, cs *CrashState) (*Machine, error) {
	m, err := NewThreaded(prog, cfg, sch, specs)
	if err != nil {
		return nil, err
	}
	// Replace the fresh memory with the recovered NVM image. Caches start
	// cold; architectural memory = NVM after a power cycle.
	m.setImages(cs.NVM.Clone(), cs.NVM.Clone)

	// Scrub the checkpoint area against the crash state's seal table before
	// executing anything: a corrupted slot must surface as a typed error,
	// not as silently wrong register state. (Config.Unsealed disables the
	// scrub — the negative control the torture harness uses.)
	if len(cs.Seals) > 0 && !cfg.Unsealed {
		addrs := make([]int64, 0, len(cs.Seals))
		for a := range cs.Seals {
			addrs = append(addrs, a)
		}
		sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
		for _, a := range addrs {
			if SealWord(a, m.NVM.Load(a)) != cs.Seals[a] {
				return nil, &CorruptionError{
					Kind: "ckpt-slot", Addr: a, Index: -1,
					Detail: fmt.Sprintf("recovered content %#x does not match its seal", m.NVM.Load(a)),
				}
			}
		}
	}

	// The machine begins a fresh recovery epoch: drop the bootstrap region
	// descriptors NewThreaded opened (rebuildCore re-opens the real restart
	// regions) so a nested crash of this resumed machine scans only its own
	// epoch's descriptor log and journal.
	m.Regions = m.Regions[:0]
	m.regionSeq = 0

	for i, r := range cs.Restarts {
		if i >= len(m.cores) {
			break
		}
		c := m.cores[i]
		if r.Done {
			c.done = true
			c.frames = nil
			c.cur = nil
			continue
		}
		if err := m.rebuildCore(c, r.Region); err != nil {
			return nil, fmt.Errorf("sim: resume core %d: %w", i, err)
		}
	}
	return m, nil
}

func (m *Machine) rebuildCore(c *core, R RegionInfo) error {
	fn := m.Prog.Funcs[R.Fn]
	if fn == nil {
		return fmt.Errorf("unknown restart function %q", R.Fn)
	}
	rs, ok := fn.Slices[R.StaticID]
	if !ok {
		return fmt.Errorf("function %s has no recovery slice for region %d", R.Fn, R.StaticID)
	}

	// Innermost frame: registers from the recovery slice.
	inner := &frame{
		fn:    fn,
		regs:  make([]int64, fn.NumRegs),
		dst:   ir.NoReg,
		depth: R.Depth,
		blk:   R.Ref.Block,
		pc:    R.Ref.Index,
	}
	m.replaySlice(c.id, R.Depth, rs, inner.regs)

	// Walk frame records downward to rebuild callers.
	frames := []*frame{inner}
	cur := inner
	sp := R.StackPtr
	for d := R.Depth; d > 0; d-- {
		// Record words live just below the callee's stack pointer.
		argc := m.NVM.Load(sp - 8)
		base := m.NVM.Load(sp - 16)
		packed := m.NVM.Load(sp - 24)
		fnIdx := m.NVM.Load(sp - 32)
		if fnIdx < 0 || fnIdx >= int64(len(m.funcNames)) {
			return fmt.Errorf("corrupt frame record at %#x (fnIdx=%d)", sp, fnIdx)
		}
		callerName := m.funcNames[fnIdx]
		caller := m.Prog.Funcs[callerName]
		callBlk := int(packed >> 32)
		callPC := int(packed & 0xFFFFFFFF)
		if callBlk >= len(caller.Blocks) || callPC >= len(caller.Blocks[callBlk].Instrs) {
			return fmt.Errorf("corrupt frame record resume point b%d[%d] in %s", callBlk, callPC, callerName)
		}
		callIn := &caller.Blocks[callBlk].Instrs[callPC]
		if callIn.Op != ir.OpCall {
			return fmt.Errorf("frame record does not point at a call (%s)", callIn.Op)
		}
		if int(argc) != len(callIn.Args) {
			return fmt.Errorf("frame record argc %d != callsite %d", argc, len(callIn.Args))
		}

		// Fill the callee frame's call linkage.
		cur.spillBase = base
		cur.spillList = caller.LiveAcross[ir.InstrRef{Block: callBlk, Index: callPC}]
		cur.dst = callIn.Dst
		cur.resumeBlk = callBlk
		cur.resumePC = callPC + 1

		parent := &frame{
			fn:    caller,
			regs:  make([]int64, caller.NumRegs),
			dst:   ir.NoReg,
			depth: d - 1,
			blk:   callBlk,
			pc:    callPC + 1, // overwritten by resume linkage on return
		}
		frames = append([]*frame{parent}, frames...)
		cur = parent
		sp = base
	}

	c.frames = frames
	c.stackPtr = R.StackPtr
	c.done = false
	// The restart region re-opens when its boundary instruction re-commits;
	// until then the core runs under a fresh bootstrap region with the same
	// descriptor.
	c.cur = m.openRegion(c, R.Fn, R.StaticID, R.Ref, R.Depth, R.StackPtr, 0)
	return nil
}

// replaySlice executes a recovery slice against core/frame-depth slot state
// in the (recovered) NVM image.
func (m *Machine) replaySlice(coreID, depth int, rs ir.RecoverySlice, regs []int64) {
	for _, st := range rs.Steps {
		switch st.Op {
		case ir.SliceConst:
			regs[st.Dst] = st.Imm
		case ir.SliceLoadCkpt:
			regs[st.Dst] = m.NVM.Load(CkptSlot(coreID, depth, st.Src))
		case ir.SliceUnary:
			in := ir.Instr{Op: st.ALUOp, Dst: st.Dst, A: ir.R(st.Src), B: ir.Imm(st.Imm)}
			ir.Exec(&in, regs, nil)
		case ir.SliceBinary:
			in := ir.Instr{Op: st.ALUOp, Dst: st.Dst, A: ir.R(st.Src), B: ir.R(st.Src2)}
			ir.Exec(&in, regs, nil)
		}
	}
}
