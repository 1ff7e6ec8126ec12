package sim

import "cwsp/internal/nvmtech"

// Config holds the machine's structural and timing parameters. Latencies
// are in core cycles (2 GHz, 0.5 ns/cycle). The hierarchy is a scaled-down
// proportional model of the paper's: capacities are divided by a constant
// factor so the synthetic workloads' footprints exercise the same
// hit/miss structure the paper's GB-scale footprints did against GB-scale
// caches (see DESIGN.md).
type Config struct {
	Cores     int
	LineBytes int

	L1DBytes int
	L1DWays  int
	L1DLat   int64

	// L2 is shared in the default 2-level-SRAM configuration; when
	// L3Bytes > 0 (paper Section IX-F) L2 becomes private and L3 shared.
	L2Bytes int
	L2Ways  int
	L2Lat   int64

	L3Bytes int
	L3Ways  int
	L3Lat   int64

	// DRAMBytes == 0 disables the DRAM cache (the ideal-PSP configuration
	// of Section IX-D).
	DRAMBytes int
	DRAMLat   int64

	// NVM media.
	NVMReadLat  int64
	NVMWriteBPC float64 // media write bandwidth per MC, bytes/cycle

	NumMCs int // a power of two: 4 KiB pages interleave across MCs by mask
	// MCChannels scales per-MC media write bandwidth: an MC drains its WPQ
	// across several DIMM channels in parallel.
	MCChannels int
	NUMAStep   int64 // extra persist-path cycles per MC index (NUMA)

	// Persist path.
	PPOneWayLat int64
	PPBytesBPC  float64 // persist-path bandwidth, bytes/cycle
	PBSize      int
	WPQSize     int
	RBTSize     int

	// L1D write buffer.
	WBSize     int
	WBDrainLat int64

	// MLP approximates an out-of-order core's memory-level parallelism:
	// miss latencies are divided by it.
	MLP float64

	AtomicLat int64 // base latency of a synchronizing op
	CallLat   int64 // base latency of call/return control transfer

	// MaxSteps bounds dynamic instructions (0 = default cap).
	MaxSteps int64

	// Recoverable enables the persist journal and region descriptor log
	// needed for crash injection and recovery (costs memory; benchmarks
	// leave it off).
	Recoverable bool

	// Unsealed disables recovery-side seal validation (undo-log record
	// checksums, WPQ drain-ledger cross-checks, checkpoint-slot scrubbing).
	// The zero value — validation on — is the shipped configuration; the
	// torture harness flips this to demonstrate that an unvalidated build
	// silently diverges under injected corruption.
	Unsealed bool

	// ReferenceKernel runs RunUntil on the verbatim one-instruction-per-
	// scan reference stepper (reference.go) instead of the threaded-code
	// kernel (threaded.go). The two are behavior-identical, telemetry and
	// traces included (enforced by internal/simtest's differential
	// harness and FuzzKernelEquivalence); the reference is the slow oracle
	// the fast kernel is proven against.
	ReferenceKernel bool
}

// DefaultConfig is the scaled default machine: the paper's Skylake-class
// setup (64KB L1D / 16MB shared L2 / 4GB DRAM cache, PMEM NVM, 2 MCs,
// 4 GB/s persist path, PB 50, WPQ 24, RBT 16) with capacities scaled 1/512
// to match the synthetic workloads' footprints.
func DefaultConfig() Config {
	t := nvmtech.PMEM
	return Config{
		Cores:     1,
		LineBytes: 64,

		L1DBytes: 32 << 10,
		L1DWays:  8,
		L1DLat:   4,

		L2Bytes: 1 << 20,
		L2Ways:  16,
		L2Lat:   44,

		DRAMBytes: 8 << 20,
		DRAMLat:   100,

		NVMReadLat:  t.ReadLatCycles(),
		NVMWriteBPC: t.WriteBytesPerCycle(),

		NumMCs:     2,
		MCChannels: 4,
		NUMAStep:   30,

		PPOneWayLat: 20,
		PPBytesBPC:  2.0, // 4 GB/s at 2 GHz
		PBSize:      50,
		WPQSize:     24,
		RBTSize:     16,

		WBSize:     32,
		WBDrainLat: 8,

		MLP:       4,
		AtomicLat: 20,
		CallLat:   2,
	}
}

// WithNVM returns the config retargeted at another NVM/CXL technology.
func (c Config) WithNVM(t nvmtech.Tech) Config {
	c.NVMReadLat = t.ReadLatCycles()
	c.NVMWriteBPC = t.WriteBytesPerCycle()
	return c
}

// WithL3 returns the deeper-hierarchy variant of Section IX-F: a private
// 1MB-class L2 (scaled) plus a shared L3 at the old L2's size and latency.
func (c Config) WithL3() Config {
	c.L3Bytes = c.L2Bytes
	c.L3Ways = c.L2Ways
	c.L3Lat = c.L2Lat
	c.L2Bytes = c.L2Bytes / 8
	c.L2Ways = 8
	c.L2Lat = 14
	return c
}

// PersistPathGBs sets the persist-path bandwidth in GB/s.
func (c Config) PersistPathGBs(gbs float64) Config {
	c.PPBytesBPC = gbs / nvmtech.GHz
	return c
}

// Scheme selects the crash-consistency discipline the machine applies.
// One machine implementation covers cWSP, the prior-work comparators, and
// the plain baseline through these switches.
type Scheme struct {
	Name string

	// Persist: committed stores travel a persist path to NVM.
	Persist bool
	// GranularityBytes: 8 for cWSP's word-granularity persistence, 64 for
	// prior cacheline-granularity schemes.
	GranularityBytes int
	// DedupLines: coalesce repeated stores to one line within a region
	// (Capri's redo buffer).
	DedupLines bool
	// MCSpec: memory-controller speculation — no stall at region
	// boundaries; speculative stores are undo-logged at the MC.
	MCSpec bool
	// LogBytes is the undo-log media traffic per logged store (0 = the
	// default 16 bytes: address + old value).
	LogBytes int
	// BoundaryStall: stall at every region boundary until the finished
	// region's stores persisted (iDO/ReplayCache and the paper's prior
	// schemes under multiple MCs).
	BoundaryStall bool
	// BoundaryExtraLat: additional cycles per boundary (persist-barrier
	// instruction overhead of software schemes).
	BoundaryExtraLat int64
	// WBDelay: hold L1D write-buffer drains until the persist path has
	// written the line (the stale-read fix).
	WBDelay bool
	// WPQDelay: delay NVM loads that hit a pending WPQ entry.
	WPQDelay bool
	// DRAMCache: serve the LLC from the DRAM cache; false models
	// partial-system persistence with DRAM as main memory elsewhere.
	DRAMCache bool
	// UseRBT: track in-flight regions in the RBT (asynchronous region
	// retirement). Without it, regions retire only via BoundaryStall.
	UseRBT bool
}

// Baseline is the original program on the original machine, no crash
// consistency.
func Baseline() Scheme {
	return Scheme{Name: "base", DRAMCache: true}
}

// CWSP is the full design.
func CWSP() Scheme {
	return Scheme{
		Name: "cwsp", Persist: true, GranularityBytes: 8,
		MCSpec: true, WBDelay: true, WPQDelay: true,
		DRAMCache: true, UseRBT: true,
	}
}
