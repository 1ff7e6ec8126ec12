// Package nvmtech holds the NVM and CXL device parameter presets the
// paper's evaluation sweeps over: Intel-Optane-class PMEM (the default),
// STT-MRAM, ReRAM (Section IX-M), and the four CXL devices of Table I
// (Section IX-C). Latencies are converted to core cycles at 2 GHz
// (1 cycle = 0.5 ns).
package nvmtech

// Tech describes one memory technology / device.
type Tech struct {
	Name string
	// ReadLatNS / WriteLatNS are media access latencies in nanoseconds.
	// ReadBWGBs / WriteBWGBs are sustainable bandwidths in GB/s. The model
	// uses neither WriteLatNS nor ReadBWGBs (DESIGN.md "Known model
	// divergences"); the presets keep the paper's values.
	ReadLatNS  float64
	WriteLatNS float64
	ReadBWGBs  float64
	WriteBWGBs float64
	// ExtraLinkNS is interconnect latency added on top of media latency
	// (the 70 ns CXL link for CXL-D, already folded into the NVDIMM
	// figures measured end-to-end in Table I).
	ExtraLinkNS float64
	// IsCXL marks the Table I devices.
	IsCXL bool
}

// GHz is the modeled core clock.
const GHz = 2.0

// ReadLatCycles returns the total read latency in core cycles.
func (t Tech) ReadLatCycles() int64 { return int64((t.ReadLatNS + t.ExtraLinkNS) * GHz) }

// WriteBytesPerCycle converts write bandwidth to bytes per core cycle.
func (t Tech) WriteBytesPerCycle() float64 { return t.WriteBWGBs / GHz }

// Presets, matching Section IX (PMEM default: 175 ns read / 90 ns write),
// Section IX-M (STT-MRAM, ReRAM), and Table I (CXL-A..D).
var (
	PMEM = Tech{Name: "PMEM", ReadLatNS: 175, WriteLatNS: 90,
		ReadBWGBs: 6.6, WriteBWGBs: 2.3}
	STTMRAM = Tech{Name: "STTRAM", ReadLatNS: 80, WriteLatNS: 55,
		ReadBWGBs: 12, WriteBWGBs: 8}
	ReRAM = Tech{Name: "ReRAM", ReadLatNS: 50, WriteLatNS: 40,
		ReadBWGBs: 16, WriteBWGBs: 12}
	DRAM = Tech{Name: "DRAM", ReadLatNS: 50, WriteLatNS: 50,
		ReadBWGBs: 19.2, WriteBWGBs: 19.2}

	CXLA = Tech{Name: "CXL-A", ReadLatNS: 158, WriteLatNS: 120,
		ReadBWGBs: 38.4, WriteBWGBs: 38.4, IsCXL: true}
	CXLB = Tech{Name: "CXL-B", ReadLatNS: 223, WriteLatNS: 139,
		ReadBWGBs: 19.2, WriteBWGBs: 19.2, IsCXL: true}
	CXLC = Tech{Name: "CXL-C", ReadLatNS: 348, WriteLatNS: 241,
		ReadBWGBs: 25.6, WriteBWGBs: 25.6, IsCXL: true}
	CXLD = Tech{Name: "CXL-D", ReadLatNS: 245, WriteLatNS: 160,
		ReadBWGBs: 6.6, WriteBWGBs: 2.3, IsCXL: true}
)

// All lists every preset by name.
var All = map[string]Tech{
	"PMEM": PMEM, "STTRAM": STTMRAM, "ReRAM": ReRAM, "DRAM": DRAM,
	"CXL-A": CXLA, "CXL-B": CXLB, "CXL-C": CXLC, "CXL-D": CXLD,
}

// CXLDevices lists the Table I devices in order.
var CXLDevices = []Tech{CXLA, CXLB, CXLC, CXLD}
