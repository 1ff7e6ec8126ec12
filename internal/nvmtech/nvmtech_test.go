package nvmtech

import "testing"

func TestCycleConversions(t *testing.T) {
	// PMEM: 175ns read at 2GHz = 350 cycles.
	if got := PMEM.ReadLatCycles(); got != 350 {
		t.Errorf("PMEM read = %d cycles, want 350", got)
	}
	// 2.3 GB/s at 2 GHz = 1.15 B/cycle.
	if got := PMEM.WriteBytesPerCycle(); got < 1.14 || got > 1.16 {
		t.Errorf("PMEM write BPC = %v, want ~1.15", got)
	}
}

func TestExtraLinkLatency(t *testing.T) {
	d := Tech{ReadLatNS: 100, ExtraLinkNS: 70}
	if got := d.ReadLatCycles(); got != 340 {
		t.Errorf("link latency not added: %d, want 340", got)
	}
}

func TestOrderings(t *testing.T) {
	// The technology ladder the paper leans on: ReRAM faster than STT-MRAM
	// faster than PMEM (reads and writes).
	if !(ReRAM.ReadLatNS < STTMRAM.ReadLatNS && STTMRAM.ReadLatNS < PMEM.ReadLatNS) {
		t.Error("read latency ordering violated")
	}
	if !(ReRAM.WriteBWGBs > STTMRAM.WriteBWGBs && STTMRAM.WriteBWGBs > PMEM.WriteBWGBs) {
		t.Error("write bandwidth ordering violated")
	}
}

func TestTableIDevices(t *testing.T) {
	if len(CXLDevices) != 4 {
		t.Fatalf("Table I has 4 devices, got %d", len(CXLDevices))
	}
	// Table I: CXL-B slower reads than CXL-A; CXL-D is the PMEM device
	// (lowest write bandwidth).
	if !(CXLA.ReadLatNS < CXLB.ReadLatNS) {
		t.Error("CXL-A should have lower read latency than CXL-B")
	}
	for _, d := range CXLDevices {
		if d.Name != "CXL-D" && d.WriteBWGBs <= CXLD.WriteBWGBs {
			t.Errorf("%s write BW should exceed CXL-D's", d.Name)
		}
		if !d.IsCXL {
			t.Errorf("%s not marked CXL", d.Name)
		}
	}
}

func TestAllRegistry(t *testing.T) {
	for _, name := range []string{"PMEM", "STTRAM", "ReRAM", "DRAM", "CXL-A", "CXL-B", "CXL-C", "CXL-D"} {
		tech, ok := All[name]
		if !ok {
			t.Errorf("missing preset %q", name)
			continue
		}
		if tech.ReadLatCycles() <= 0 || tech.WriteBytesPerCycle() <= 0 {
			t.Errorf("%s has degenerate parameters", name)
		}
	}
}
