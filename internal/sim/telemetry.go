package sim

import (
	"encoding/json"
	"fmt"
	"io"

	"cwsp/internal/telemetry"
)

// TelemetryOptions configures the machine's telemetry attachment.
type TelemetryOptions struct {
	// SampleInterval is the gauge-snapshot period in cycles (default 4096).
	SampleInterval int64
	// SampleCap bounds the time-series ring; once full the oldest samples
	// are overwritten, so sampler memory is O(SampleCap) regardless of run
	// length (default 4096).
	SampleCap int
}

// Telemetry is a machine's observability attachment: a periodic gauge
// sampler plus log-bucketed histograms of the latencies and lengths the
// paper's evaluation figures are built from. It is nil by default — every
// hot-path instrumentation point is behind a single `m.tel != nil` check,
// so a machine without telemetry pays one predictable branch per probe and
// allocates nothing.
//
// Sampled columns, per core i and memory controller j:
//
//	c<i>.wb    L1D write-buffer occupancy (entries)
//	c<i>.pb    persist-buffer occupancy (entries)
//	c<i>.rbt   unretired regions in the RBT
//	c<i>.ipc   instructions per cycle since the previous sample
//	mc<j>.wpq      WPQ entries still in flight
//	mc<j>.backlog  cycles of queued NVM media work at the MC
//	mc<j>.logbytes cumulative undo-log bytes written at the MC
//	persist.inflight_bytes  bytes buffered in all persist paths
//	persist.send_backlog    cycles of committed persist-path send bandwidth
//
// Samples are taken at the stepping core's local cycle, which the
// scheduler keeps within one instruction of the global minimum.
type Telemetry struct {
	Sampler *telemetry.Sampler

	// PersistLat is the store commit → durable (WPQ admission) latency.
	PersistLat *telemetry.Histogram
	// RegionInstrs / RegionCycles are dynamic region lengths.
	RegionInstrs *telemetry.Histogram
	RegionCycles *telemetry.Histogram
	// RegionCkpts counts checkpoint stores per dynamic region.
	RegionCkpts *telemetry.Histogram
	// Stall* are stall-burst durations by cause (one burst = one sample).
	StallPB       *telemetry.Histogram
	StallWB       *telemetry.Histogram
	StallRBT      *telemetry.Histogram
	StallDrain    *telemetry.Histogram
	StallBoundary *telemetry.Histogram
	StallWPQLoad  *telemetry.Histogram

	m          *Machine
	mcLogBytes []int64
	lastInstrs []int64
	lastCycle  int64
	scratch    []float64
}

// EnableTelemetry attaches telemetry to the machine (call before Run).
// Passing the zero TelemetryOptions selects the defaults.
func (m *Machine) EnableTelemetry(opt TelemetryOptions) *Telemetry {
	if opt.SampleInterval <= 0 {
		opt.SampleInterval = 4096
	}
	if opt.SampleCap <= 0 {
		opt.SampleCap = 4096
	}
	cols := make([]string, 0, 4*len(m.cores)+3*len(m.wpqs)+2)
	for i := range m.cores {
		cols = append(cols,
			fmt.Sprintf("c%d.wb", i), fmt.Sprintf("c%d.pb", i),
			fmt.Sprintf("c%d.rbt", i), fmt.Sprintf("c%d.ipc", i))
	}
	for j := range m.wpqs {
		cols = append(cols,
			fmt.Sprintf("mc%d.wpq", j), fmt.Sprintf("mc%d.backlog", j),
			fmt.Sprintf("mc%d.logbytes", j))
	}
	cols = append(cols, "persist.inflight_bytes", "persist.send_backlog")

	t := &Telemetry{
		Sampler:       telemetry.NewSampler(opt.SampleInterval, opt.SampleCap, cols...),
		PersistLat:    telemetry.NewHistogram("persist_lat"),
		RegionInstrs:  telemetry.NewHistogram("region_instrs"),
		RegionCycles:  telemetry.NewHistogram("region_cycles"),
		RegionCkpts:   telemetry.NewHistogram("region_ckpts"),
		StallPB:       telemetry.NewHistogram("stall.pb"),
		StallWB:       telemetry.NewHistogram("stall.wb"),
		StallRBT:      telemetry.NewHistogram("stall.rbt"),
		StallDrain:    telemetry.NewHistogram("stall.drain"),
		StallBoundary: telemetry.NewHistogram("stall.boundary"),
		StallWPQLoad:  telemetry.NewHistogram("stall.wpq_load"),

		m:          m,
		mcLogBytes: make([]int64, len(m.wpqs)),
		lastInstrs: make([]int64, len(m.cores)),
		scratch:    make([]float64, 0, len(cols)),
	}
	m.tel = t
	return t
}

// Telemetry returns the machine's telemetry attachment (nil when disabled).
func (m *Machine) Telemetry() *Telemetry { return m.tel }

// sample snapshots every gauge at cycle now. Occupancy queries only
// record the cycle they read at, behind which the owner never schedules,
// so sampling never perturbs timing (property-tested).
func (t *Telemetry) sample(now int64) {
	vals := t.scratch[:0]
	dc := now - t.lastCycle
	gran := t.m.Sch.GranularityBytes
	if gran == 0 {
		gran = 8
	}
	inflight, sendBacklog := 0, int64(0)
	for i, c := range t.m.cores {
		pb := c.path.Occupancy(now)
		inflight += pb
		sendBacklog += c.path.SendBacklog(now)
		ipc := 0.0
		if dc > 0 {
			ipc = float64(c.instrs-t.lastInstrs[i]) / float64(dc)
		}
		t.lastInstrs[i] = c.instrs
		vals = append(vals, float64(c.wb.Occupancy(now)), float64(pb),
			float64(c.rbt.Occupancy(now)), ipc)
	}
	for j, w := range t.m.wpqs {
		vals = append(vals, float64(w.Occupancy(now)), float64(w.Backlog(now)),
			float64(t.mcLogBytes[j]))
	}
	vals = append(vals, float64(inflight*gran), float64(sendBacklog))
	t.lastCycle = now
	t.Sampler.Record(now, vals...)
}

// Histograms returns every histogram keyed by name.
func (t *Telemetry) Histograms() map[string]*telemetry.Histogram {
	hs := []*telemetry.Histogram{
		t.PersistLat, t.RegionInstrs, t.RegionCycles, t.RegionCkpts,
		t.StallPB, t.StallWB, t.StallRBT, t.StallDrain, t.StallBoundary,
		t.StallWPQLoad,
	}
	out := make(map[string]*telemetry.Histogram, len(hs))
	for _, h := range hs {
		out[h.Name] = h
	}
	return out
}

// Summaries digests every histogram for the run manifest.
func (t *Telemetry) Summaries() map[string]telemetry.HistSummary {
	out := map[string]telemetry.HistSummary{}
	for name, h := range t.Histograms() {
		out[name] = h.Summary()
	}
	return out
}

// WriteSeriesCSV writes the sampled time series as CSV.
func (t *Telemetry) WriteSeriesCSV(w io.Writer) error { return t.Sampler.WriteCSV(w) }

// BuildManifest assembles the versioned run manifest: machine config, raw
// aggregate stats, derived metrics, and — when telemetry is enabled —
// histogram digests and the time-series shape.
func (m *Machine) BuildManifest(tool, workload, scale string) (*telemetry.Manifest, error) {
	man := telemetry.NewManifest(tool)
	man.Workload = workload
	man.Scheme = m.Sch.Name
	man.Scale = scale

	cfgRaw, err := json.Marshal(m.Cfg)
	if err != nil {
		return nil, fmt.Errorf("sim: marshal config: %w", err)
	}
	man.Config = cfgRaw
	st := m.CollectStats()
	stRaw, err := json.Marshal(st)
	if err != nil {
		return nil, fmt.Errorf("sim: marshal stats: %w", err)
	}
	man.Stats = stRaw
	man.Derived = st.Derived()

	if m.tel != nil {
		man.Histograms = m.tel.Summaries()
		info := m.tel.Sampler.Info()
		man.Series = &info
	}
	return man, nil
}
