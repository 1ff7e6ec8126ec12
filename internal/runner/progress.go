package runner

import (
	"fmt"
	"io"
	"sync"
	"time"

	"cwsp/internal/telemetry"
)

// Progress accumulates pool telemetry across every Run of a pool's
// lifetime: cells submitted/served-from-cache/executed and per-cell
// latency (log2 histogram). One Progress is shared by all experiments of a
// `cwspbench -exp all` invocation, so the manifest reports whole-sweep
// totals.
type Progress struct {
	mu      sync.Mutex
	start   time.Time
	cells   int64 // cells submitted
	hits    int64 // served from the persistent store
	shared  int64 // served by an identical cell in the same batch
	exec    int64 // actually executed
	retries int64
	panics  int64
	active  int64 // currently running cells
	wall    time.Duration

	lat *telemetry.Histogram // per-executed-cell wall latency, microseconds

	log io.Writer
}

func newProgress(log io.Writer) *Progress {
	return &Progress{
		start: time.Now(),
		lat:   telemetry.NewHistogram("cell_latency_us"),
		log:   log,
	}
}

// NewProgress builds a standalone Progress for injection via
// Options.Progress (the experiment service allocates one per campaign so
// per-campaign pace survives across the campaign's pools).
func NewProgress() *Progress { return newProgress(nil) }

// Restart re-stamps the pace clock. The experiment service allocates a
// campaign's Progress at submission so /progress is readable while the
// campaign queues, but ElapsedMS/CellsPerSec/ETA must measure execution
// pace, not admission-queue wait — under backpressure the queue wait
// dominates and would skew the rate low and the ETA long.
func (p *Progress) Restart() {
	p.mu.Lock()
	p.start = time.Now()
	p.mu.Unlock()
}

func (p *Progress) setLog(w io.Writer) {
	p.mu.Lock()
	p.log = w
	p.mu.Unlock()
}

func (p *Progress) cellStart() {
	p.mu.Lock()
	p.active++
	p.mu.Unlock()
}

func (p *Progress) cellDone(d time.Duration, key Key) {
	p.mu.Lock()
	p.active--
	p.exec++
	p.lat.Observe(d.Microseconds())
	log := p.log
	p.mu.Unlock()
	if log != nil {
		fmt.Fprintf(log, "  cell %-44s %8.1fms\n", key.String(), float64(d.Microseconds())/1e3)
	}
}

func (p *Progress) cellHit(fromStore bool) {
	p.mu.Lock()
	if fromStore {
		p.hits++
	} else {
		p.shared++
	}
	p.mu.Unlock()
}

func (p *Progress) addCells(n int) {
	p.mu.Lock()
	p.cells += int64(n)
	p.mu.Unlock()
}

func (p *Progress) addRetry() {
	p.mu.Lock()
	p.retries++
	p.mu.Unlock()
}

func (p *Progress) addPanic() {
	p.mu.Lock()
	p.panics++
	p.mu.Unlock()
}

func (p *Progress) addWall(d time.Duration) {
	p.mu.Lock()
	p.wall += d
	p.mu.Unlock()
}

// Cells returns the number of cells submitted across every Run.
func (p *Progress) Cells() int64 { p.mu.Lock(); defer p.mu.Unlock(); return p.cells }

// Hits returns cells served from the persistent store.
func (p *Progress) Hits() int64 { p.mu.Lock(); defer p.mu.Unlock(); return p.hits }

// Executed returns cells actually simulated (store + in-batch misses).
func (p *Progress) Executed() int64 { p.mu.Lock(); defer p.mu.Unlock(); return p.exec }

// LatencySnapshot returns a point-in-time copy of the per-executed-cell
// latency histogram (microseconds), safe to read (e.g. render to /metrics)
// while workers keep observing.
func (p *Progress) LatencySnapshot() *telemetry.Histogram {
	p.mu.Lock()
	defer p.mu.Unlock()
	h := *p.lat
	return &h
}

// ProgressSnapshot is a point-in-time pace digest: the per-campaign
// /progress payload of the experiment service.
type ProgressSnapshot struct {
	Cells    int64 `json:"cells"`
	Done     int64 `json:"done"` // hits + shared + executed
	Active   int64 `json:"active"`
	Hits     int64 `json:"hits"`
	Shared   int64 `json:"shared,omitempty"`
	Executed int64 `json:"executed"`
	// HitRatio is (hits+shared)/done — the fraction of completed cells the
	// content-addressed cache served without simulating.
	HitRatio    float64 `json:"hit_ratio"`
	ElapsedMS   int64   `json:"elapsed_ms"`
	CellsPerSec float64 `json:"cells_per_sec"`
	// ETAMS extrapolates the remaining cells at the observed rate: 0 when
	// done (never negative — cached cells completing faster than a tick
	// window used to drive the extrapolation below zero), -1 while the
	// denominator is unknown.
	ETAMS int64 `json:"eta_ms"`
}

// maxETAMS caps the extrapolation (≈29 years) so the float→int conversion
// can never overflow into a negative ETA when the observed rate is tiny
// against a huge remaining count.
const maxETAMS = int64(1) << 50

// Snapshot digests the progress for live readers. Safe to call while
// workers are running.
func (p *Progress) Snapshot() ProgressSnapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := ProgressSnapshot{
		Cells: p.cells, Active: p.active,
		Hits: p.hits, Shared: p.shared, Executed: p.exec,
		ETAMS: -1,
	}
	s.Done = p.hits + p.shared + p.exec
	if s.Done > 0 {
		s.HitRatio = float64(p.hits+p.shared) / float64(s.Done)
	}
	s.ElapsedMS = time.Since(p.start).Milliseconds()
	if s.ElapsedMS > 0 && s.Done > 0 {
		s.CellsPerSec = float64(s.Done) / (float64(s.ElapsedMS) / 1000)
	}
	switch {
	case s.Cells <= 0:
		// Unknown denominator: keep -1.
	case s.Done >= s.Cells:
		s.ETAMS = 0
	case s.CellsPerSec > 0:
		eta := float64(s.Cells-s.Done) / s.CellsPerSec * 1000
		switch {
		case !(eta > 0): // non-positive or NaN
			s.ETAMS = 0
		case eta > float64(maxETAMS):
			s.ETAMS = maxETAMS
		default:
			s.ETAMS = int64(eta)
		}
	}
	return s
}

// Info digests the progress for a run manifest.
func (p *Progress) Info(jobs int) telemetry.RunnerInfo {
	p.mu.Lock()
	defer p.mu.Unlock()
	info := telemetry.RunnerInfo{
		Jobs:      jobs,
		Cells:     p.cells,
		CacheHits: p.hits,
		Shared:    p.shared,
		Executed:  p.exec,
		Retries:   p.retries,
		Panics:    p.panics,
		WallMS:    p.wall.Milliseconds(),
	}
	if p.lat.Count() > 0 {
		s := p.lat.Summary()
		info.CellLatencyUS = &s
	}
	return info
}

// String renders a one-line summary for progress logs.
func (p *Progress) String() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return fmt.Sprintf("runner{cells=%d hits=%d shared=%d executed=%d wall=%v}",
		p.cells, p.hits, p.shared, p.exec, p.wall.Round(time.Millisecond))
}
