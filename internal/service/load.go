package service

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// LoadOptions configure a load-generation run against a daemon.
type LoadOptions struct {
	// Clients is the concurrent client count (default 32); Requests is how
	// many campaigns each client submits (default 4).
	Clients  int
	Requests int

	// WarmFrac is the fraction of each client's traffic drawn from the
	// shared warm seed pool — repeat campaigns the content-addressed cache
	// must serve without re-simulating. The rest is cold: unique seeds
	// nothing has computed before. Default 0.5.
	WarmFrac float64
	// WarmSeeds is the warm pool size (default 4).
	WarmSeeds int
	// Prewarm submits each warm seed once (and waits) before the storm, so
	// the warm fraction measures pure cache behavior (default true via
	// RunLoad).
	NoPrewarm bool

	// Seed derandomizes the traffic mix; Spec is the campaign template
	// (its Seed field is overwritten per request; default: a single-cell
	// litmus campaign, the cheapest real work unit).
	Seed int64
	Spec Spec

	// Poll is the campaign-completion poll interval (default 25ms);
	// SampleEvery is the queue-depth sampling interval (default 25ms).
	Poll        time.Duration
	SampleEvery time.Duration

	Log io.Writer
}

// LoadReport is what a load run measured.
type LoadReport struct {
	Clients  int   `json:"clients"`
	Requests int64 `json:"requests"`
	// Dropped counts campaigns that did not reach StateDone (failed,
	// aborted, or lost); a healthy run has 0 — backpressure makes clients
	// wait, never lose work.
	Dropped int64 `json:"dropped"`
	// Rejected429 counts backpressure rejections absorbed by retry.
	Rejected429 int64 `json:"rejected_429"`

	WallMS         int64   `json:"wall_ms"`
	RequestsPerSec float64 `json:"requests_per_sec"`
	CellsDone      int64   `json:"cells_done"`
	CellsPerSec    float64 `json:"cells_per_sec"`

	WarmRequests int64 `json:"warm_requests"`
	// WarmHitRatio is (cache hits + shared) / completed cells over the
	// warm fraction of the traffic.
	WarmHitRatio float64 `json:"warm_hit_ratio"`

	// ReqLatencyUS digests end-to-end request latency (submit → terminal
	// state), microseconds.
	ReqLatencyUS Quantiles `json:"req_latency_us"`

	QueueDepthMax  int64   `json:"queue_depth_max"`
	QueueDepthMean float64 `json:"queue_depth_mean"`
}

// Quantiles is a latency digest in one unit.
type Quantiles struct {
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
}

// RunLoad hammers the daemon at base with Clients concurrent clients over
// a mixed cold/warm campaign workload. Clients absorb backpressure
// (retry-on-429) rather than dropping work, so Dropped counts real
// campaign losses, not admission contention.
func RunLoad(ctx context.Context, base string, opts LoadOptions) (*LoadReport, error) {
	if opts.Clients <= 0 {
		opts.Clients = 32
	}
	if opts.Requests <= 0 {
		opts.Requests = 4
	}
	if opts.WarmFrac <= 0 {
		opts.WarmFrac = 0.5
	}
	if opts.WarmSeeds <= 0 {
		opts.WarmSeeds = 4
	}
	if opts.Poll <= 0 {
		opts.Poll = 25 * time.Millisecond
	}
	if opts.SampleEvery <= 0 {
		opts.SampleEvery = 25 * time.Millisecond
	}
	if opts.Spec.Kind == "" {
		opts.Spec = Spec{Kind: KindLitmus, Cells: 1, Schemes: []string{"base", "cwsp"}, Kernels: []string{"fast"}}
	}

	// Warm seeds live in a small shared pool; cold seeds are globally
	// unique offsets no campaign has seen.
	warmSeed := func(i int) int64 { return opts.Seed*1_000_000 + int64(i%opts.WarmSeeds) }
	coldSeed := func(client, req int) int64 {
		return opts.Seed*1_000_000 + 1000 + int64(client)*10_000 + int64(req)
	}

	statsCli := &Client{Base: base, ID: "loadgen-sampler"}
	if !opts.NoPrewarm {
		logf(opts.Log, "prewarm: %d warm seeds", opts.WarmSeeds)
		pre := &Client{Base: base, ID: "loadgen-prewarm"}
		for i := 0; i < opts.WarmSeeds; i++ {
			spec := opts.Spec
			spec.Seed = warmSeed(i)
			if _, _, err := pre.SubmitWait(ctx, spec, opts.Poll); err != nil {
				return nil, fmt.Errorf("service: prewarm seed %d: %w", i, err)
			}
		}
	}

	var (
		rep                          LoadReport
		mu                           sync.Mutex
		latUS                        []float64
		warmHits, warmDone           int64
		dropped, rejected, cellsDone int64
		firstErr                     error
	)
	rep.Clients = opts.Clients

	// Queue-depth sampler: a contention proxy polled for the life of the
	// storm.
	sampleCtx, stopSampler := context.WithCancel(ctx)
	var sampler sync.WaitGroup
	var depthSum, depthN, depthMax int64
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		t := time.NewTicker(opts.SampleEvery)
		defer t.Stop()
		for {
			select {
			case <-sampleCtx.Done():
				return
			case <-t.C:
				st, err := statsCli.Stats(sampleCtx)
				if err != nil {
					continue
				}
				d := int64(st.QueueDepth)
				atomic.AddInt64(&depthSum, d)
				atomic.AddInt64(&depthN, 1)
				for {
					m := atomic.LoadInt64(&depthMax)
					if d <= m || atomic.CompareAndSwapInt64(&depthMax, m, d) {
						break
					}
				}
			}
		}
	}()

	start := time.Now()
	var wg sync.WaitGroup
	for ci := 0; ci < opts.Clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			cli := &Client{Base: base, ID: fmt.Sprintf("loadgen-%02d", ci)}
			rng := rand.New(rand.NewSource(opts.Seed + int64(ci)))
			for ri := 0; ri < opts.Requests; ri++ {
				warm := rng.Float64() < opts.WarmFrac
				spec := opts.Spec
				if warm {
					spec.Seed = warmSeed(rng.Intn(opts.WarmSeeds))
				} else {
					spec.Seed = coldSeed(ci, ri)
				}
				t0 := time.Now()
				v, rej, err := cli.SubmitWait(ctx, spec, opts.Poll)
				lat := time.Since(t0)
				mu.Lock()
				rejected += int64(rej)
				if err != nil {
					dropped++
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					continue
				}
				latUS = append(latUS, float64(lat.Microseconds()))
				if v.State != StateDone {
					// A failed/aborted campaign is lost work: record it so
					// RunLoad returns an error, not just a Dropped count.
					dropped++
					if firstErr == nil {
						firstErr = fmt.Errorf("campaign %s ended %s: %s", v.ID, v.State, v.Error)
					}
				}
				cellsDone += v.Progress.Done
				if warm {
					warmHits += v.Progress.Hits + v.Progress.Shared
					warmDone += v.Progress.Done
				}
				mu.Unlock()
			}
		}(ci)
	}
	wg.Wait()
	wall := time.Since(start)
	stopSampler()
	sampler.Wait()

	rep.Requests = int64(opts.Clients * opts.Requests)
	rep.Dropped = dropped
	rep.Rejected429 = rejected
	rep.WallMS = wall.Milliseconds()
	if wall > 0 {
		rep.RequestsPerSec = float64(rep.Requests) / wall.Seconds()
		rep.CellsPerSec = float64(cellsDone) / wall.Seconds()
	}
	rep.CellsDone = cellsDone
	mu.Lock()
	rep.WarmRequests = warmDone
	if warmDone > 0 {
		rep.WarmHitRatio = float64(warmHits) / float64(warmDone)
	}
	rep.ReqLatencyUS = quantiles(latUS)
	mu.Unlock()
	if n := atomic.LoadInt64(&depthN); n > 0 {
		rep.QueueDepthMean = float64(atomic.LoadInt64(&depthSum)) / float64(n)
	}
	rep.QueueDepthMax = atomic.LoadInt64(&depthMax)

	if firstErr != nil {
		return &rep, fmt.Errorf("service: load run dropped campaigns (first error: %w)", firstErr)
	}
	return &rep, nil
}

// quantiles digests a latency sample (microseconds).
func quantiles(us []float64) Quantiles {
	if len(us) == 0 {
		return Quantiles{}
	}
	sort.Float64s(us)
	at := func(q float64) float64 {
		i := int(q * float64(len(us)-1))
		return us[i]
	}
	return Quantiles{P50: at(0.50), P95: at(0.95), P99: at(0.99)}
}

func logf(w io.Writer, format string, args ...any) {
	if w == nil {
		return
	}
	fmt.Fprintf(w, "cwspload: "+format+"\n", args...)
}
