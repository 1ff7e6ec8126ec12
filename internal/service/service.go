package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"cwsp/internal/bench"
	"cwsp/internal/compiler"
	"cwsp/internal/litmus"
	"cwsp/internal/recovery"
	"cwsp/internal/runner"
	"cwsp/internal/sim"
	"cwsp/internal/telemetry/live"
	"cwsp/internal/wal"
	"cwsp/internal/workloads"
)

// ErrQueueFull is returned by Submit when the admission queue is at
// capacity: the HTTP layer translates it to 429 + Retry-After, and clients
// back off and retry instead of the daemon buffering unboundedly.
var ErrQueueFull = errors.New("service: admission queue full")

// ErrClosing is returned by Submit once shutdown has begun.
var ErrClosing = errors.New("service: shutting down")

// ErrKeyConflict wraps every idempotency-key collision: the key is already
// bound to a campaign with a different spec. Test with errors.Is.
var ErrKeyConflict = errors.New("service: idempotency key bound to a different spec")

// KeyConflictError reports which key collided.
type KeyConflictError struct {
	Key string
}

func (e *KeyConflictError) Error() string {
	return fmt.Sprintf("service: idempotency key %q is bound to a campaign with a different spec", e.Key)
}

// Unwrap makes errors.Is(err, ErrKeyConflict) work.
func (e *KeyConflictError) Unwrap() error { return ErrKeyConflict }

// Options configure a daemon.
type Options struct {
	// Store is the shared content-addressed cache every campaign reads and
	// writes. When nil, CacheDir is opened (and owned — Close releases it).
	Store    *runner.Store
	CacheDir string
	// MaxStoreBytes bounds the shared cache (LRU eviction); 0 = unbounded.
	MaxStoreBytes int64
	// CompactEvery compacts the store after this many completed campaigns
	// (0 = only at Close).
	CompactEvery int

	// Queue is the admission-queue capacity (campaigns waiting beyond the
	// ones running); default 16. Workers is how many campaign-runner
	// goroutine groups execute concurrently (default 2); Jobs is each
	// campaign's pool width within its group (default 1 — campaigns are
	// the unit of concurrency, cells the unit of work).
	Queue   int
	Workers int
	Jobs    int

	// JournalDir enables the durable campaign journal: every admission is
	// fsynced to a write-ahead log there before Submit acknowledges it, and
	// on the next boot the journal is replayed — terminal campaigns are
	// restored with their results, campaigns that never reached a terminal
	// record are re-admitted and re-run against the warm content-addressed
	// store. Empty disables durability (the pre-journal behavior).
	JournalDir string
	// LockWait bounds how long New waits for the store and journal
	// directory flocks still held by a dying previous owner (a daemon
	// restarting over its own SIGKILLed corpse). 0 = fail fast.
	LockWait time.Duration

	// Bus receives live events from every campaign's pools (the daemon's
	// /metrics, /progress, /events come from it). Nil allocates one.
	Bus *live.Bus
	// Log, when set, receives one line per campaign transition.
	Log io.Writer

	// testRun, when set, replaces the campaign engines before the workers
	// start (unit tests inject controllable work — unexported, tests only).
	testRun func(c *Campaign) (json.RawMessage, error)
}

// Stats is the daemon digest at /api/v1/stats.
type Stats struct {
	QueueDepth int `json:"queue_depth"`
	QueueCap   int `json:"queue_cap"`
	Workers    int `json:"workers"`
	Jobs       int `json:"jobs"`

	Accepted  int64 `json:"accepted"`
	Rejected  int64 `json:"rejected"` // backpressured submissions (429)
	Running   int64 `json:"running"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	Aborted   int64 `json:"aborted"`

	// Recovered counts campaigns restored from the journal at boot;
	// Requeued of those were non-terminal and re-admitted. IdempotentHits
	// counts submissions answered by an existing campaign via its key.
	Recovered      int64 `json:"recovered,omitempty"`
	Requeued       int64 `json:"requeued,omitempty"`
	IdempotentHits int64 `json:"idempotent_hits,omitempty"`

	// AvgCampaignMS is the EWMA campaign duration behind Retry-After.
	AvgCampaignMS int64 `json:"avg_campaign_ms"`
	// RetryAfterMS is the current backoff hint handed to rejected clients.
	RetryAfterMS int64 `json:"retry_after_ms"`

	Store runner.StoreStats `json:"store"`
	// Journal digests the durable campaign journal (nil without
	// -journal-dir).
	Journal *JournalStats `json:"journal,omitempty"`
}

// Service is the campaign daemon: a bounded admission queue feeding a
// fixed set of campaign-runner goroutine groups, all sharing one
// content-addressed store and one live bus.
type Service struct {
	opts    Options
	store   *runner.Store
	owned   bool // store opened from CacheDir: Close releases it
	journal *Journal
	bus     *live.Bus

	queue chan *Campaign
	wg    sync.WaitGroup

	mu        sync.Mutex
	closing   bool
	campaigns map[string]*Campaign
	order     []string
	nextID    int
	accepted  int64
	rejected  int64
	running   int64
	completed int64
	failed    int64
	aborted   int64
	recovered int64
	requeued  int64
	idemHits  int64
	avgDur    time.Duration
	sinceComp int // completed campaigns since the last compaction

	// testRun, when set, replaces the campaign engines (unit tests inject
	// controllable work).
	testRun func(c *Campaign) (json.RawMessage, error)
}

// New builds and starts a daemon (worker groups begin draining the queue
// immediately).
func New(opts Options) (*Service, error) {
	if opts.Queue <= 0 {
		opts.Queue = 16
	}
	if opts.Workers <= 0 {
		opts.Workers = 2
	}
	if opts.Jobs <= 0 {
		opts.Jobs = 1
	}
	bus := opts.Bus
	if bus == nil {
		bus = live.NewBus()
	}
	s := &Service{
		opts:      opts,
		bus:       bus,
		campaigns: map[string]*Campaign{},
		testRun:   opts.testRun,
	}
	switch {
	case opts.Store != nil:
		s.store = opts.Store
	case opts.CacheDir != "":
		store, err := wal.OpenWait(opts.LockWait, func() (*runner.Store, error) { return runner.OpenStore(opts.CacheDir) })
		if err != nil {
			return nil, err
		}
		s.store = store
		s.owned = true
	default:
		return nil, fmt.Errorf("service: need Store or CacheDir (the shared cache is the point)")
	}
	s.store.SetBus(bus)
	if opts.MaxStoreBytes > 0 {
		s.store.SetMaxBytes(opts.MaxStoreBytes)
	}

	// Replay the durable journal before the workers start: terminal
	// campaigns are restored with their results; non-terminal ones are
	// re-admitted (the queue channel is widened so recovery can never
	// deadlock against the configured admission bound — Submit enforces
	// opts.Queue, not channel capacity).
	var entries []JournalEntry
	if opts.JournalDir != "" {
		j, err := wal.OpenWait(opts.LockWait, func() (*Journal, error) { return OpenJournal(opts.JournalDir) })
		if err != nil {
			if s.owned {
				s.store.Close()
			}
			return nil, err
		}
		s.journal = j
		entries = j.Entries()
	}
	requeue := 0
	for _, e := range entries {
		if !Terminal(e.State) {
			requeue++
		}
	}
	s.queue = make(chan *Campaign, opts.Queue+requeue)
	for _, e := range entries {
		s.recoverEntry(e)
	}

	for w := 0; w < opts.Workers; w++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// recoverEntry restores one journaled campaign at boot (campaign map,
// counters, and — for non-terminal entries — re-admission). Called from
// New before any worker or HTTP request exists, so no locking.
func (s *Service) recoverEntry(e JournalEntry) {
	c := campaignFromEntry(e)
	s.campaigns[c.ID] = c
	s.order = append(s.order, c.ID)
	// Keep generated IDs collision-free across restarts.
	var n int
	if _, err := fmt.Sscanf(c.ID, "c%06d", &n); err == nil && n > s.nextID {
		s.nextID = n
	}
	s.accepted++
	s.recovered++
	s.bus.Publish(live.Event{Kind: live.CampaignRecovered, Cell: c.ID, Outcome: e.State})
	switch e.State {
	case StateDone:
		s.completed++
	case StateFailed:
		s.failed++
	case StateAborted:
		s.aborted++
	default:
		s.requeued++
		s.queue <- c
	}
	s.logf("campaign %s recovered from journal (%s)", c.ID, e.State)
}

// Bus returns the daemon-wide live bus.
func (s *Service) Bus() *live.Bus { return s.bus }

// Store returns the shared store.
func (s *Service) Store() *runner.Store { return s.store }

// Submit admits one campaign. The spec is normalized and validated here —
// an invalid spec is the submitter's error, not a failed campaign. A full
// queue returns ErrQueueFull (the caller backs off by RetryAfter). A spec
// carrying an idempotency key maps onto the existing campaign under that
// key — including one recovered from the journal after a restart — and is
// answered without re-admission; the same key with a different spec is
// ErrKeyConflict. With a journal configured, the admission is fsynced to
// the write-ahead log before this returns: an acknowledged campaign
// survives SIGKILL. (The fsync happens under s.mu; admissions are rare
// next to campaign runtimes, and serializing them keeps the
// accept-then-journal order trivially crash-consistent.)
func (s *Service) Submit(spec Spec, clientID string) (*Campaign, error) {
	spec.Normalize()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closing {
		return nil, ErrClosing
	}
	id := spec.Key
	if id != "" {
		if c, ok := s.campaigns[id]; ok {
			if !equalSpec(c.Spec, spec) {
				return nil, &KeyConflictError{Key: id}
			}
			s.idemHits++
			s.logf("campaign %s resubmitted idempotently (client %s)", id, clientID)
			return c, nil
		}
	}
	// Admission bound is the configured queue depth, not the channel's
	// capacity (recovery widens the channel to re-admit journaled work).
	if len(s.queue) >= s.opts.Queue {
		s.rejected++
		return nil, ErrQueueFull
	}
	if id == "" {
		for {
			s.nextID++
			id = fmt.Sprintf("c%06d", s.nextID)
			if _, taken := s.campaigns[id]; !taken {
				break
			}
		}
	}
	c := newCampaign(id, spec, clientID)
	if s.journal != nil {
		if err := s.journal.Accepted(c.ID, clientID, spec, c.submitted.UnixNano()); err != nil {
			return nil, fmt.Errorf("service: journal admission: %w", err)
		}
	}
	// Cannot block: every sender holds s.mu and len(queue) < Queue <= cap.
	s.queue <- c
	s.accepted++
	s.campaigns[c.ID] = c
	s.order = append(s.order, c.ID)
	s.logf("campaign %s queued (%s, client %s)", c.ID, spec.Kind, clientID)
	return c, nil
}

// Get finds a campaign by ID.
func (s *Service) Get(id string) (*Campaign, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.campaigns[id]
	return c, ok
}

// List snapshots every campaign in admission order. The campaign pointers
// are resolved while s.mu is held — Submit writes s.campaigns concurrently,
// and an unlocked map read would be a fatal runtime race — but View() is
// called after unlocking so slow snapshots never serialize admissions.
func (s *Service) List() []View {
	s.mu.Lock()
	cs := make([]*Campaign, 0, len(s.order))
	for _, id := range s.order {
		cs = append(cs, s.campaigns[id])
	}
	s.mu.Unlock()
	views := make([]View, 0, len(cs))
	for _, c := range cs {
		views = append(views, c.View())
	}
	return views
}

// RetryAfter estimates how long a rejected client should back off: the
// queued work ahead of it at the observed campaign pace, spread across the
// worker groups. Clamped to [1s, 120s].
func (s *Service) RetryAfter() time.Duration {
	s.mu.Lock()
	avg := s.avgDur
	s.mu.Unlock()
	if avg <= 0 {
		avg = time.Second
	}
	d := time.Duration(len(s.queue)+1) * avg / time.Duration(s.opts.Workers)
	if d < time.Second {
		d = time.Second
	}
	if d > 2*time.Minute {
		d = 2 * time.Minute
	}
	return d
}

// Stats digests the daemon.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	st := Stats{
		QueueDepth: len(s.queue), QueueCap: cap(s.queue),
		Workers: s.opts.Workers, Jobs: s.opts.Jobs,
		Accepted: s.accepted, Rejected: s.rejected, Running: s.running,
		Completed: s.completed, Failed: s.failed, Aborted: s.aborted,
		Recovered: s.recovered, Requeued: s.requeued, IdempotentHits: s.idemHits,
		AvgCampaignMS: s.avgDur.Milliseconds(),
	}
	s.mu.Unlock()
	st.RetryAfterMS = s.RetryAfter().Milliseconds()
	st.Store = s.store.Stats()
	if s.journal != nil {
		js := s.journal.Stats()
		st.Journal = &js
	}
	return st
}

// Close drains the daemon: no new admissions, queued campaigns abort with
// a terminal state (never silently dropped), running campaigns finish,
// then the store is compacted and — when the daemon opened it — closed.
func (s *Service) Close() error {
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		return nil
	}
	s.closing = true
	s.mu.Unlock()

	// Abort everything still queued; workers see closing and abort
	// whatever they pull concurrently.
	for {
		select {
		case c := <-s.queue:
			s.abortCampaign(c)
		default:
			close(s.queue)
			s.wg.Wait()
			var err error
			// Workers are drained: every terminal record has been appended.
			// Fold the journal so the next boot replays one record per
			// campaign, then release it before the store.
			if s.journal != nil {
				if cerr := s.journal.Compact(); cerr != nil && !errors.Is(cerr, ErrJournalClosed) {
					err = cerr
				}
				if cerr := s.journal.Close(); err == nil {
					err = cerr
				}
			}
			if _, cerr := s.store.Compact(); cerr != nil && !errors.Is(cerr, runner.ErrClosed) && err == nil {
				err = cerr
			}
			if s.owned {
				if cerr := s.store.Close(); err == nil {
					err = cerr
				}
			}
			return err
		}
	}
}

func (s *Service) abortCampaign(c *Campaign) {
	finished, ok := c.abort("daemon shutting down")
	if !ok {
		return
	}
	if s.journal != nil {
		if err := s.journal.Terminal(c.ID, StateAborted, "daemon shutting down", nil, finished.UnixNano()); err != nil {
			s.logf("campaign %s journal abort: %v", c.ID, err)
		}
	}
	s.mu.Lock()
	s.aborted++
	s.mu.Unlock()
	s.logf("campaign %s aborted (shutdown)", c.ID)
}

// worker is one campaign-runner goroutine group: it pulls admitted
// campaigns and runs each to a terminal state. Campaign panics are
// isolated to a failed campaign, not a dead worker.
func (s *Service) worker() {
	defer s.wg.Done()
	for c := range s.queue {
		s.mu.Lock()
		closing := s.closing
		s.mu.Unlock()
		if closing {
			s.abortCampaign(c)
			continue
		}
		s.runCampaign(c)
	}
}

func (s *Service) runCampaign(c *Campaign) {
	started := c.setRunning()
	if s.journal != nil {
		// Best-effort (unfsynced): a lost running record recovers as
		// queued, which re-admits exactly like running.
		if jerr := s.journal.Running(c.ID, started.UnixNano()); jerr != nil {
			s.logf("campaign %s journal running: %v", c.ID, jerr)
		}
	}
	s.mu.Lock()
	s.running++
	s.mu.Unlock()
	s.logf("campaign %s running (%s)", c.ID, c.Spec.Kind)
	start := time.Now()

	result, err := s.runSpec(c)
	dur := time.Since(start)
	finished := c.finish(result, err)
	if s.journal != nil {
		state, msg := StateDone, ""
		if err != nil {
			state, msg = StateFailed, err.Error()
		}
		if jerr := s.journal.Terminal(c.ID, state, msg, result, finished.UnixNano()); jerr != nil {
			s.logf("campaign %s journal terminal: %v", c.ID, jerr)
		}
	}

	s.mu.Lock()
	s.running--
	if err != nil {
		s.failed++
	} else {
		s.completed++
	}
	if s.avgDur == 0 {
		s.avgDur = dur
	} else {
		s.avgDur = (4*s.avgDur + dur) / 5
	}
	s.sinceComp++
	compact := s.opts.CompactEvery > 0 && s.sinceComp >= s.opts.CompactEvery
	if compact {
		s.sinceComp = 0
	}
	s.mu.Unlock()

	if err != nil {
		s.logf("campaign %s failed in %v: %v", c.ID, dur.Round(time.Millisecond), err)
	} else {
		s.logf("campaign %s done in %v", c.ID, dur.Round(time.Millisecond))
	}
	if compact {
		if st, cerr := s.store.Compact(); cerr != nil {
			s.logf("store compaction: %v", cerr)
		} else {
			s.logf("store compacted: %d records, %d bytes (%d orphan files removed)",
				st.Records, st.Bytes, st.OrphanFiles)
		}
		if s.journal != nil {
			if cerr := s.journal.Compact(); cerr != nil {
				s.logf("journal compaction: %v", cerr)
			} else {
				js := s.journal.Stats()
				s.logf("journal compacted: %d campaigns (%d terminal), %d bytes",
					js.Campaigns, js.Terminal, js.SizeBytes)
			}
		}
	}
}

// runSpec dispatches to the campaign engine (isolating panics — a
// panicking campaign fails; the worker group survives).
func (s *Service) runSpec(c *Campaign) (result json.RawMessage, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("service: campaign %s panicked: %v", c.ID, r)
		}
	}()
	if s.testRun != nil {
		return s.testRun(c)
	}
	switch c.Spec.Kind {
	case KindSweep:
		return s.runSweep(c)
	case KindTorture:
		return s.runTorture(c)
	case KindLitmus:
		return s.runLitmus(c)
	}
	return nil, fmt.Errorf("service: unknown campaign kind %q", c.Spec.Kind)
}

// SweepResult is a sweep campaign's payload: per-experiment CSV report
// bytes. The CSV is assembled by the same serial code as a direct
// `cwspbench -exp <id> -csv` run, so a service-run sweep is byte-identical
// to a local one — the cache only changes how fast the bytes arrive.
type SweepResult struct {
	Experiments []string          `json:"experiments"`
	Scale       string            `json:"scale"`
	CSV         map[string]string `json:"csv"`
}

func (s *Service) runSweep(c *Campaign) (json.RawMessage, error) {
	h := bench.NewHarness(bench.Options{
		Scale:    c.Spec.ScaleOf(),
		PerApp:   c.Spec.PerApp,
		Jobs:     s.opts.Jobs,
		Store:    s.store,
		Bus:      s.bus,
		Progress: c.Progress,
	})
	res := SweepResult{Experiments: c.Spec.Experiments, Scale: c.Spec.Scale, CSV: map[string]string{}}
	for _, id := range c.Spec.Experiments {
		e, err := bench.ByID(id)
		if err != nil {
			return nil, err
		}
		rep, err := h.RunExperiment(e)
		if err != nil {
			return nil, err
		}
		res.CSV[id] = rep.CSV()
	}
	if err := h.Close(); err != nil {
		return nil, err
	}
	return json.Marshal(res)
}

func (s *Service) runTorture(c *Campaign) (json.RawMessage, error) {
	scale := c.Spec.ScaleOf()
	var targets []recovery.TortureTarget
	for _, name := range c.Spec.Workloads {
		w, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		prog, _, err := compiler.Compile(w.Build(scale), compiler.DefaultOptions())
		if err != nil {
			return nil, fmt.Errorf("service: compile %s: %w", name, err)
		}
		targets = append(targets, recovery.TortureTarget{
			Name: name, Prog: prog, Specs: []sim.ThreadSpec{{Fn: prog.Entry}},
		})
	}
	rep, _, err := recovery.RunTorture(targets, recovery.TortureOptions{
		Seed:           c.Spec.Seed,
		CellsPerTarget: c.Spec.Cells,
		Depth:          c.Spec.Depth,
		Points:         c.Spec.Points,
		Cfg:            sim.DefaultConfig(),
		Sch:            sim.CWSP(),
		Unsealed:       c.Spec.Unsealed,
		Jobs:           s.opts.Jobs,
		Store:          s.store,
		Bus:            s.bus,
		Progress:       c.Progress,
	})
	if err != nil {
		return nil, err
	}
	return rep.WriteJSON()
}

func (s *Service) runLitmus(c *Campaign) (json.RawMessage, error) {
	rep, _, err := litmus.RunCampaign(litmus.CampaignOptions{
		Seed:     c.Spec.Seed,
		Tests:    c.Spec.Cells,
		Schemes:  c.Spec.Schemes,
		Kernels:  c.Spec.Kernels,
		Unsealed: c.Spec.Unsealed,
		Jobs:     s.opts.Jobs,
		Store:    s.store,
		Bus:      s.bus,
		Progress: c.Progress,
	})
	if err != nil {
		return nil, err
	}
	return rep.WriteJSON()
}

func (s *Service) logf(format string, args ...any) {
	if s.opts.Log == nil {
		return
	}
	fmt.Fprintf(s.opts.Log, "cwspd: "+format+"\n", args...)
}
