package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"cwsp/internal/service"
	"cwsp/internal/telemetry/live"
)

// warmSweeps are the smoke sweeps set-up prewarms and warm requests
// resubmit.
var warmSweeps = []string{"fig06", "fig08", "fig13", "fig19"}

const (
	// serviceClients is the number of closed-loop clients, one per CPU of
	// the machine the bounds were calibrated on; each holds at most one
	// connection.
	serviceClients = 2
	// pollEvery is how often a client polls its campaign.
	pollEvery = 2 * time.Millisecond
	// serviceRate is requests per second per client on the calibration
	// host.
	serviceRate = 70
)

// Request classes of the traffic mix.
const (
	warmSweep = iota
	coldLitmus
	coldTorture
)

// mixBlock is the traffic mix: every block of ten requests holds five warm
// resubmits, three cold litmus campaigns and two cold torture campaigns,
// in an order drawn from the seed. Fixing the counts per block keeps the
// mix the same on every seed, so seeds change inputs, not the load.
var mixBlock = []int{warmSweep, warmSweep, warmSweep, warmSweep, warmSweep, coldLitmus, coldLitmus, coldLitmus, coldTorture, coldTorture}

// daemon is an in-process cwspd: service.New with the daemon's shipped
// defaults over a fresh cache and journal, served on a loopback port.
type daemon struct {
	dir     string
	svc     *service.Service
	srv     *service.Server
	base    string
	http    *http.Client
	prewarm map[string][]byte // warm sweep → its result bytes
}

// startDaemon starts a daemon and prewarms the warm sweeps through it.
func startDaemon(e *env) (*daemon, error) {
	dir, err := e.tempDir("service-")
	if err != nil {
		return nil, err
	}
	// The values cmd/cwspd passes by default.
	svc, err := service.New(service.Options{
		CacheDir:   filepath.Join(dir, "cache"),
		JournalDir: filepath.Join(dir, "journal"),
		Queue:      16,
		Workers:    2,
		Jobs:       1,
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	srv := service.NewServer(svc)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		svc.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	d := &daemon{
		dir: dir, svc: svc, srv: srv, base: "http://" + addr,
		http:    &http.Client{Transport: &http.Transport{MaxConnsPerHost: serviceClients, MaxIdleConnsPerHost: serviceClients}},
		prewarm: map[string][]byte{},
	}

	// Submit every warm sweep first so both workers prewarm in parallel.
	ctx := context.Background()
	cli := d.client("prewarm")
	ids := map[string]string{}
	for _, x := range warmSweeps {
		v, err := cli.Submit(ctx, sweepSpec(x))
		if err != nil {
			d.close()
			return nil, fmt.Errorf("prewarm %s: %w", x, err)
		}
		ids[x] = v.ID
	}
	for _, x := range warmSweeps {
		v := service.View{ID: ids[x]}
		for !service.Terminal(v.State) {
			time.Sleep(pollEvery)
			if v, err = cli.Get(ctx, ids[x]); err != nil {
				d.close()
				return nil, fmt.Errorf("prewarm %s: %w", x, err)
			}
		}
		raw, err := cli.Result(ctx, v.ID)
		if err != nil {
			d.close()
			return nil, fmt.Errorf("prewarm %s ended %s: %w", x, v.State, err)
		}
		e.check.service("smoke/"+x, raw)
		d.prewarm[x] = raw
	}
	return d, nil
}

func (d *daemon) client(id string) *service.Client {
	return &service.Client{Base: d.base, ID: id, HTTP: d.http}
}

// close shuts the daemon down the way cwspd does on SIGTERM and removes its
// directories.
func (d *daemon) close() error {
	d.srv.Close()
	err := d.svc.Close()
	d.http.CloseIdleConnections()
	os.RemoveAll(d.dir)
	return err
}

func sweepSpec(id string) service.Spec {
	return service.Spec{Kind: service.KindSweep, Experiments: []string{id}}
}

// reqStat is one request's timing, split by stage.
type reqStat struct {
	class                                  int
	kind                                   string
	lat, submit, queue, run, poll, fetched time.Duration
	polls, rejected                        int
}

// runService starts the daemon (the set-up, repeated) and drives it with
// closed-loop clients, each sending the same number of requests. An op is
// one request: Submit, Get polled until the campaign is terminal, then
// Result.
func runService(e *env) (*phase, error) {
	ph := newPhase()
	ph.clients = serviceClients
	var d *daemon
	for i := 0; i < e.opt.setupReps; i++ {
		if d != nil {
			if err := d.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if d, err = startDaemon(e); err != nil {
			return nil, err
		}
		ph.setup = append(ph.setup, time.Since(t0).Seconds())
	}

	before := d.svc.Stats()
	flushes := d.svc.Bus().KindCount(live.StoreFlush)
	var mu sync.Mutex
	var reqs []reqStat
	var wg sync.WaitGroup
	m := begin()
	for ci := 0; ci < serviceClients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			for _, r := range d.drive(e, ci) {
				mu.Lock()
				reqs = append(reqs, r)
				mu.Unlock()
			}
		}(ci)
	}
	wg.Wait()
	wall := time.Since(m.start)
	m.end(ph)
	after := d.svc.Stats()
	flushes = d.svc.Bus().KindCount(live.StoreFlush) - flushes
	if err := d.close(); err != nil {
		return nil, err
	}

	var submit, queue, poll, fetched, warmRun, coldRun, warmLat, coldLat []float64
	var polls, rejected int
	for _, r := range reqs {
		ph.op(r.kind, r.lat)
		submit = append(submit, ms(r.submit))
		queue = append(queue, ms(r.queue))
		poll = append(poll, ms(r.poll))
		fetched = append(fetched, ms(r.fetched))
		polls += r.polls
		rejected += r.rejected
		if r.class == warmSweep {
			warmRun = append(warmRun, ms(r.run))
			warmLat = append(warmLat, ms(r.lat))
		} else {
			coldRun = append(coldRun, ms(r.run))
			coldLat = append(coldLat, ms(r.lat))
		}
	}
	ph.layer["service.req_per_s"] = float64(ph.ops) / wall.Seconds()
	ph.layer["service.req_p50_ms"] = quantile(ph.lat, 0.5)
	ph.layer["service.req_p99_ms"] = quantile(ph.lat, 0.99)
	ph.layer["service.submit_p50_ms"] = quantile(submit, 0.5)
	ph.layer["service.submit_p99_ms"] = quantile(submit, 0.99)
	ph.layer["service.queue_p99_ms"] = quantile(queue, 0.99)
	ph.layer["service.run_warm_p50_ms"] = quantile(warmRun, 0.5)
	ph.layer["service.run_cold_p50_ms"] = quantile(coldRun, 0.5)
	ph.layer["service.poll_p50_ms"] = quantile(poll, 0.5)
	ph.layer["service.result_p50_ms"] = quantile(fetched, 0.5)
	ph.layer["service.warm_req_p50_ms"] = quantile(warmLat, 0.5)
	ph.layer["service.cold_req_p50_ms"] = quantile(coldLat, 0.5)
	ph.layer["runner.store.records"] = float64(after.Store.Records)
	ph.layer["runner.store.bytes"] = float64(after.Store.Bytes)
	if after.Journal != nil && before.Journal != nil {
		ph.layer["service.journal.bytes"] = float64(after.Journal.SizeBytes)
		ph.layer["service.journal.appended"] = float64(after.Journal.Appended-before.Journal.Appended) / float64(max(ph.ops, 1))
	}
	if ph.ops > 0 {
		ph.layer["service.polls_per_req"] = float64(polls) / float64(ph.ops)
		ph.layer["service.rejected_429"] = float64(rejected) / float64(ph.ops)
		ph.layer["runner.store.flushes"] = float64(flushes) / float64(ph.ops)
	}
	return ph, nil
}

// drive is one closed-loop client: it sends its next request only after
// the previous one completed. It returns the timings of the requests whose
// results were correct.
func (d *daemon) drive(e *env, ci int) []reqStat {
	ctx := context.Background()
	cli := d.client(fmt.Sprintf("client-%d", ci))
	rng := rand.New(rand.NewSource(e.opt.seed*1_000_003 + int64(ci)))
	var block []int
	var out []reqStat
	for i, n := 0, e.units(serviceRate); i < n; i++ {
		if len(block) == 0 {
			block = append(block, mixBlock...)
			rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		}
		class := block[0]
		block = block[1:]
		seed := e.opt.seed*1_000_000 + int64(ci)*100_000 + int64(i)
		var spec service.Spec
		var sweepID string
		switch class {
		case warmSweep:
			sweepID = warmSweeps[rng.Intn(len(warmSweeps))]
			spec = sweepSpec(sweepID)
		case coldLitmus:
			spec = service.Spec{Kind: service.KindLitmus, Cells: 2, Seed: seed}
		case coldTorture:
			spec = service.Spec{Kind: service.KindTorture, Workloads: []string{"tatp"}, Cells: 1, Seed: seed}
		}
		r, raw, err := d.request(ctx, e.tr, cli, spec, ci)
		if err == nil {
			err = d.verify(class, sweepID, raw)
		}
		if err != nil {
			e.check.fail("client %d request %d (%s): %v", ci, i, spec.Kind, err)
			continue
		}
		e.check.pass()
		r.class, r.kind = class, spec.Kind
		if class == warmSweep {
			r.kind += "/" + sweepID
		}
		out = append(out, r)
	}
	return out
}

// request sends one request through the public client and times its
// stages. Queue and run come from the campaign's own timestamps.
func (d *daemon) request(ctx context.Context, tr *tracer, cli *service.Client, spec service.Spec, lane int) (reqStat, []byte, error) {
	var r reqStat
	t0 := time.Now()
	var v service.View
	for {
		var err error
		v, err = cli.Submit(ctx, spec)
		if err == nil {
			break
		}
		var busy *service.BusyError
		if !errors.As(err, &busy) {
			return r, nil, err
		}
		r.rejected++
		time.Sleep(max(busy.RetryAfter/8, 20*time.Millisecond))
	}
	t1 := time.Now()
	for !service.Terminal(v.State) {
		time.Sleep(pollEvery)
		var err error
		if v, err = cli.Get(ctx, v.ID); err != nil {
			return r, nil, err
		}
		r.polls++
	}
	t2 := time.Now()
	if v.State != service.StateDone {
		return r, nil, fmt.Errorf("campaign %s ended %s: %s", v.ID, v.State, v.Error)
	}
	raw, err := cli.Result(ctx, v.ID)
	t3 := time.Now()
	if err != nil {
		return r, nil, err
	}
	r.lat, r.submit, r.fetched = t3.Sub(t0), t1.Sub(t0), t3.Sub(t2)
	r.queue = time.Duration(v.StartedNS - v.SubmittedNS)
	r.run = time.Duration(v.FinishedNS - v.StartedNS)
	// Queue and run overlap the submit call when a campaign starts before
	// its acknowledgement arrives, so poll is measured, not derived: the
	// time from the campaign ending (or the submit returning, if later)
	// until the client saw it terminal.
	r.poll = t2.Sub(time.Unix(0, max(v.FinishedNS, t1.UnixNano())))

	if tr != nil {
		id := tr.newID()
		tr.addNS(id, 0, "request", v.ID, lane, t0.UnixNano(), t3.UnixNano())
		tr.add(tr.newID(), id, "submit", lane, t0, t1)
		tr.addNS(tr.newID(), id, "queue", "", lane, v.SubmittedNS, v.StartedNS)
		tr.addNS(tr.newID(), id, "run", "", lane, v.StartedNS, v.FinishedNS)
		tr.addNS(tr.newID(), id, "poll", "", lane, max(v.FinishedNS, t1.UnixNano()), t2.UnixNano())
		tr.add(tr.newID(), id, "result", lane, t2, t3)
	}
	return r, raw, nil
}

// verify checks a result: a warm sweep returns its prewarm bytes, a litmus
// campaign has no violation or error, a torture campaign no diverged or
// errored cell.
func (d *daemon) verify(class int, sweepID string, raw []byte) error {
	if class == warmSweep {
		if !bytes.Equal(raw, d.prewarm[sweepID]) {
			return fmt.Errorf("warm %s result differs from its prewarm bytes", sweepID)
		}
		return nil
	}
	var totals struct {
		Totals struct {
			Violations int   `json:"violations"`
			Diverged   int64 `json:"diverged"`
			Errors     int64 `json:"errors"`
		} `json:"totals"`
	}
	if err := json.Unmarshal(raw, &totals); err != nil {
		return err
	}
	t := totals.Totals
	if t.Violations != 0 || t.Diverged != 0 || t.Errors != 0 {
		return fmt.Errorf("%d violations, %d diverged, %d errors", t.Violations, t.Diverged, t.Errors)
	}
	return nil
}
