package service

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// ChaosOptions configures a seeded crash-recovery campaign against a real
// cwspd subprocess: the harness submits keyed campaigns, SIGKILLs the
// daemon at seeded points in the queue/run/flush phases, restarts it over
// the same journal and cache, and asserts the durability contract.
type ChaosOptions struct {
	// Bin is the cwspd binary to torture (required).
	Bin string
	// Dir holds the daemon's cache and journal across kills (default: a
	// temp dir removed afterwards).
	Dir string

	// Campaigns is the base keyed workload submitted up front (default 6);
	// every kill adds one more, so the daemon never runs dry mid-campaign.
	Campaigns int
	// Kills is how many seeded SIGKILL points to inject (default 20),
	// cycling the queue → run → flush phases.
	Kills int
	// Seed drives the kill-point jitter and the campaign workloads.
	Seed int64

	// Daemon shape (defaults: queue 16, 1 worker, 1 job — one worker keeps
	// the admission queue observable mid-campaign).
	Queue, Workers, Jobs int

	// Poll is the campaign/stats poll interval (default 10ms).
	Poll time.Duration
	// PhaseTimeout bounds how long the harness waits for a phase condition
	// before killing anyway (default 10s).
	PhaseTimeout time.Duration

	// Log receives harness progress lines.
	Log io.Writer
}

// ChaosReport is the outcome of one chaos campaign.
type ChaosReport struct {
	Kills  int            `json:"kills"`
	Phases map[string]int `json:"phases"`

	// Campaigns is every campaign the daemon acknowledged; Lost lists
	// acked campaigns a restarted daemon no longer knew (the contract is
	// that this stays empty).
	Campaigns int      `json:"campaigns"`
	Lost      []string `json:"lost,omitempty"`

	// Recovered / Requeued / IdempotentHits are the final daemon counters
	// after the last (graceful) restart and idempotent replay.
	Recovered      int64 `json:"recovered"`
	Requeued       int64 `json:"requeued"`
	IdempotentHits int64 `json:"idempotent_hits"`

	// ByteIdentical reports that every campaign's final result matched the
	// uninterrupted reference run byte for byte.
	ByteIdentical bool  `json:"byte_identical"`
	WallMS        int64 `json:"wall_ms"`
}

func (o *ChaosOptions) defaults() {
	if o.Campaigns <= 0 {
		o.Campaigns = 6
	}
	if o.Kills <= 0 {
		o.Kills = 20
	}
	if o.Queue <= 0 {
		o.Queue = 16
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.Jobs <= 0 {
		o.Jobs = 1
	}
	if o.Poll <= 0 {
		o.Poll = 10 * time.Millisecond
	}
	if o.PhaseTimeout <= 0 {
		o.PhaseTimeout = 10 * time.Second
	}
}

// chaosSpec is the seeded unit of chaos work: a litmus campaign — real
// simulation work, deterministic by seed, big enough that a campaign is
// observable mid-run and mid-queue, cheap enough that twenty kill/restart
// cycles finish in CI time.
func chaosSpec(key string, seed int64) Spec {
	return Spec{
		Kind:    KindLitmus,
		Key:     key,
		Schemes: []string{"base", "cwsp"},
		Kernels: []string{"fast"},
		Cells:   40,
		Seed:    seed,
	}
}

// chaosDaemon manages one cwspd subprocess pinned to a fixed port so
// restarts land where the clients are already pointed.
type chaosDaemon struct {
	bin  string
	addr string
	args []string
	log  io.Writer

	cmd *exec.Cmd
}

func (d *chaosDaemon) base() string { return "http://" + d.addr }

// start execs the daemon and waits for its listening line.
func (d *chaosDaemon) start() error {
	cmd := exec.Command(d.bin, append([]string{"-addr", d.addr}, d.args...)...)
	if d.log != nil {
		cmd.Stderr = d.log
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("chaos: spawn %s: %w", d.bin, err)
	}
	lines := bufio.NewScanner(out)
	ready := false
	for lines.Scan() {
		if strings.Contains(lines.Text(), "listening on ") {
			ready = true
			break
		}
	}
	if !ready {
		cmd.Process.Kill()
		cmd.Wait()
		return fmt.Errorf("chaos: %s exited before listening on %s", d.bin, d.addr)
	}
	go func() {
		for lines.Scan() {
		}
	}()
	d.cmd = cmd
	return nil
}

// kill SIGKILLs the daemon — no drain, no fsync beyond what already
// happened — and reaps it.
func (d *chaosDaemon) kill() {
	if d.cmd == nil {
		return
	}
	d.cmd.Process.Kill()
	d.cmd.Wait()
	d.cmd = nil
}

// stop shuts the daemon down gracefully (SIGTERM, bounded drain).
func (d *chaosDaemon) stop() error {
	if d.cmd == nil {
		return nil
	}
	cmd := d.cmd
	d.cmd = nil
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		cmd.Process.Kill()
		cmd.Wait()
		return fmt.Errorf("chaos: SIGTERM: %w", err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(60 * time.Second):
		cmd.Process.Kill()
		<-done
		return fmt.Errorf("chaos: daemon did not drain within 60s of SIGTERM")
	}
}

// freePort reserves an ephemeral loopback port and releases it for the
// daemon to bind; the kernel's SO_REUSEADDR (set by Go listeners) lets
// every restart rebind it.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr, nil
}

// RunChaos runs the seeded crash-recovery campaign and returns the
// report; err is non-nil when the durability contract broke (a lost
// acked campaign, a result that changed bytes, a restart that refused to
// come up).
func RunChaos(ctx context.Context, opts ChaosOptions) (*ChaosReport, error) {
	opts.defaults()
	if opts.Bin == "" {
		return nil, fmt.Errorf("chaos: need the cwspd binary path (Bin)")
	}
	start := time.Now()

	dir := opts.Dir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "cwspd-chaos-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	addr, err := freePort()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(opts.Seed))

	// Compacting after every campaign makes each finished campaign rewrite
	// both logs, so kills in the flush phase land in and around compactions.
	d := &chaosDaemon{
		bin: opts.Bin, addr: addr, log: opts.Log,
		args: []string{
			"-cache-dir", filepath.Join(dir, "cache"),
			"-journal-dir", filepath.Join(dir, "journal"),
			"-compact-every", "1",
			"-lock-wait", "10s",
			"-queue", fmt.Sprint(opts.Queue),
			"-workers", fmt.Sprint(opts.Workers),
			"-jobs", fmt.Sprint(opts.Jobs),
			"-q",
		},
	}
	if err := d.start(); err != nil {
		return nil, err
	}
	defer d.kill()

	// The clients' retry budgets are the restart-survival mechanism under
	// test: big enough to outlast any kill→restart window in this harness.
	cli := &Client{Base: d.base(), ID: "chaos", Timeout: 10 * time.Second,
		Retries: 12, RetryBase: 25 * time.Millisecond, RetryCap: time.Second}

	logf := func(format string, args ...any) {
		if opts.Log != nil {
			fmt.Fprintf(opts.Log, "chaos: "+format+"\n", args...)
		}
	}

	rep := &ChaosReport{Kills: opts.Kills, Phases: map[string]int{}}
	specs := map[string]Spec{} // every acked campaign, by key
	var order []string
	submit := func(key string, seed int64) error {
		spec := chaosSpec(key, seed)
		v, err := cli.Submit(ctx, spec)
		if err != nil {
			var busy *BusyError
			if errors.As(err, &busy) {
				return nil // queue full: not acked, not tracked — and the queue phase is trivially ready
			}
			return fmt.Errorf("chaos: submit %s: %w", key, err)
		}
		if _, ok := specs[v.ID]; !ok {
			specs[v.ID] = spec
			order = append(order, v.ID)
		}
		return nil
	}

	for i := 0; i < opts.Campaigns; i++ {
		if err := submit(fmt.Sprintf("chaos-c%02d", i), opts.Seed+int64(i)); err != nil {
			return rep, err
		}
	}
	logf("%d base campaigns submitted at %s", len(order), d.base())

	// outstanding counts acked campaigns not yet terminal.
	outstanding := func() (int, error) {
		n := 0
		for _, id := range order {
			v, err := cli.Get(ctx, id)
			if err != nil {
				return 0, err
			}
			if !Terminal(v.State) {
				n++
			}
		}
		return n, nil
	}

	phases := [...]string{"queue", "run", "flush"}
	for k := 0; k < opts.Kills; k++ {
		phase := phases[k%len(phases)]
		// Keep cold work in flight so the phase condition can materialize —
		// a second campaign for the queue phase, so depth > 0 is observable
		// past whatever the workers grabbed.
		if err := submit(fmt.Sprintf("chaos-x%02d", k), opts.Seed+1000+int64(k)); err != nil {
			return rep, err
		}
		if phase == "queue" {
			// One cold campaign per worker plus one: even if every worker
			// grabs one immediately, the last sits queued.
			for b := 0; b <= opts.Workers; b++ {
				key := fmt.Sprintf("chaos-q%02d-%d", k, b)
				if err := submit(key, opts.Seed+2000+int64(k)*8+int64(b)); err != nil {
					return rep, err
				}
			}
		}

		// Wait (bounded) for the seeded kill point, then add seeded jitter
		// so consecutive kills in the same phase land at different offsets
		// inside it.
		st0, err := cli.Stats(ctx)
		if err != nil {
			return rep, fmt.Errorf("chaos: stats before kill %d: %w", k, err)
		}
		deadline := time.Now().Add(opts.PhaseTimeout)
		hit := phase + "-timeout"
		for time.Now().Before(deadline) {
			st, err := cli.Stats(ctx)
			if err != nil {
				return rep, fmt.Errorf("chaos: stats during kill %d: %w", k, err)
			}
			ready := false
			switch phase {
			case "queue":
				ready = st.QueueDepth > 0
			case "run":
				ready = st.Running > 0
			case "flush":
				// A campaign just reached its fsynced terminal record.
				ready = st.Completed+st.Failed > st0.Completed+st0.Failed
			}
			if ready {
				hit = phase
				break
			}
			select {
			case <-ctx.Done():
				return rep, ctx.Err()
			case <-time.After(opts.Poll):
			}
		}
		time.Sleep(time.Duration(rng.Intn(5_000)) * time.Microsecond)
		rep.Phases[hit]++

		d.kill()
		if err := d.start(); err != nil {
			return rep, fmt.Errorf("chaos: restart after kill %d (%s): %w", k, hit, err)
		}

		// The contract: nothing acked is ever lost.
		for _, id := range order {
			if _, err := cli.Get(ctx, id); err != nil {
				if IsNotFound(err) {
					rep.Lost = append(rep.Lost, id)
					continue
				}
				return rep, fmt.Errorf("chaos: kill %d: get %s after restart: %w", k, id, err)
			}
		}
		if n := len(rep.Lost); n > 0 {
			rep.Campaigns = len(order)
			return rep, fmt.Errorf("chaos: kill %d (%s): %d acked campaigns lost: %v", k, hit, n, rep.Lost)
		}
		logf("kill %d/%d (%s): restarted, %d campaigns intact", k+1, opts.Kills, hit, len(order))
	}

	// Drain: every acked campaign must reach done.
	for {
		n, err := outstanding()
		if err != nil {
			return rep, fmt.Errorf("chaos: drain: %w", err)
		}
		if n == 0 {
			break
		}
		select {
		case <-ctx.Done():
			return rep, ctx.Err()
		case <-time.After(opts.Poll):
		}
	}
	rep.Campaigns = len(order)

	// Final graceful restart: terminal results must come back from the
	// journal, and an idempotent resubmit must be answered terminally —
	// already done, no re-execution — straight from the recovered record.
	if err := d.stop(); err != nil {
		return rep, fmt.Errorf("chaos: graceful stop: %w", err)
	}
	if err := d.start(); err != nil {
		return rep, fmt.Errorf("chaos: final restart: %w", err)
	}
	results := map[string][]byte{}
	for _, id := range order {
		v, err := cli.Submit(ctx, specs[id])
		if err != nil {
			return rep, fmt.Errorf("chaos: idempotent resubmit %s: %w", id, err)
		}
		if !Terminal(v.State) {
			return rep, fmt.Errorf("chaos: resubmit %s re-admitted a journaled terminal campaign (state %s)", id, v.State)
		}
		if v.State != StateDone {
			return rep, fmt.Errorf("chaos: campaign %s ended %s: %s", id, v.State, v.Error)
		}
		raw, err := cli.Result(ctx, id)
		if err != nil {
			return rep, fmt.Errorf("chaos: result %s: %w", id, err)
		}
		results[id] = raw
	}
	st, err := cli.Stats(ctx)
	if err != nil {
		return rep, err
	}
	rep.Recovered, rep.Requeued, rep.IdempotentHits = st.Recovered, st.Requeued, st.IdempotentHits
	if rep.IdempotentHits < int64(len(order)) {
		return rep, fmt.Errorf("chaos: %d idempotent hits for %d resubmits — some keys re-ran", rep.IdempotentHits, len(order))
	}
	if err := d.stop(); err != nil {
		return rep, fmt.Errorf("chaos: final stop: %w", err)
	}
	logf("drained %d campaigns across %d kills; comparing against uninterrupted run", len(order), opts.Kills)

	// Reference: the same keyed specs against a fresh daemon that is never
	// killed. Byte-identity here is the paper's whole-system claim at the
	// service layer: crashing anywhere must not change what the experiment
	// computes.
	refDir, err := os.MkdirTemp("", "cwspd-chaos-ref-")
	if err != nil {
		return rep, err
	}
	defer os.RemoveAll(refDir)
	refAddr, err := freePort()
	if err != nil {
		return rep, err
	}
	ref := &chaosDaemon{
		bin: opts.Bin, addr: refAddr, log: opts.Log,
		args: []string{
			"-cache-dir", filepath.Join(refDir, "cache"),
			"-queue", fmt.Sprint(opts.Queue),
			"-workers", fmt.Sprint(opts.Workers),
			"-jobs", fmt.Sprint(opts.Jobs),
			"-q",
		},
	}
	if err := ref.start(); err != nil {
		return rep, err
	}
	defer ref.kill()
	refCli := &Client{Base: ref.base(), ID: "chaos-ref", Timeout: 10 * time.Second}
	for _, id := range order {
		v, _, err := refCli.SubmitWait(ctx, specs[id], opts.Poll)
		if err != nil {
			return rep, fmt.Errorf("chaos: reference %s: %w", id, err)
		}
		if v.State != StateDone {
			return rep, fmt.Errorf("chaos: reference %s ended %s: %s", id, v.State, v.Error)
		}
		raw, err := refCli.Result(ctx, v.ID)
		if err != nil {
			return rep, err
		}
		if !bytes.Equal(results[id], raw) {
			return rep, fmt.Errorf("chaos: campaign %s: crashed run and uninterrupted run disagree (%d vs %d bytes)",
				id, len(results[id]), len(raw))
		}
	}
	if err := ref.stop(); err != nil {
		return rep, err
	}
	rep.ByteIdentical = true
	rep.WallMS = time.Since(start).Milliseconds()
	return rep, nil
}
