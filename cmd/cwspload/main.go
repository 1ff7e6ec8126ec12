// Command cwspload is the load generator for the cwspd experiment
// daemon: N concurrent clients submit a mixed cold/warm campaign stream,
// absorb admission backpressure by honoring Retry-After, and measure what
// the fleet sees — requests/sec, cells/sec, warm cache-hit ratio,
// end-to-end request latency quantiles, and admission-queue contention.
//
// Point it at a running daemon, or let it bring one up itself:
//
//	cwspload -addr http://127.0.0.1:8080 -clients 32 -requests 4
//	cwspload -spawn -clients 32                  # in-process daemon
//	cwspload -spawn-bin ./bin/cwspd -clients 32  # real subprocess, SIGTERM shutdown
//
// -smoke runs the acceptance ritual instead of a storm: submit a small
// sweep twice, assert the repeat is byte-identical and served ≥99% from
// the shared cache, shut down cleanly.
//
//	cwspload -spawn-bin ./bin/cwspd -smoke
//
// -chaos runs the seeded crash-recovery campaign: spawn a real cwspd with
// a durable journal, SIGKILL it at seeded points (mid-queue, mid-campaign,
// mid-flush), restart it each time, and assert zero accepted-but-lost
// campaigns, idempotent replay of journaled results, and a final report
// byte-identical to an uninterrupted run.
//
//	cwspload -spawn-bin ./bin/cwspd -chaos -chaos-kills 20 -seed 1
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"

	"cwsp/internal/service"
	"cwsp/internal/telemetry"
)

func main() {
	var (
		addr     = flag.String("addr", "", "daemon base URL (e.g. http://127.0.0.1:8080)")
		spawn    = flag.Bool("spawn", false, "run an in-process daemon on a loopback port for the duration")
		spawnBin = flag.String("spawn-bin", "", "spawn this cwspd binary as a subprocess (SIGTERM shutdown) instead of -spawn")
		cacheDir = flag.String("cache-dir", "", "spawned daemon's cache dir (default: a temp dir, removed after)")
		jourDir  = flag.String("journal-dir", "", "spawned daemon's durable campaign journal dir (empty = no durability)")
		queue    = flag.Int("queue", 16, "spawned daemon's admission-queue capacity")
		workers  = flag.Int("workers", 2, "spawned daemon's campaign worker groups")
		jobs     = flag.Int("jobs", 1, "spawned daemon's per-campaign pool width")

		smoke    = flag.Bool("smoke", false, "acceptance mode: sweep twice, assert byte-identity + warm cache, clean shutdown")
		chaos    = flag.Bool("chaos", false, "crash-recovery mode: SIGKILL/restart a journaled daemon at seeded points (needs -spawn-bin)")
		chaosKls = flag.Int("chaos-kills", 20, "seeded SIGKILL points across the queue/run/flush phases")
		chaosCmp = flag.Int("chaos-campaigns", 6, "base keyed campaigns in the chaos workload (each kill adds one more)")
		chaosDir = flag.String("chaos-dir", "", "chaos daemon's cache+journal root (default: a temp dir, removed after)")
		clients  = flag.Int("clients", 32, "concurrent load clients")
		requests = flag.Int("requests", 4, "campaigns per client")
		warmFrac = flag.Float64("warm-frac", 0.5, "fraction of traffic drawn from the shared warm seed pool")
		warmSeed = flag.Int("warm-seeds", 4, "warm seed pool size")
		seed     = flag.Int64("seed", 1, "traffic-mix seed")
		poll     = flag.Duration("poll", 25*time.Millisecond, "campaign completion poll interval")

		metOut = flag.String("metrics-out", "", "write a telemetry manifest (with service info) to this file")
		quiet  = flag.Bool("q", false, "suppress progress lines")
	)
	flag.Parse()

	var log io.Writer
	if !*quiet {
		log = os.Stderr
	}

	// Chaos mode manages its own daemon lifecycle (it kills and restarts
	// the binary repeatedly), so it bypasses the spawn plumbing below.
	if *chaos {
		if *spawnBin == "" {
			fatal(fmt.Errorf("-chaos needs -spawn-bin <cwspd> (the harness SIGKILLs and restarts a real daemon)"))
		}
		rep, err := service.RunChaos(context.Background(), service.ChaosOptions{
			Bin: *spawnBin, Dir: *chaosDir,
			Campaigns: *chaosCmp, Kills: *chaosKls, Seed: *seed,
			Queue: *queue, Workers: *workers, Jobs: *jobs,
			Poll: *poll, Log: log,
		})
		if rep != nil {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			enc.Encode(rep)
		}
		if err != nil {
			fatal(err)
		}
		fmt.Println("cwspload: chaos ok (0 lost campaigns, idempotent replay, byte-identical results)")
		return
	}

	base := *addr
	var stop func() error
	switch {
	case *spawnBin != "":
		var err error
		base, stop, err = spawnSubprocess(*spawnBin, *cacheDir, *jourDir, *queue, *workers, *jobs, log)
		if err != nil {
			fatal(err)
		}
	case *spawn:
		var err error
		base, stop, err = spawnInProcess(*cacheDir, *jourDir, *queue, *workers, *jobs, log)
		if err != nil {
			fatal(err)
		}
	case base == "":
		fatal(fmt.Errorf("need -addr <url>, -spawn, or -spawn-bin <cwspd>"))
	}
	shutdown := func() {
		if stop == nil {
			return
		}
		if err := stop(); err != nil {
			fatal(fmt.Errorf("daemon shutdown: %w", err))
		}
		stop = nil
	}
	defer shutdown()

	ctx := context.Background()
	if *smoke {
		if err := runSmoke(ctx, base, *poll, log); err != nil {
			fatal(err)
		}
		shutdown()
		fmt.Println("cwspload: smoke ok (byte-identical repeat, warm cache, clean shutdown)")
		return
	}

	rep, err := service.RunLoad(ctx, base, service.LoadOptions{
		Clients:   *clients,
		Requests:  *requests,
		WarmFrac:  *warmFrac,
		WarmSeeds: *warmSeed,
		Seed:      *seed,
		Poll:      *poll,
		Log:       log,
	})
	if err != nil {
		fatal(err)
	}
	stats, statsErr := (&service.Client{Base: base, ID: "cwspload"}).Stats(ctx)
	shutdown()

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	enc.Encode(rep)

	if *metOut != "" {
		man := telemetry.NewManifest("cwspload")
		man.Service = &telemetry.ServiceInfo{
			Addr:       strings.TrimPrefix(base, "http://"),
			ClientID:   "cwspload",
			QueueDepth: int(rep.QueueDepthMax),
		}
		if statsErr == nil {
			man.Service.QueueCap = stats.QueueCap
			man.Service.Recovered = stats.Recovered
			man.Service.Requeued = stats.Requeued
			if stats.Journal != nil {
				man.Service.JournalRecords = stats.Journal.Appended
				man.Service.JournalTornBytes = stats.Journal.TornBytes
			}
		}
		raw, _ := json.Marshal(rep)
		man.Stats = raw
		fh, err := os.Create(*metOut)
		if err != nil {
			fatal(err)
		}
		if err := man.Write(fh); err != nil {
			fatal(err)
		}
		if err := fh.Close(); err != nil {
			fatal(err)
		}
	}
}

// runSmoke is the acceptance ritual: the same small sweep twice, repeat
// byte-identical and served from the shared cache.
func runSmoke(ctx context.Context, base string, poll time.Duration, log io.Writer) error {
	cli := &service.Client{Base: base, ID: "smoke"}
	spec := service.Spec{Kind: service.KindSweep, Experiments: []string{"fig06"}, Scale: "smoke"}

	fetch := func(pass string) ([]byte, string, error) {
		v, _, err := cli.SubmitWait(ctx, spec, poll)
		if err != nil {
			return nil, "", fmt.Errorf("%s sweep: %w", pass, err)
		}
		if v.State != service.StateDone {
			return nil, "", fmt.Errorf("%s sweep ended %s: %s", pass, v.State, v.Error)
		}
		raw, err := cli.Result(ctx, v.ID)
		return raw, v.ID, err
	}
	r1, _, err := fetch("cold")
	if err != nil {
		return err
	}
	r2, id2, err := fetch("warm")
	if err != nil {
		return err
	}
	if !bytes.Equal(r1, r2) {
		return fmt.Errorf("repeated sweep changed bytes (%d vs %d)", len(r1), len(r2))
	}
	p2, err := cli.Progress(ctx, id2)
	if err != nil {
		return err
	}
	if p2.HitRatio < 0.99 {
		return fmt.Errorf("warm sweep hit ratio %.3f (executed %d of %d), want >= 0.99",
			p2.HitRatio, p2.Executed, p2.Done)
	}
	if log != nil {
		fmt.Fprintf(log, "cwspload: smoke: %d cells, warm hit ratio %.3f\n", p2.Done, p2.HitRatio)
	}
	return nil
}

// spawnInProcess runs a daemon inside this process on a loopback port.
func spawnInProcess(cacheDir, journalDir string, queue, workers, jobs int, log io.Writer) (string, func() error, error) {
	dir, cleanup, err := ensureCacheDir(cacheDir)
	if err != nil {
		return "", nil, err
	}
	svc, err := service.New(service.Options{
		CacheDir: dir, JournalDir: journalDir,
		Queue: queue, Workers: workers, Jobs: jobs, Log: log,
	})
	if err != nil {
		cleanup()
		return "", nil, err
	}
	srv := service.NewServer(svc)
	bound, err := srv.Start("127.0.0.1:0")
	if err != nil {
		svc.Close()
		cleanup()
		return "", nil, err
	}
	if log != nil {
		fmt.Fprintf(log, "cwspload: in-process daemon on http://%s\n", bound)
	}
	stop := func() error {
		srv.Close()
		err := svc.Close()
		cleanup()
		return err
	}
	return "http://" + bound, stop, nil
}

// spawnSubprocess execs a cwspd binary on a free port, parses its
// listening line for the address, and shuts it down with SIGTERM.
func spawnSubprocess(bin, cacheDir, journalDir string, queue, workers, jobs int, log io.Writer) (string, func() error, error) {
	dir, cleanup, err := ensureCacheDir(cacheDir)
	if err != nil {
		return "", nil, err
	}
	args := []string{
		"-addr", "127.0.0.1:0",
		"-cache-dir", dir,
		"-queue", fmt.Sprint(queue),
		"-workers", fmt.Sprint(workers),
		"-jobs", fmt.Sprint(jobs),
	}
	if journalDir != "" {
		args = append(args, "-journal-dir", journalDir)
	}
	cmd := exec.Command(bin, args...)
	if log != nil {
		cmd.Stderr = log
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		cleanup()
		return "", nil, err
	}
	if err := cmd.Start(); err != nil {
		cleanup()
		return "", nil, fmt.Errorf("spawn %s: %w", bin, err)
	}

	// The daemon's first stdout line is the listening contract.
	lines := bufio.NewScanner(out)
	base := ""
	for lines.Scan() {
		if _, after, ok := strings.Cut(lines.Text(), "listening on "); ok {
			base = strings.TrimSpace(after)
			break
		}
	}
	if base == "" {
		cmd.Process.Kill()
		cmd.Wait()
		cleanup()
		return "", nil, fmt.Errorf("spawn %s: no listening line on stdout", bin)
	}
	if log != nil {
		fmt.Fprintf(log, "cwspload: spawned %s (pid %d) at %s\n", bin, cmd.Process.Pid, base)
	}
	// Keep draining stdout so the daemon never blocks on a full pipe.
	go func() {
		for lines.Scan() {
		}
	}()

	stop := func() error {
		defer cleanup()
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			cmd.Process.Kill()
			cmd.Wait()
			return fmt.Errorf("SIGTERM: %w", err)
		}
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		select {
		case err := <-done:
			return err
		case <-time.After(60 * time.Second):
			cmd.Process.Kill()
			<-done
			return fmt.Errorf("daemon did not drain within 60s of SIGTERM")
		}
	}
	return base, stop, nil
}

// ensureCacheDir resolves the spawned daemon's cache dir: the given path
// (kept), or a temp dir (removed by the returned cleanup).
func ensureCacheDir(dir string) (string, func(), error) {
	if dir != "" {
		return dir, func() {}, nil
	}
	tmp, err := os.MkdirTemp("", "cwspd-cache-")
	if err != nil {
		return "", nil, err
	}
	return tmp, func() { os.RemoveAll(tmp) }, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cwspload:", err)
	os.Exit(1)
}
