package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"sync"
	"testing"
	"time"

	"cwsp/internal/bench"
	"cwsp/internal/workloads"
)

// startDaemon builds a service + HTTP server on an ephemeral port and
// returns a client factory and a teardown.
func startDaemon(t *testing.T, opts Options) (*Service, string) {
	t.Helper()
	if opts.CacheDir == "" && opts.Store == nil {
		opts.CacheDir = t.TempDir()
	}
	svc, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(svc)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		svc.Close()
	})
	return svc, "http://" + addr
}

func waitState(t *testing.T, c *Campaign, state string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for c.State() != state {
		if time.Now().After(deadline) {
			t.Fatalf("campaign %s stuck in %s, want %s", c.ID, c.State(), state)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// A spec's scale keeps the daemon's smoke default for an empty or
// unknown name, so a typo never changes the spec's cache key shape.
func TestSpecScaleDefault(t *testing.T) {
	for name, want := range map[string]workloads.Scale{
		"": workloads.Smoke, "smok": workloads.Smoke, "Quick": workloads.Smoke,
		"smoke": workloads.Smoke, "quick": workloads.Quick, "full": workloads.Full,
	} {
		s := Spec{Kind: KindSweep, Scale: name}
		if got := s.ScaleOf(); got != want {
			t.Errorf("ScaleOf(%q) before Normalize = %s, want %s", name, got.Name, want.Name)
		}
		s.Normalize()
		if s.Scale != want.Name || s.ScaleOf() != want {
			t.Errorf("Normalize(%q) = %q (%s), want %q", name, s.Scale, s.ScaleOf().Name, want.Name)
		}
	}
}

// A sweep submitted twice is byte-identical both times, identical to a
// direct in-process harness run of the same spec, and the repeat is
// served entirely from the shared content-addressed cache.
func TestServiceSweepByteIdentityAndWarmCache(t *testing.T) {
	_, base := startDaemon(t, Options{Workers: 1})
	cli := &Client{Base: base, ID: "test"}
	ctx := context.Background()

	spec := Spec{Kind: KindSweep, Experiments: []string{"fig06"}, Scale: "smoke"}
	v1, _, err := cli.SubmitWait(ctx, spec, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if v1.State != StateDone {
		t.Fatalf("first sweep %s: %s", v1.State, v1.Error)
	}
	r1, err := cli.Result(ctx, v1.ID)
	if err != nil {
		t.Fatal(err)
	}

	v2, _, err := cli.SubmitWait(ctx, spec, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := cli.Result(ctx, v2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r1, r2) {
		t.Fatalf("repeated sweep changed bytes:\n%s\nvs\n%s", r1, r2)
	}

	// The repeat hit the shared cache for every cell.
	p2, err := cli.Progress(ctx, v2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Executed != 0 || p2.Hits == 0 {
		t.Fatalf("warm sweep executed=%d hits=%d, want fully cached", p2.Executed, p2.Hits)
	}
	if p2.HitRatio < 0.99 {
		t.Fatalf("warm hit ratio %.3f, want >= 0.99", p2.HitRatio)
	}

	// Byte-identity against a direct (no-service) harness run.
	var got SweepResult
	if err := json.Unmarshal(r1, &got); err != nil {
		t.Fatal(err)
	}
	h := bench.NewHarness(bench.Options{Scale: workloads.Smoke})
	e, err := bench.ByID("fig06")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := h.RunExperiment(e)
	if err != nil {
		t.Fatal(err)
	}
	if got.CSV["fig06"] != rep.CSV() {
		t.Fatalf("service CSV diverges from direct run:\n%q\nvs\n%q", got.CSV["fig06"], rep.CSV())
	}
}

// List racing Submit must be a clean snapshot: the pre-fix List read the
// campaigns map after releasing s.mu while Submit wrote it — a concurrent
// map read/write the runtime kills as a fatal error (GET /campaigns racing
// POST /campaigns crashed the daemon). Run under -race.
func TestServiceListDuringSubmitRace(t *testing.T) {
	svc, _ := startDaemon(t, Options{Queue: 256, Workers: 2})
	svc.testRun = func(c *Campaign) (json.RawMessage, error) {
		return json.RawMessage(`{}`), nil
	}
	litmus := Spec{Kind: KindLitmus, Cells: 1}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 4; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					svc.List()
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		if _, err := svc.Submit(litmus, "race"); err != nil && !errors.Is(err, ErrQueueFull) {
			t.Fatal(err)
		}
	}
	close(stop)
	readers.Wait()
	if len(svc.List()) == 0 {
		t.Fatal("List saw no campaigns")
	}
}

// A full admission queue rejects with ErrQueueFull (HTTP: 429 +
// Retry-After) and a patient client absorbs the backpressure without
// losing the campaign.
func TestServiceBackpressure(t *testing.T) {
	release := make(chan struct{})
	svc, base := startDaemon(t, Options{Queue: 1, Workers: 1})
	svc.testRun = func(c *Campaign) (json.RawMessage, error) {
		<-release
		return json.RawMessage(`{"ok":true}`), nil
	}
	litmus := Spec{Kind: KindLitmus, Cells: 1}

	// c1 occupies the single worker; c2 fills the queue.
	c1, err := svc.Submit(litmus, "t")
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c1, StateRunning)
	if _, err := svc.Submit(litmus, "t"); err != nil {
		t.Fatal(err)
	}

	// The queue is full: direct Submit gets the typed error, HTTP gets
	// 429 with a positive Retry-After.
	if _, err := svc.Submit(litmus, "t"); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("full queue: err=%v, want ErrQueueFull", err)
	}
	cli := &Client{Base: base, ID: "t"}
	_, err = cli.Submit(context.Background(), litmus)
	var busy *BusyError
	if !errors.As(err, &busy) {
		t.Fatalf("HTTP submit on full queue: err=%v, want *BusyError", err)
	}
	if busy.RetryAfter <= 0 {
		t.Fatalf("429 without a Retry-After hint: %+v", busy)
	}

	// A patient client retries through the backpressure and completes.
	done := make(chan error, 1)
	go func() {
		v, rejected, err := cli.SubmitWait(context.Background(), litmus, 2*time.Millisecond)
		if err == nil && rejected == 0 {
			err = errors.New("SubmitWait was never rejected — queue did not backpressure")
		}
		if err == nil && v.State != StateDone {
			err = errors.New("campaign ended " + v.State)
		}
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let it absorb at least one 429
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	st := svc.Stats()
	if st.Rejected == 0 {
		t.Fatalf("stats recorded no rejections: %+v", st)
	}
	if lost := st.Failed + st.Aborted; lost != 0 {
		t.Fatalf("campaigns lost under backpressure: %+v", st)
	}
}

// Shutdown drains running campaigns to completion and aborts queued ones
// with a terminal state; submissions after shutdown are refused.
func TestServiceGracefulShutdown(t *testing.T) {
	release := make(chan struct{})
	svc, _ := startDaemon(t, Options{Queue: 4, Workers: 1})
	svc.testRun = func(c *Campaign) (json.RawMessage, error) {
		<-release
		return json.RawMessage(`{}`), nil
	}
	litmus := Spec{Kind: KindLitmus, Cells: 1}

	c1, err := svc.Submit(litmus, "t")
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c1, StateRunning)
	c2, err := svc.Submit(litmus, "t")
	if err != nil {
		t.Fatal(err)
	}

	closed := make(chan error, 1)
	go func() { closed <- svc.Close() }()
	time.Sleep(10 * time.Millisecond)
	close(release)
	if err := <-closed; err != nil {
		t.Fatal(err)
	}

	if c1.State() != StateDone {
		t.Fatalf("running campaign not drained: %s", c1.State())
	}
	if c2.State() != StateAborted {
		t.Fatalf("queued campaign not aborted: %s", c2.State())
	}
	if _, err := svc.Submit(litmus, "t"); !errors.Is(err, ErrClosing) {
		t.Fatalf("post-shutdown submit: err=%v, want ErrClosing", err)
	}
}
