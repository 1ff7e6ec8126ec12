package service

import (
	"context"
	"encoding/json"
	"errors"
	"testing"
	"time"
)

// The full acceptance path: 32 concurrent clients over mixed cold/warm
// litmus traffic against a live daemon, zero dropped campaigns, warm
// traffic served from the shared cache, backpressure absorbed by retry.
func TestServiceLoadMixedTraffic(t *testing.T) {
	if testing.Short() {
		t.Skip("load test (seconds of simulated campaigns)")
	}
	svc, base := startDaemon(t, Options{Queue: 8, Workers: 2})

	rep, err := RunLoad(context.Background(), base, LoadOptions{
		Clients:   32,
		Requests:  2,
		WarmFrac:  0.5,
		WarmSeeds: 2,
		Seed:      7,
		Poll:      5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clients != 32 {
		t.Fatalf("clients=%d, want 32", rep.Clients)
	}
	if rep.Requests != 64 {
		t.Fatalf("requests=%d, want 64", rep.Requests)
	}
	// Each single-cell litmus campaign runs one base and one cwsp cell.
	if rep.CellsDone != 128 {
		t.Fatalf("cells_done=%d, want 128 (64 campaigns x 2 cells)", rep.CellsDone)
	}
	if rep.Dropped != 0 {
		t.Fatalf("dropped %d campaigns under load", rep.Dropped)
	}
	if rep.WarmRequests > 0 && rep.WarmHitRatio < 0.99 {
		t.Fatalf("warm hit ratio %.3f, want >= 0.99 (prewarmed pool)", rep.WarmHitRatio)
	}
	if rep.ReqLatencyUS.P50 <= 0 || rep.ReqLatencyUS.P99 < rep.ReqLatencyUS.P50 {
		t.Fatalf("broken latency digest: %+v", rep.ReqLatencyUS)
	}

	// With 32 clients and 8 queue slots + 2 workers, admission must have
	// pushed back at least once; nothing may be lost to it.
	st := svc.Stats()
	if st.Rejected == 0 {
		t.Logf("note: no 429s observed (fast machine) — backpressure path covered by TestServiceBackpressure")
	}
	if st.Completed != 64+2 { // 64 storm campaigns + 2 prewarm
		t.Fatalf("completed=%d, want 66: %+v", st.Completed, st)
	}
}

// A campaign that ends in a non-done terminal state is lost work: RunLoad
// must return an error (cwspload exits non-zero), not just count it in
// Dropped.
func TestServiceLoadFailsOnDroppedCampaigns(t *testing.T) {
	svc, base := startDaemon(t, Options{Queue: 8, Workers: 2})
	svc.testRun = func(c *Campaign) (json.RawMessage, error) {
		return nil, errors.New("injected campaign failure")
	}

	rep, err := RunLoad(context.Background(), base, LoadOptions{
		Clients:   2,
		Requests:  1,
		NoPrewarm: true,
		Seed:      3,
		Poll:      2 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("RunLoad returned nil error despite failed campaigns")
	}
	if rep == nil || rep.Dropped != 2 {
		t.Fatalf("report=%+v, want Dropped=2", rep)
	}
}
