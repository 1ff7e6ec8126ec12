package service

import (
	"encoding/json"
	"runtime"
	"testing"
)

// TestFinishedCampaignRetention pins what the daemon keeps per finished
// campaign. Every admitted campaign stays in the campaign map for the
// daemon's life (GET by ID, List, idempotent resubmission), so per-campaign
// state that outlives the run — spec, timestamps, pace counters, result
// bytes — must stay small: a daemon serving millions of campaigns would
// otherwise grow its live heap, and its GC cost, without bound.
func TestFinishedCampaignRetention(t *testing.T) {
	svc, err := New(Options{
		CacheDir: t.TempDir(), Workers: 2,
		testRun: func(c *Campaign) (json.RawMessage, error) {
			return json.RawMessage(`{"ok":true}`), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	run := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			c, err := svc.Submit(Spec{Kind: KindLitmus, Cells: 1}, "t")
			if err != nil {
				t.Fatal(err)
			}
			<-c.Done()
			if c.State() != StateDone {
				t.Fatalf("campaign %s ended %s", c.ID, c.State())
			}
		}
	}
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	run(20) // warm the worker goroutines, store, and map
	before := heap()
	const campaigns = 200
	run(campaigns)
	per := (int64(heap()) - int64(before)) / campaigns
	t.Logf("live heap per finished campaign: %d bytes", per)
	if per >= 16<<10 {
		t.Errorf("each finished campaign keeps %d bytes of live heap, want < 16 KiB", per)
	}
}
