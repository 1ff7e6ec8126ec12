package main

import (
	"encoding/json"
	"io"
	"os"
	"slices"
	"strings"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the self-test compares.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// tinyOptions shrinks a workload to one round, a 2-experiment smoke sweep,
// or 20 service requests, with one set-up.
func tinyOptions(t *testing.T, workload string) options {
	opt := defaultOptions()
	opt.workDir = t.TempDir()
	opt.setupReps = 1
	opt.rounds = 1
	opt.reproExps = warmupExps
	if workload == "service-mix" {
		opt.rounds = 20 / serviceClients
	}
	return opt
}

func TestWorkloadsEmitBenchmarkMetrics(t *testing.T) {
	spec := readSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	for _, w := range workloadList {
		if !slices.Contains(names, w.name) {
			t.Errorf("workload %s missing from BENCHMARK.json", w.name)
		}
	}
	if len(names) != len(workloadList) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(names), len(workloadList))
	}

	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadList {
		for _, traced := range []bool{false, true} {
			opt := tinyOptions(t, w.name)
			want := map[string]string{}
			if traced {
				opt.traceDir = t.TempDir()
				for _, m := range spec.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range spec.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			res, chk, err := measure(w, opt, g, io.Discard)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("%s (traced %v): %d of %d ops failed: %s", w.name, traced, res.Failed, res.Attempted, strings.Join(chk.errs, "; "))
			}
			got := map[string]string{}
			for k, v := range res.Metrics {
				got[k] = v.Unit
			}
			for k, u := range want {
				if got[k] != u {
					t.Errorf("%s (traced %v): metric %s: unit %q, BENCHMARK.json says %q", w.name, traced, k, got[k], u)
				}
			}
			for k := range got {
				if _, ok := want[k]; !ok {
					t.Errorf("%s (traced %v): metric %s is not in BENCHMARK.json", w.name, traced, k)
				}
			}
		}
	}
}

func TestDoctoredGoldenFails(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	key := simBaseCells[0].key()
	if _, ok := g.Sim[key]; !ok {
		t.Fatalf("no golden for %s", key)
	}
	g.Sim[key] = strings.Repeat("0", 64)
	w, _ := workloadByName("sim-base")
	res, chk, err := measure(w, tinyOptions(t, w.name), g, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Fatalf("doctored golden passed: %+v", res)
	}
	if len(chk.errs) == 0 || !strings.Contains(chk.errs[0], key) {
		t.Fatalf("failure does not name the cell: %v", chk.errs)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}
