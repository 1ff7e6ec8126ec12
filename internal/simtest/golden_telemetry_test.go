package simtest

import (
	"crypto/sha256"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"cwsp/internal/compiler"
	"cwsp/internal/schemes"
	"cwsp/internal/sim"
	"cwsp/internal/telemetry"
	"cwsp/internal/workloads"
)

// TestGoldenMultiCoreTelemetry pins the sampled telemetry series (every
// 300 cycles) of the 2- and 4-core worker under cwsp and capri, sized as
// `cwspsim -mt N` sizes it, as one digest per run. The stats goldens cannot see these gauges, and on a
// multi-core machine the sampler reads each core's PB, RBT and write
// buffer behind that core's clock, so a change to how the structures
// count their entries shows here first.
func TestGoldenMultiCoreTelemetry(t *testing.T) {
	p, _, err := compiler.Compile(workloads.BuildMTWorker(), compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, cores := range []int{2, 4} {
		for _, sn := range []string{"cwsp", "capri"} {
			sch, _ := schemes.ByName(sn)
			cfg := schemes.ConfigFor(sch, sim.DefaultConfig())
			var specs []sim.ThreadSpec
			for i := 0; i < cores; i++ {
				specs = append(specs, sim.ThreadSpec{Fn: "worker", Args: []int64{int64(i), int64(4096 / cores)}})
			}
			var digests []string
			for _, kc := range []sim.Config{refKernel(cfg), cfg} {
				m, err := sim.NewThreaded(p, kc, sch, specs)
				if err != nil {
					t.Fatal(err)
				}
				tel := m.EnableTelemetry(sim.TelemetryOptions{SampleInterval: 300, SampleCap: 1 << 16})
				if _, err := m.Run(); err != nil {
					t.Fatalf("mt%d %s %s: %v", cores, sn, kernelName(kc), err)
				}
				digests = append(digests, seriesDigest(tel.Sampler))
			}
			if digests[0] != digests[1] {
				t.Errorf("mt%d %s: reference kernel's series %s, threaded %s", cores, sn, digests[0], digests[1])
			}
			lines = append(lines, fmt.Sprintf("mt%d_%s %s", cores, sn, digests[1]))
		}
	}
	checkGolden(t, "telemetry_mt.txt", strings.Join(lines, "\n")+"\n")
}

// seriesDigest renders a sampler's whole series (it must not have
// wrapped) as its row count and the sha256 of its columns and rows.
func seriesDigest(s *telemetry.Sampler) string {
	if s.Dropped() > 0 {
		return fmt.Sprintf("wrapped(%d dropped)", s.Dropped())
	}
	h := sha256.New()
	fmt.Fprintln(h, strings.Join(s.Columns(), ","))
	for _, smp := range s.Samples() {
		row := []string{strconv.FormatInt(smp.Cycle, 10)}
		for _, v := range smp.Vals {
			row = append(row, strconv.FormatFloat(v, 'g', -1, 64))
		}
		fmt.Fprintln(h, strings.Join(row, ","))
	}
	return fmt.Sprintf("rows=%d sha256=%x", s.Len(), h.Sum(nil))
}
