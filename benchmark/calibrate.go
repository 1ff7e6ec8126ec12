package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"strconv"
)

// calibrate runs every workload n times untraced, each run in a fresh
// child process with its own seed, alternating the workload order between
// rounds, and prints each end-to-end metric's median and spread. The
// bounds in BENCHMARK.json are chosen from this table.
func calibrate(opt options, n int, w io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	vals := map[string]map[string][]float64{} // workload → metric → values
	for i := 0; i < n; i++ {
		order := slices.Clone(workloadList)
		if i%2 == 1 {
			slices.Reverse(order)
		}
		for _, wl := range order {
			cmd := exec.Command(self, "-work-dir", opt.workDir, "-workload", wl.name,
				"-seed", strconv.Itoa(i+1), "-seconds", strconv.FormatFloat(opt.seconds, 'f', -1, 64), "-trace", "0")
			cmd.Stderr = io.Discard
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s run %d: %w", wl.name, i+1, err)
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				return fmt.Errorf("%s run %d: %w", wl.name, i+1, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s run %d: %d of %d ops failed", wl.name, i+1, res.Failed, res.Attempted)
			}
			if vals[wl.name] == nil {
				vals[wl.name] = map[string][]float64{}
			}
			for k, v := range res.Metrics {
				vals[wl.name][k] = append(vals[wl.name][k], v.Value)
			}
			fmt.Fprintf(os.Stderr, "calibrate: %s run %d/%d done\n", wl.name, i+1, n)
		}
	}
	fmt.Fprintf(w, "%-12s %-12s %12s %12s %12s %10s %10s\n", "workload", "metric", "median", "q1", "q3", "iqr/med", "range/med")
	for _, wl := range workloadList {
		for _, m := range endToEnd {
			xs := vals[wl.name][m.name]
			med := quantile(xs, 0.5)
			q1, q3 := quartiles(xs)
			lo, hi := slices.Min(xs), slices.Max(xs)
			fmt.Fprintf(w, "%-12s %-12s %12.4f %12.4f %12.4f %9.1f%% %9.1f%%\n",
				wl.name, m.name, med, q1, q3, 100*(q3-q1)/med, 100*(hi-lo)/med)
		}
	}
	return nil
}
