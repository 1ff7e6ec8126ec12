package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"cwsp/internal/sim"
)

// goldenJSON pins every output the benchmark checks. Refresh it with
// -update-golden after a change that is meant to alter simulated results.
//
//go:embed golden.json
var goldenJSON []byte

// golden is the pinned expectation set. Keys start with the workload scale
// ("full/tatp_cwsp", "quick/fig13", "smoke/fig06").
type golden struct {
	// Sim maps a simulation cell to the sha256 of its Stats, Ret, Output
	// and NVM digest.
	Sim map[string]string `json:"sim"`
	// Repro maps a sweep experiment to its report and cell counts.
	Repro map[string]reproGolden `json:"repro"`
	// Service maps a prewarmed sweep to the sha256 of its result bytes.
	Service map[string]string `json:"service"`
}

type reproGolden struct {
	CSV      string `json:"csv_sha256"`
	Executed int64  `json:"executed"`
	Hits     int64  `json:"hits"`
}

func loadGolden() (*golden, error) {
	g := &golden{}
	if err := json.Unmarshal(goldenJSON, g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	g.init()
	return g, nil
}

func (g *golden) init() {
	if g.Sim == nil {
		g.Sim = map[string]string{}
	}
	if g.Repro == nil {
		g.Repro = map[string]reproGolden{}
	}
	if g.Service == nil {
		g.Service = map[string]string{}
	}
}

// write stores the golden file with sorted keys.
func (g *golden) write(path string) error {
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// merge copies every entry of o into g.
func (g *golden) merge(o *golden) {
	for k, v := range o.Sim {
		g.Sim[k] = v
	}
	for k, v := range o.Repro {
		g.Repro[k] = v
	}
	for k, v := range o.Service {
		g.Service[k] = v
	}
}

// checker compares outputs against the golden set. When updating, g starts
// empty and the first output seen under each key becomes its golden, so
// repeated rounds are still checked against each other. It counts every
// check as one attempted operation.
type checker struct {
	update bool

	mu        sync.Mutex
	g         *golden
	attempted int
	failed    int
	errs      []string
}

// fail records one failed operation.
func (c *checker) fail(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	c.failed++
	if len(c.errs) < 10 {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

// pass records one operation whose output was correct.
func (c *checker) pass() {
	c.mu.Lock()
	c.attempted++
	c.mu.Unlock()
}

// expect checks got against the pinned value of key in table and reports
// whether it matched.
func expect[V comparable](c *checker, table map[string]V, what, key string, got V) bool {
	c.mu.Lock()
	want, ok := table[key]
	if c.update && !ok {
		table[key] = got
		want, ok = got, true
	}
	c.mu.Unlock()
	switch {
	case !ok:
		c.fail("%s %s: no golden (run with -update-golden)", what, key)
	case want != got:
		c.fail("%s %s: got %v, golden %v", what, key, got, want)
	default:
		c.pass()
		return true
	}
	return false
}

func (c *checker) sim(key string, res *sim.Result) bool {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%+v|%v|%v|%d", res.Stats, res.Ret, res.Output, res.NVM.Digest())
	return expect(c, c.g.Sim, "sim cell", key, sha(b.Bytes()))
}

func (c *checker) repro(key, csv string, executed, hits int64) bool {
	return expect(c, c.g.Repro, "experiment", key, reproGolden{CSV: sha([]byte(csv)), Executed: executed, Hits: hits})
}

func (c *checker) service(key string, result []byte) bool {
	return expect(c, c.g.Service, "prewarmed sweep", key, sha(result))
}

func sha(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}
