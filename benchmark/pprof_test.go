package main

import (
	"bytes"
	"encoding/binary"
	"runtime/pprof"
	"testing"
	"time"
)

// spin burns CPU in a function of this package, which the layer table
// maps to loadgen.
//
//go:noinline
func spin(d time.Duration) uint64 {
	var x uint64
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 100_000; i++ {
			x = x*6364136223846793005 + uint64(i)
		}
	}
	return x
}

func TestProfileAttributesBusyLoop(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiler busy: %v", err)
	}
	sink := spin(400 * time.Millisecond)
	pprof.StopCPUProfile()
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	shares, n := layerShares(p)
	if n < 10 {
		t.Fatalf("only %d samples in 400ms of busy loop (sink %d)", n, sink)
	}
	if shares["loadgen"] < 0.8 {
		t.Fatalf("busy loop attributed %.0f%% to loadgen, want most of it: %v", 100*shares["loadgen"], shares)
	}
}

// pbMsg builds protobuf messages for hand-made profiles.
type pbMsg []byte

func (m pbMsg) varint(field int, v uint64) pbMsg {
	m = binary.AppendUvarint(m, uint64(field)<<3|wireVarint)
	return binary.AppendUvarint(m, v)
}

func (m pbMsg) bytes(field int, b []byte) pbMsg {
	m = binary.AppendUvarint(m, uint64(field)<<3|wireBytes)
	m = binary.AppendUvarint(m, uint64(len(b)))
	return append(m, b...)
}

func (m pbMsg) packed(field int, vs ...uint64) pbMsg {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return m.bytes(field, b)
}

// tinyProfile builds a profile whose samples exercise inlined frames and
// stacks with no frame of this repository. Function i+1 is named fns[i];
// each location lists its functions innermost first; each sample gives its
// locations leaf first and a CPU weight.
func tinyProfile(fns []string, locs [][]uint64, samples []struct {
	locs []uint64
	cpu  uint64
}) []byte {
	strs := append([]string{"", "samples", "count", "cpu", "nanoseconds"}, fns...)
	var p pbMsg
	p = p.bytes(profSampleType, pbMsg{}.varint(valueTypeType, 1).varint(2, 2))
	p = p.bytes(profSampleType, pbMsg{}.varint(valueTypeType, 3).varint(2, 4))
	for _, s := range samples {
		p = p.bytes(profSample, pbMsg{}.packed(sampleLocationID, s.locs...).packed(sampleValue, 1, s.cpu))
	}
	for i, l := range locs {
		loc := pbMsg{}.varint(locationID, uint64(i+1))
		for _, fn := range l {
			loc = loc.bytes(locationLine, pbMsg{}.varint(lineFunctionID, fn).varint(2, 10))
		}
		p = p.bytes(profLocation, loc)
	}
	for i := range fns {
		p = p.bytes(profFunction, pbMsg{}.varint(functionID, uint64(i+1)).varint(functionName, uint64(5+i)))
	}
	for _, s := range strs {
		p = p.bytes(profStringTable, []byte(s))
	}
	return p
}

func TestLayerFallbacks(t *testing.T) {
	fns := []string{
		"cwsp/internal/persist.(*WPQ).drain",          // 1
		"cwsp/internal/sim.(*Machine).memStore",       // 2
		"runtime.memmove",                             // 3
		"runtime.scanobject",                          // 4
		"runtime.gcBgMarkWorker",                      // 5
		"syscall.write",                               // 6
		"net/http.(*conn).serve",                      // 7
		"runtime.futex",                               // 8
		"cwsp/internal/sim.(*Machine).closeRegion",    // 9
		"cwsp/internal/runner.(*Pool[...]).Run.func1", // 10
	}
	locs := [][]uint64{
		{1, 2}, // 1: drain inlined into memStore
		{3},    // 2
		{2},    // 3
		{4},    // 4
		{5},    // 5
		{6},    // 6
		{7},    // 7
		{8},    // 8
		{9},    // 9
		{10},   // 10
	}
	samples := []struct {
		locs []uint64
		cpu  uint64
	}{
		{[]uint64{1}, 10},    // inlined persist frame is innermost: persist
		{[]uint64{2, 3}, 20}, // runtime leaf under the simulator: sim
		{[]uint64{4, 5}, 30}, // no repo frame, GC worker: runtime.gc
		{[]uint64{6, 7}, 15}, // no repo frame, net/http: service.http
		{[]uint64{8}, 5},     // nothing recognisable: runtime.other
		{[]uint64{9}, 10},    // function rule beats the sim package rule
		{[]uint64{10}, 10},   // generic receiver: runner.pool
	}
	p, err := parseProfile(tinyProfile(fns, locs, samples))
	if err != nil {
		t.Fatal(err)
	}
	if p.samples[0].stack[0] != fns[0] || p.samples[0].stack[1] != fns[1] {
		t.Fatalf("inlined frames not expanded innermost first: %v", p.samples[0].stack)
	}
	shares, n := layerShares(p)
	if n != int64(len(samples)) {
		t.Fatalf("decoded %d samples, want %d", n, len(samples))
	}
	want := map[string]float64{
		"persist": 0.10, "sim": 0.20, "runtime.gc": 0.30, "service.http": 0.15,
		"runtime.other": 0.05, "sim.region": 0.10, "runner.pool": 0.10,
	}
	for _, l := range layers {
		if got := shares[l]; got < want[l]-1e-9 || got > want[l]+1e-9 {
			t.Errorf("%s share %.3f, want %.3f", l, got, want[l])
		}
	}
}

func TestParseProfileRejectsTruncated(t *testing.T) {
	b := tinyProfile([]string{"main.main"}, [][]uint64{{1}}, []struct {
		locs []uint64
		cpu  uint64
	}{{[]uint64{1}, 1}})
	if _, err := parseProfile(b[:len(b)-3]); err == nil {
		t.Fatal("truncated profile decoded without error")
	}
}
