package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. Parent 0 means a root span.
type span struct {
	id, parent int
	name       string
	lane       int    // Chrome trace thread: client, pool worker, ...
	tag        string // the campaign ID of a request span
	start, end int64
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced run pays one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	next  int
	spans []span
}

// newID reserves a span ID so children can name their parent before the
// parent's own end time is known.
func (t *tracer) newID() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// add records a finished span under a reserved ID.
func (t *tracer) add(id, parent int, name string, lane int, start, end time.Time) {
	t.addNS(id, parent, name, "", lane, start.UnixNano(), end.UnixNano())
}

// addNS records a finished span given in Unix nanoseconds, with an
// optional tag.
func (t *tracer) addNS(id, parent int, name, tag string, lane int, start, end int64) {
	if t == nil {
		return
	}
	if end < start {
		end = start
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{id: id, parent: parent, name: name, lane: lane, tag: tag, start: start, end: end})
	t.mu.Unlock()
}

// spanStat aggregates every span of one name.
type spanStat struct {
	name        string
	count       int
	total, self time.Duration
}

// selfTimes returns, per span name, the summed duration and the summed
// self time: each span's duration minus the part of it that its children
// cover.
func (t *tracer) selfTimes() []spanStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	byName := map[string]*spanStat{}
	for _, s := range t.spans {
		st := byName[s.name]
		if st == nil {
			st = &spanStat{name: s.name}
			byName[s.name] = st
		}
		st.count++
		st.total += time.Duration(s.end - s.start)
		st.self += time.Duration(s.end-s.start) - covered(s, children[s.id])
	}
	out := make([]spanStat, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// covered returns how much of parent's interval the union of kids spans.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.start, parent.start), min(k.end, parent.end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var sum, end int64
	end = parent.start
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			sum += v.b - end
			end = v.b
		}
	}
	return time.Duration(sum)
}

// writeChrome writes the spans as Chrome trace-event JSON ("X" complete
// events, microseconds from the first span), loadable in ui.perfetto.dev.
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	var t0 int64
	if len(spans) > 0 {
		t0 = spans[0].start
	}
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	io.WriteString(w, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")
	for i, s := range spans {
		ev := event{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.lane,
			Ts:   float64(s.start-t0) / 1e3,
			Dur:  float64(s.end-s.start) / 1e3,
			Args: map[string]any{"id": s.id, "parent": s.parent},
		}
		if s.tag != "" {
			ev.Args["campaign"] = s.tag
		}
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		if i > 0 {
			io.WriteString(w, ",\n")
		}
		w.Write(b)
	}
	io.WriteString(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// writeLayerTable writes the human-readable layer table of a traced run:
// CPU share per layer and self time per span name.
func writeLayerTable(w io.Writer, workload string, shares map[string]float64, samples int64, spans []spanStat, ops int) {
	fmt.Fprintf(w, "layer table: %s (%d CPU samples)\n", workload, samples)
	for _, l := range layers {
		fmt.Fprintf(w, "  %-16s %6.2f%%\n", l, 100*shares[l])
	}
	fmt.Fprintf(w, "spans (%d ops):\n  %-18s %8s %12s %12s %14s\n", ops, "name", "count", "total_ms", "self_ms", "self_ms_per_op")
	for _, s := range spans {
		perOp := 0.0
		if ops > 0 {
			perOp = ms(s.self) / float64(ops)
		}
		fmt.Fprintf(w, "  %-18s %8d %12.1f %12.1f %14.3f\n", s.name, s.count, ms(s.total), ms(s.self), perOp)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
