package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// Root span names. Every layer span descends from one of them: "setup"
// covers a workload's set-up, "op" one timed operation.
const (
	rootSetup = "setup"
	rootOp    = "op"
)

// span is one timed call into a layer. Times are offsets from the
// tracer's start; parent indexes the tracer's span list (-1 for roots)
// and op numbers the operation the span belongs to (-1 in set-up).
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"`
	Op     int           `json:"op"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, so workloads call it
// unconditionally.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its handle, -1 when untraced.
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Op: op})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records a span whose bounds were taken elsewhere, such as the
// interval between two observer callbacks.
func (t *tracer) add(name string, start, end time.Time, parent, op int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: start.Sub(t.t0), End: end.Sub(t.t0), Parent: parent, Op: op})
	t.mu.Unlock()
}

// writeFile writes every span as one JSON object per line.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerStat aggregates the spans of one name under one root kind.
type layerStat struct {
	durs []float64     // per-call duration, µs
	self time.Duration // summed self time
}

// layerSummary is the per-layer view of a traced run. Spans are grouped
// by the kind of root they descend from ("setup" or "op") and by name,
// so that a layer called both in set-up and in ops is reported per op.
type layerSummary struct {
	layers map[string]map[string]*layerStat
	// rootWall and rootCount total the duration and number of the
	// root spans of each kind.
	rootWall  map[string]time.Duration
	rootCount map[string]int
}

// summarize computes every span's self time — its duration minus the
// part of it that its children cover — and groups the spans. Open spans
// (End < 0) are ignored.
func summarize(spans []span) *layerSummary {
	children := make(map[int][]interval)
	for _, s := range spans {
		if s.Parent >= 0 && s.End >= 0 {
			p := spans[s.Parent]
			iv := interval{max(s.Start, p.Start), min(s.End, p.End)}
			children[s.Parent] = append(children[s.Parent], iv)
		}
	}
	sum := &layerSummary{
		layers:    make(map[string]map[string]*layerStat),
		rootWall:  make(map[string]time.Duration),
		rootCount: make(map[string]int),
	}
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		d := s.End - s.Start
		r := i
		for spans[r].Parent >= 0 {
			r = spans[r].Parent
		}
		kind := spans[r].Name
		if s.Parent < 0 {
			sum.rootWall[kind] += d
			sum.rootCount[kind]++
		}
		byName := sum.layers[kind]
		if byName == nil {
			byName = make(map[string]*layerStat)
			sum.layers[kind] = byName
		}
		st := byName[s.Name]
		if st == nil {
			st = &layerStat{}
			byName[s.Name] = st
		}
		st.durs = append(st.durs, float64(d)/float64(time.Microsecond))
		st.self += d - covered(children[i])
	}
	return sum
}

// lookup returns the spans of name under op roots, or under set-up roots
// for a layer only set-up calls, with the root kind it used.
func (s *layerSummary) lookup(name string) (*layerStat, string) {
	for _, kind := range []string{rootOp, rootSetup} {
		if st := s.layers[kind][name]; st != nil && s.rootCount[kind] > 0 {
			return st, kind
		}
	}
	return nil, ""
}

// unattributed is the share of op wall time that no layer span covers.
func (s *layerSummary) unattributed() float64 {
	op := s.layers[rootOp][rootOp]
	if op == nil || s.rootWall[rootOp] <= 0 {
		return 0
	}
	return float64(op.self) / float64(s.rootWall[rootOp])
}

// layerMetrics returns <name>.us_p50, <name>.calls_per_op and
// <name>.share for each span name in names, with the number of calls as
// the sample count. Calls and share are taken against the root kind the
// spans descend from, so a set-up-only span reads per set-up. A name
// with no spans reads zero throughout.
func (s *layerSummary) layerMetrics(names []string) []metric {
	out := make([]metric, 0, 3*len(names))
	for _, name := range names {
		var p50, calls, share float64
		n := 0
		if st, kind := s.lookup(name); st != nil {
			n = len(st.durs)
			p50 = quantile(st.durs, 0.5)
			calls = float64(n) / float64(s.rootCount[kind])
			share = float64(st.self) / float64(s.rootWall[kind])
		}
		out = append(out,
			metric{name + ".us_p50", p50, "us", n},
			metric{name + ".calls_per_op", calls, "count", n},
			metric{name + ".share", share, "fraction", n})
	}
	return out
}

// spanNames lists every layer span the benchmark records, in report
// order.
var spanNames = []string{
	"graph.build",
	"beep.new_network",
	"beep.step",
	"core.probe",
	"beep.corrupt",
	"beep.idle_block",
	"ckpt.delta_capture",
	"ckpt.delta_append",
	"ckpt.base_capture",
	"ckpt.base_write",
	"service.submit",
	"service.first_event",
	"service.stream",
	"dist.join",
	"dist.round",
	"dist.ckpt_round",
	"dist.teardown",
}
