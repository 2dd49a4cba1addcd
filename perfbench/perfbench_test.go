package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestP90RefusesShortRuns(t *testing.T) {
	xs := make([]float64, minTailSamples)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := p90(xs[:minTailSamples-1]); err == nil {
		t.Fatalf("p90 accepted %d samples", minTailSamples-1)
	}
	got, err := p90(xs)
	if err != nil {
		t.Fatal(err)
	}
	// Linear interpolation at rank 0.9·99 = 89.1 between 90 and 91.
	if want := 90.1; math.Abs(got-want) > 1e-9 {
		t.Fatalf("p90 = %v, want %v", got, want)
	}
	if got := quantile([]float64{3, 1, 2}, 0.5); got != 2 {
		t.Fatalf("median = %v, want 2", got)
	}
}

func TestCovered(t *testing.T) {
	ms := time.Millisecond
	ivs := []interval{{0, 10 * ms}, {5 * ms, 15 * ms}, {20 * ms, 30 * ms}, {22 * ms, 25 * ms}}
	if got := covered(ivs); got != 25*ms {
		t.Fatalf("covered = %v, want 25ms", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: rootSetup, Start: 0, End: 10 * ms, Parent: -1, Op: -1},
		{Name: "graph.build", Start: 1 * ms, End: 9 * ms, Parent: 0, Op: -1},
		// op 0: 100ms, of which step 30 and probe 40; 30 unattributed.
		{Name: rootOp, Start: 20 * ms, End: 120 * ms, Parent: -1, Op: 0},
		{Name: "beep.step", Start: 20 * ms, End: 50 * ms, Parent: 2, Op: 0},
		{Name: "core.probe", Start: 50 * ms, End: 90 * ms, Parent: 2, Op: 0},
		// op 1: 100ms; a probe with a nested step child counts only its
		// own 10ms; 50 unattributed.
		{Name: rootOp, Start: 200 * ms, End: 300 * ms, Parent: -1, Op: 1},
		{Name: "core.probe", Start: 200 * ms, End: 250 * ms, Parent: 5, Op: 1},
		{Name: "beep.step", Start: 210 * ms, End: 250 * ms, Parent: 6, Op: 1},
		// An open span is ignored.
		{Name: "beep.step", Start: 260 * ms, End: -1, Parent: 5, Op: 1},
		// A core.probe in set-up is not mixed into the op figures.
		{Name: "core.probe", Start: 2 * ms, End: 3 * ms, Parent: 0, Op: -1},
	}
	sum := summarize(spans)
	if got, want := sum.unattributed(), 80.0/200; math.Abs(got-want) > 1e-9 {
		t.Fatalf("unattributed = %v, want %v", got, want)
	}
	m := make(map[string]float64)
	for _, x := range sum.layerMetrics([]string{"beep.step", "core.probe", "graph.build", "dist.join"}) {
		m[x.name] = x.value
	}
	want := map[string]float64{
		"beep.step.share":          70.0 / 200,
		"beep.step.calls_per_op":   1,
		"beep.step.us_p50":         35000,
		"core.probe.share":         50.0 / 200,
		"core.probe.calls_per_op":  1,
		"core.probe.us_p50":        45000,
		"graph.build.share":        8.0 / 10,
		"graph.build.calls_per_op": 1,
		"graph.build.us_p50":       8000,
		"dist.join.share":          0,
		"dist.join.calls_per_op":   0,
		"dist.join.us_p50":         0,
	}
	for k, v := range want {
		if math.Abs(m[k]-v) > 1e-9 {
			t.Errorf("%s = %v, want %v", k, m[k], v)
		}
	}
}

func TestTracerNilIsNoop(t *testing.T) {
	var tr *tracer
	id := tr.begin("beep.step", -1, 0)
	tr.end(id)
	tr.add("dist.round", time.Now(), time.Now(), -1, 0)
	if id != -1 {
		t.Fatalf("nil tracer begin = %d, want -1", id)
	}
}

// smallColdstart is coldstart at a size a unit test runs in
// milliseconds per op.
var smallColdstart = coldstart{n: 256, degree: 6, graphs: 3}

// runOps runs w for a short window and returns its ops, failing the
// test on any failed op.
func runOps(t *testing.T, w workload, seed uint64) []opResult {
	t.Helper()
	cfg := &config{seed: seed, window: 300 * time.Millisecond, setups: 1, tmpDir: t.TempDir(), log: io.Discard}
	res, err := w.run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, failed := tally(res, func(o opResult) { t.Errorf("op %d: %v", o.idx, o.err) }); failed > 0 {
		t.Fatalf("%d failed ops", failed)
	}
	return res.main.ops
}

// commonDigests digests two runs' ops over the prefix both completed.
func commonDigests(a, b []opResult) (da, db uint64, n int) {
	k := min(len(a), len(b))
	da, n = digest(a[:k])
	db, _ = digest(b[:k])
	return da, db, n
}

func TestSeedFixesScheduleAndDigest(t *testing.T) {
	if mix(7, streamOp, 3) != mix(7, streamOp, 3) {
		t.Fatal("mix is not a pure function")
	}
	if mix(7, streamOp, 3) == mix(8, streamOp, 3) || mix(7, streamOp, 3) == mix(7, streamGraph, 3) ||
		mix(7, streamOp, 3) == mix(7, streamOp, 4) {
		t.Fatal("mix collides across seeds, streams or indices")
	}
	a, b := runOps(t, smallColdstart, 5), runOps(t, smallColdstart, 5)
	if d1, d2, n := commonDigests(a, b); n < 10 || d1 != d2 {
		t.Fatalf("seed 5 gave digests %x and %x over %d ops", d1, d2, n)
	}
	c := runOps(t, smallColdstart, 6)
	if d1, d3, _ := commonDigests(a, c); d1 == d3 {
		t.Fatalf("seeds 5 and 6 gave the same digest %x", d1)
	}
}

func TestSelfhealSchedule(t *testing.T) {
	w := selfheal{rows: 32, cols: 32, faults: 8, idle: 4}
	a, b := runOps(t, w, 3), runOps(t, w, 3)
	if d1, d2, n := commonDigests(a, b); n < 10 || d1 != d2 {
		t.Fatalf("seed 3 gave digests %x and %x over %d ops", d1, d2, n)
	}
}

func TestFailuresCountInErrorRate(t *testing.T) {
	// A beepd stand-in that refuses every submission.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusTooManyRequests)
		io.WriteString(w, `{"error":"queue full"}`)
	}))
	defer srv.Close()
	cfg := &config{seed: 1, window: 50 * time.Millisecond, log: io.Discard}
	w := jobs{family: "gnpavg:64:4", checkpointEvery: 16}
	var events, early int64
	refused := measure(cfg, timedOp{
		do: func(idx, span int) (int, error) {
			_, err := w.job(cfg, srv.Client(), srv.URL, idx, span, &events, &early)
			if !errors.Is(err, errRefused) {
				t.Errorf("op %d: err = %v, want a refusal", idx, err)
			}
			return 0, err
		},
		check: func(int) (int, error) { t.Error("check ran after a failed op"); return 0, nil },
	}, func() time.Duration { return 0 })

	// An op that succeeds but whose output check fails.
	badCheck := measure(cfg, timedOp{
		do:    func(int, int) (int, error) { return 1, nil },
		check: func(idx int) (int, error) { return 0, fmt.Errorf("op %d: not an MIS", idx) },
	}, func() time.Duration { return 0 })

	for name, m := range map[string]measurement{"refused": refused, "bad check": badCheck} {
		attempted, failed := tally(&result{measurement: m}, func(opResult) {})
		if attempted == 0 || failed != attempted {
			t.Errorf("%s: %d of %d ops failed, want all", name, failed, attempted)
		}
	}
}

func TestJobResubscribesAfterEarlyClose(t *testing.T) {
	var streams atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost:
			w.WriteHeader(http.StatusAccepted)
			io.WriteString(w, `{"id":"j1"}`)
		case strings.HasSuffix(r.URL.Path, "/events"):
			// The first subscription ends at once, before any event, as
			// beepd's does for a job whose runner has not opened its
			// topic yet; the next resumes after the last seen id.
			if streams.Add(1) == 1 {
				return
			}
			if got := r.URL.Query().Get("after"); got != "0" {
				t.Errorf("resubscribed with after=%s, want 0", got)
			}
			io.WriteString(w, `{"id":1,"type":"round","round":1}`+"\n")
			io.WriteString(w, `{"id":2,"type":"done","state":"done","rounds":1,"misSize":3,"stabilized":true}`+"\n")
		default:
			http.NotFound(w, r)
		}
	}))
	defer srv.Close()
	cfg := &config{seed: 1, log: io.Discard}
	var events, early int64
	out, err := jobs{family: "gnpavg:64:4"}.job(cfg, srv.Client(), srv.URL, 0, -1, &events, &early)
	if err != nil {
		t.Fatal(err)
	}
	if out.id != "j1" || out.done.State != "done" || !out.done.Stabilized || out.done.MISSize != 3 {
		t.Fatalf("outcome %+v", out)
	}
	if early != 1 || events != 2 {
		t.Fatalf("early closes %d, events %d; want 1 and 2", early, events)
	}
}

// TestBenchmarkJSONNamesMetrics keeps BENCHMARK.json and the metrics a
// run prints in step.
func TestBenchmarkJSONNamesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var spec struct {
		Workloads []named
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(xs []named) []string {
		var out []string
		for _, x := range xs {
			out = append(out, strings.TrimSpace(x.Name+" "+x.Unit))
		}
		sort.Strings(out)
		return out
	}
	printed := func(ms []metric) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.name+" "+m.unit)
		}
		sort.Strings(out)
		return out
	}
	res := &result{measurement: measurement{baseline: &phase{}}, setups: []time.Duration{time.Second}}
	for i := 0; i < minTailSamples; i++ {
		res.main.ops = append(res.main.ops, opResult{idx: i, dur: time.Millisecond})
	}
	e2e, err := endToEnd(res)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := names(spec.EndToEnd), printed(e2e); !reflect.DeepEqual(got, want) {
		t.Errorf("end_to_end names %v, run prints %v", got, want)
	}
	layers := layerMetrics(&config{tr: newTracer()}, res, 0)
	if got, want := names(spec.PerLayer), printed(layers); !reflect.DeepEqual(got, want) {
		t.Errorf("per_layer names %v, run prints %v", got, want)
	}
	var wl []string
	for name := range workloads {
		wl = append(wl, name)
	}
	sort.Strings(wl)
	if got := names(spec.Workloads); !reflect.DeepEqual(got, wl) {
		t.Errorf("workloads %v, benchmark runs %v", got, wl)
	}
}
