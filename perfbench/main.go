// Command perfbench is the repository's benchmark. It runs one workload
// from a single load-generating process, checks every operation's
// output, and prints the end-to-end metrics (or, with -trace 1, the
// per-layer metrics) with their units and sample counts. The last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it through run.sh from the repository root, which first builds
// this command, beepd and beepworker from the same tree:
//
//	bash perfbench/run.sh --workload coldstart --seed 1 --seconds 25 --trace 0
//
// Workloads: coldstart, selfheal, jobs, dist (see each type's comment).
// The seed fixes every input and the whole op schedule, so two runs of
// one seed do identical work and differ only by host noise.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rng"
)

// workloads are the benchmark's workloads at their benchmark sizes,
// with how many times each sets up per run: enough that the median
// set-up is steady, few enough that set-up stays a small part of a run.
var workloads = map[string]struct {
	workload
	setups int
}{
	"coldstart": {coldstart{n: 32_768, degree: 8, graphs: 8}, 9},
	"selfheal":  {selfheal{rows: 512, cols: 512, faults: 64, idle: 64}, 5},
	"jobs":      {jobs{family: "gnpavg:4096:8", checkpointEvery: 16}, 9},
	"dist":      {distRun{n: 4096, degree: 8, graphs: 8, workers: 2}, 9},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: coldstart | selfheal | jobs | dist")
	seed := fs.Uint64("seed", 1, "workload seed: fixes every input and the op schedule")
	seconds := fs.Int("seconds", 25, "length of the timed window")
	trace := fs.Int("trace", 0, "0 prints end-to-end metrics; 1 runs traced and prints per-layer metrics")
	binDir := fs.String("bin", ".bench_build/bin", "directory holding the beepd and beepworker binaries")
	tmpDir := fs.String("tmp", ".bench_build/tmp", "parent of the run's temporary directories")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || fs.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: want -workload coldstart|selfheal|jobs|dist, -seconds ≥ 1 and -trace 0|1\n")
		return 2
	}
	bin, err1 := filepath.Abs(*binDir)
	tmp, err2 := filepath.Abs(*tmpDir)
	if err := errors.Join(err1, err2); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}

	host := readHost(".")
	fmt.Fprintf(stdout, "host: %s\n", host)
	if err := goldenCheck(); err != nil {
		fmt.Fprintln(stderr, "perfbench: golden check:", err)
		return 1
	}
	fmt.Fprintln(stdout, "golden: rounds=39 mis=20 hash=0xc3308e69f7440ccb ok")

	cfg := &config{
		seed:   *seed,
		window: time.Duration(*seconds) * time.Second,
		setups: w.setups,
		binDir: bin,
		tmpDir: tmp,
		log:    stderr,
	}
	if *trace == 1 {
		cfg.traced = true
		cfg.tr = newTracer()
	}
	steal := startSteal()
	res, err := w.run(cfg)
	if lerr := cfg.leftovers(); lerr != nil {
		err = errors.Join(err, lerr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	stealFrac := steal.frac()
	fmt.Fprintf(stdout, "host: steal_frac=%.4f\n", stealFrac)

	attempted, failed := tally(res, func(o opResult) {
		fmt.Fprintf(stderr, "perfbench: %s op %d: %v\n", *name, o.idx, o.err)
	})
	d, covered := digest(res.main.ops)
	fmt.Fprintf(stdout, "digest: %016x over the first %d ops of seed %d\n", d, covered, *seed)

	var metrics []metric
	if cfg.traced {
		metrics = layerMetrics(cfg, res, stealFrac)
		if err := writeTrace(cfg, *name, *seed, stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench: write trace:", err)
		}
	} else {
		var err error
		metrics, err = endToEnd(res)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
			return 1
		}
		fmt.Fprintf(stdout, "  %-34s %14.6f %-8s (%d of %d ops)\n", "error_rate",
			float64(failed)/float64(max(attempted, 1)), "fraction", failed, attempted)
	}
	for _, m := range metrics {
		if m.samples > 0 { // spans the workload does not call print only in the JSON
			fmt.Fprintf(stdout, "  %-34s %14.6f %-8s (n=%d)\n", m.name, m.value, m.unit, m.samples)
		}
	}
	correct := failed == 0
	if err := printResult(stdout, correct, attempted, failed, metrics); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !correct {
		return 1
	}
	return 0
}

// tally counts the attempted and failed ops of both phases, passing
// each failure to report. A failed op is any error return, including a
// refused request, and any failed output check.
func tally(res *result, report func(opResult)) (attempted, failed int) {
	phases := []phase{res.main}
	if res.baseline != nil {
		phases = append(phases, *res.baseline)
	}
	for _, ph := range phases {
		attempted += len(ph.ops)
		for _, o := range ph.ops {
			if o.err != nil {
				failed++
				report(o)
			}
		}
	}
	return attempted, failed
}

// goldenCheck runs the repository's golden execution: it must
// stabilize in 39 rounds to an MIS of 20 vertices with mask hash
// 0xc3308e69f7440ccb.
func goldenCheck() error {
	g := graph.GNPAvgDegree(64, 6, rng.New(42))
	res, err := core.Run(core.RunConfig{Graph: g, Protocol: newProtocol(), Seed: 7, Init: core.InitRandom})
	if err != nil {
		return err
	}
	h := fnv.New64a()
	for _, in := range res.MIS {
		if in {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	if res.Rounds != 39 || res.MISSize != 20 || h.Sum64() != 0xc3308e69f7440ccb {
		return fmt.Errorf("rounds=%d mis=%d hash=%#x, want 39/20/0xc3308e69f7440ccb", res.Rounds, res.MISSize, h.Sum64())
	}
	return nil
}

// metric is one reported figure with its sample count.
type metric struct {
	name    string
	value   float64
	unit    string
	samples int
}

// endToEnd computes the end-to-end metrics of an untraced run from its
// successful ops. ops_per_s divides by the time ops were running, which
// leaves out the untimed output checks. error_rate is printed apart from
// these: it is 0 on a good run, and the result object carries it as
// failed/attempted.
func endToEnd(res *result) ([]metric, error) {
	var lat []float64
	var busy time.Duration
	for _, o := range res.main.ops {
		if o.err == nil {
			lat = append(lat, float64(o.dur)/float64(time.Millisecond))
			busy += o.dur
		}
	}
	tail, err := p90(lat)
	if err != nil {
		return nil, err
	}
	n := len(lat)
	setups := make([]float64, len(res.setups))
	for i, d := range res.setups {
		setups[i] = d.Seconds()
	}
	return []metric{
		{"latency_ms_p50", quantile(lat, 0.5), "ms", n},
		{"latency_ms_p90", tail, "ms", n},
		{"ops_per_s", float64(n) / busy.Seconds(), "1/s", n},
		{"cpu_ms_per_op", float64(res.main.cpu) / float64(time.Millisecond) / float64(n), "ms", n},
		{"setup_s", quantile(setups, 0.5), "s", len(setups)},
		{"mem_mb", res.memMB, "MB", 1},
	}, nil
}

// countNames lists the per-layer counts, in report order, with units.
var countNames = []struct{ name, unit string }{
	{"beep.rounds_per_op", "rounds"},
	{"beep.active_frac", "fraction"},
	{"ckpt.bytes_per_tick", "bytes"},
	{"ckpt.base_frac", "fraction"},
	{"ckpt.dirty_words_per_tick", "words"},
	{"service.cpu_ms_per_job", "ms"},
	{"service.events_per_job", "count"},
	{"service.ckpt_bytes_per_job", "bytes"},
	{"service.early_close", "count"},
	{"service.refused", "count"},
	{"dist.wire_bytes_per_round", "bytes"},
	{"dist.respawns", "count"},
	{"dist.worker_rss_mb", "MB"},
	{"proc.alloc_mb_per_op", "MB"},
	{"proc.gc_cycles", "count"},
	{"proc.gc_pause_ms", "ms"},
	{"proc.peak_rss_mb", "MB"},
	{"host.steal_frac", "fraction"},
	{"trace.unattributed_frac", "fraction"},
	{"trace.overhead_frac", "fraction"},
}

// layerMetrics computes every per-layer metric of a traced run. A span
// or count the workload does not exercise reads zero.
func layerMetrics(cfg *config, res *result, stealFrac float64) []metric {
	ops := res.main.ops
	n := len(ops)
	rounds := 0
	var lat []float64
	for _, o := range ops {
		rounds += o.rounds
		lat = append(lat, float64(o.dur))
	}
	var base []float64
	for _, o := range res.baseline.ops {
		base = append(base, float64(o.dur))
	}
	values := make(map[string]float64)
	for k, v := range res.counts {
		values[k] = v
	}
	perOp := func(x float64) float64 { return x / float64(max(n, 1)) }
	values["beep.rounds_per_op"] = perOp(float64(rounds))
	values["proc.alloc_mb_per_op"] = perOp(float64(res.main.proc.allocBytes) / (1 << 20))
	values["proc.gc_cycles"] = float64(res.main.proc.gcCycles)
	values["proc.gc_pause_ms"] = float64(res.main.proc.gcPause) / float64(time.Millisecond)
	if rss, err := procPeakRSSMB(0); err == nil {
		values["proc.peak_rss_mb"] = rss
	}
	values["host.steal_frac"] = stealFrac
	sum := summarize(cfg.tr.spans)
	values["trace.unattributed_frac"] = sum.unattributed()
	if b := quantile(base, 0.5); b > 0 {
		values["trace.overhead_frac"] = quantile(lat, 0.5)/b - 1
	}

	out := sum.layerMetrics(spanNames)
	for _, c := range countNames {
		out = append(out, metric{c.name, values[c.name], c.unit, n})
	}
	return out
}

// writeTrace writes the run's spans to a JSON-lines file beside the
// build outputs.
func writeTrace(cfg *config, name string, seed uint64, stdout io.Writer) error {
	dir := filepath.Join(filepath.Dir(cfg.binDir), "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", name, seed))
	if err := cfg.tr.writeFile(path); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "trace: %d spans in %s\n", len(cfg.tr.spans), path)
	return nil
}

// printResult prints the result object as the last line of stdout.
func printResult(w io.Writer, correct bool, attempted, failed int, metrics []metric) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, attempted, failed, make(map[string]value, len(metrics))}
	for _, m := range metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is %v", m.name, m.value)
		}
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}
