package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// config is what every workload receives.
type config struct {
	seed uint64
	// window is how long the timed loop runs.
	window time.Duration
	// setups is how many times a workload sets up; setup_s is the
	// median, and only the last set-up's state is used.
	setups int
	// traced marks a --trace 1 run; tr records spans while it is
	// non-nil, which in a traced run is all but the untraced baseline.
	traced bool
	tr     *tracer
	binDir string // holds the beepd and beepworker binaries
	tmpDir string // parent of every temporary directory a run makes
	log    io.Writer
}

// opResult is one operation of the timed loop.
type opResult struct {
	idx    int // schedule index: the op's inputs are a function of (seed, idx)
	dur    time.Duration
	rounds int
	mis    int
	err    error // the op's error or its failed output check
}

// result is what a workload measured.
type result struct {
	setups []time.Duration
	measurement
	// memMB is the workload's memory figure (see each workload).
	memMB float64
	// counts holds the workload's per-layer counts by metric name.
	counts map[string]float64
}

func (r *result) count(name string, v float64) {
	if r.counts == nil {
		r.counts = make(map[string]float64)
	}
	r.counts[name] = v
}

// workload runs one benchmark workload end to end: set-up, the timed
// loop and teardown.
type workload interface {
	run(cfg *config) (*result, error)
}

// Input streams: every input a workload generates is drawn from
// mix(seed, stream, index), so a seed fixes the whole op schedule.
const (
	streamGraph uint64 = iota + 1
	streamOp
	streamFault
)

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// mix derives the seed of input i of a stream.
func mix(seed, stream uint64, i int) uint64 {
	return splitmix(splitmix(seed^stream<<56) ^ uint64(i))
}

// timedOp is one operation: do is timed and returns the rounds the
// execution took; check verifies the output outside the timing and
// returns the MIS size. do receives the op's root span.
type timedOp struct {
	do    func(idx, span int) (rounds int, err error)
	check func(idx int) (mis int, err error)
}

// procStats are the Go runtime counters of this process that a traced
// run reports.
type procStats struct {
	allocBytes uint64
	gcCycles   uint32
	gcPause    time.Duration
}

func readProcStats() procStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procStats{ms.TotalAlloc, ms.NumGC, time.Duration(ms.PauseTotalNs)}
}

func (p *procStats) add(a, b procStats) {
	p.allocBytes += b.allocBytes - a.allocBytes
	p.gcCycles += b.gcCycles - a.gcCycles
	p.gcPause += b.gcPause - a.gcPause
}

// phase is one timed loop.
type phase struct {
	ops  []opResult
	cpu  time.Duration // CPU time of the processes under test on the ops
	proc procStats     // runtime counters across do (traced runs)
}

// loop runs the ops at schedule indices 0, 1, … until the window,
// measured from its start, has passed. cpu reads the CPU time of the
// processes doing the work; its deltas across do are summed. In a
// traced run the runtime counters are read around do too.
func loop(cfg *config, op timedOp, cpu func() time.Duration) phase {
	var ph phase
	start := time.Now()
	for idx := 0; time.Since(start) < cfg.window; idx++ {
		c0 := cpu()
		var p0 procStats
		if cfg.traced {
			p0 = readProcStats()
		}
		t0 := time.Now()
		id := cfg.tr.begin(rootOp, -1, idx)
		rounds, err := op.do(idx, id)
		cfg.tr.end(id)
		d := time.Since(t0)
		if cfg.traced {
			ph.proc.add(p0, readProcStats())
		}
		ph.cpu += cpu() - c0
		mis := 0
		if err == nil {
			mis, err = op.check(idx)
		}
		ph.ops = append(ph.ops, opResult{idx: idx, dur: d, rounds: rounds, mis: mis, err: err})
	}
	return ph
}

// measurement is the timed part of a workload.
type measurement struct {
	// main is the phase the metrics come from: the whole window in an
	// untraced run, the traced second half in a traced run.
	main phase
	// baseline is a traced run's untraced first half, the reference for
	// trace.overhead_frac; it repeats the schedule main runs.
	baseline *phase
}

// measure runs op in a closed loop from one client. In a traced run the
// window is halved: an untraced baseline first, then the same schedule
// again with spans on.
func measure(cfg *config, op timedOp, cpu func() time.Duration) measurement {
	if !cfg.traced {
		return measurement{main: loop(cfg, op, cpu)}
	}
	tr, window := cfg.tr, cfg.window
	cfg.tr, cfg.window = nil, window/2
	base := loop(cfg, op, cpu)
	cfg.tr = tr
	main := loop(cfg, op, cpu)
	cfg.window = window
	return measurement{main: main, baseline: &base}
}

// timeSetups runs setup cfg.setups times and returns each duration.
// Every set-up but the last is undone by teardown, outside the timing;
// the workload keeps the last one's state. setup receives its root span.
func timeSetups(cfg *config, setup func(span int) error, teardown func() error) ([]time.Duration, error) {
	n := max(cfg.setups, 1)
	durs := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		if i > 0 {
			if err := teardown(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		id := cfg.tr.begin(rootSetup, -1, -1)
		t0 := time.Now()
		err := setup(id)
		durs = append(durs, time.Since(t0))
		cfg.tr.end(id)
		if err != nil {
			return nil, err
		}
	}
	return durs, nil
}

// digestOps is how many ops, from the start of the schedule, the digest
// covers: every run completes at least this many (see minTailSamples).
const digestOps = minTailSamples

// digest hashes the (rounds, MIS size) of the first digestOps ops and
// returns the hash with the number of ops it covers. Two runs of one
// seed that cover the same count must print the same hash.
func digest(ops []opResult) (uint64, int) {
	n := min(len(ops), digestOps)
	h := fnv.New64a()
	var buf [16]byte
	for _, o := range ops[:n] {
		binary.LittleEndian.PutUint64(buf[:8], uint64(o.rounds))
		binary.LittleEndian.PutUint64(buf[8:], uint64(o.mis))
		h.Write(buf[:])
	}
	return h.Sum64(), n
}

// tempDir makes a fresh directory under cfg.tmpDir; leftovers() finds
// any that a workload failed to remove.
func (cfg *config) tempDir(kind string) (string, error) {
	if err := os.MkdirAll(cfg.tmpDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(cfg.tmpDir, "perfbench-"+kind+"-")
}

// leftovers reports temporary directories or benchmark-launched
// processes that outlived their workload.
func (cfg *config) leftovers() error {
	dirs, _ := filepath.Glob(filepath.Join(cfg.tmpDir, "perfbench-*"))
	procs := processesRunning(filepath.Join(cfg.binDir, "beepd"), filepath.Join(cfg.binDir, "beepworker"))
	if len(dirs) > 0 || len(procs) > 0 {
		return fmt.Errorf("left behind: temp dirs %v, processes %v", dirs, procs)
	}
	return nil
}
