package repro

import (
	"bufio"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/beep"
	"repro/internal/core"
	"repro/internal/graph"
)

// Scale benchmarks: the BENCH_scale.json provenance. Where the 4k/1M
// round benches measure kernel cost, these measure the memory wall —
// the sizes where holding the adjacency is the problem and the implicit
// and compact backends earn their keep. All run the sequential flat
// engine from a randomized (convergence-phase) configuration, and all
// assert the pipeline's 0-steady-state-allocs contract before the
// timed loop: on the synthesizing backends every neighbor row is
// decoded into preallocated scratch, so a regression that starts
// allocating per round at n=10⁷ costs seconds per step and must fail
// loudly here rather than show up as mystery GC time.

// benchScaleRound runs the shared warmup / alloc-assert / timed-loop
// harness and reports ns/vertex, adjacency bytes/vertex and the
// process's peak RSS alongside ns/op.
func benchScaleRound(b *testing.B, t graph.Topology) {
	b.Helper()
	n := t.N()
	proto := core.NewAlg1(core.KnownMaxDegreeExact(core.DefaultC1KnownDelta))
	net, err := beep.NewNetwork(t, proto, 3)
	if err != nil {
		b.Fatal(err)
	}
	defer net.Close()
	net.RandomizeAll()
	net.Step() // warm lazily sized delivery buffers
	if allocs := testing.AllocsPerRun(1, func() { net.Step() }); allocs > 0 {
		b.Fatalf("steady-state round allocates (%v allocs/round) on backend %s", allocs, t.Name())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Step()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/vertex")
	b.ReportMetric(float64(graph.BytesOf(t))/float64(n), "graph-B/vertex")
	if rss, ok := peakRSSBytes(); ok {
		b.ReportMetric(rss/(1<<20), "peakRSS-MB")
	}
}

// peakRSSBytes reads the process high-water resident set (VmHWM) from
// /proc; absent on non-Linux hosts, in which case the metric is simply
// not reported.
func peakRSSBytes() (float64, bool) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, false
			}
			return kb * 1024, true
		}
	}
	return 0, false
}

// BenchmarkRound10M: one flat-engine round at n = 10⁷ on the implicit
// torus — zero adjacency bytes, every row synthesized on the fly. This
// is the CI scale smoke (`-benchtime=1x` under a GOMEMLIMIT ceiling in
// ci.yml): it proves the 10⁷ path builds, runs and stays allocation-free
// on every push. Skipped under -short (network construction alone
// allocates ~1 GB of per-vertex state).
func BenchmarkRound10M(b *testing.B) {
	if testing.Short() {
		b.Skip("n=10^7 round benchmark skipped in -short mode")
	}
	benchScaleRound(b, graph.ImplicitTorus(2500, 4000))
}

// BenchmarkRound100M: the acceptance benchmark — one n = 10⁸ round
// in-process. Two backends:
//
//   - implicit-torus: the 10000×10000 torus, adjacency fully implicit.
//   - compact-rgg: a lattice unit-disk (RGG-style wireless deployment,
//     the paper's motivating topology) delta-varint compressed; the
//     rows are materialized but cost ~2 bytes/endpoint instead of 4.
//
// Gated behind BENCH_SCALE_100M=1 on top of -short: a single round
// costs seconds and network construction ~8 GB of per-vertex simulator
// state (signals, sources, machine slabs — independent of the graph
// backend), so this must never run in a default `go test -bench .`.
// The peak-RSS budget is 16 GB on the implicit torus — 2× the observed
// ~7.8 GB of per-vertex simulator state; the graph contributes
// nothing. Observed container numbers live in BENCH_scale.json.
func BenchmarkRound100M(b *testing.B) {
	if testing.Short() {
		b.Skip("n=10^8 round benchmark skipped in -short mode")
	}
	if os.Getenv("BENCH_SCALE_100M") == "" {
		b.Skip("set BENCH_SCALE_100M=1 to run the n=10^8 round benchmark (needs tens of GB and minutes of wall clock)")
	}
	b.Run("implicit-torus", func(b *testing.B) {
		benchScaleRound(b, graph.ImplicitTorus(10_000, 10_000))
		if rss, ok := peakRSSBytes(); ok && rss > 16<<30 {
			b.Fatalf("peak RSS %.1f GB exceeds the 16 GB budget", rss/(1<<30))
		}
	})
	b.Run("compact-rgg", func(b *testing.B) {
		const side = 10_000
		// Radius √2.56 ⇒ the 8-neighbor lattice stencil, average degree
		// 8 like the 1M RGG benches.
		udgt, err := graph.ImplicitUnitDiskGridTorus(side, side, math.Sqrt(2.56))
		if err != nil {
			b.Fatal(err)
		}
		benchScaleRound(b, graph.Compress(udgt))
	})
}
