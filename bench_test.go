package repro

import (
	"fmt"
	"io"
	"math"
	"testing"

	"repro/internal/baseline"
	"repro/internal/beep"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/stab"
)

// The Benchmark*Experiment benches regenerate every table/figure of the
// reproduction (one per experiment, at reduced trial counts): run
// `go test -bench=Experiment` for the full pipeline timings, or use
// cmd/benchtab to print the actual tables.

func benchExperiment(b *testing.B, run func(exp.Config) error) {
	b.Helper()
	cfg := exp.Config{Seed: 1, Trials: 1, Out: io.Discard}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkF1ActivationFunctionExperiment(b *testing.B) { benchExperiment(b, exp.RunF1) }
func BenchmarkE1KnownDeltaExperiment(b *testing.B)         { benchExperiment(b, exp.RunE1) }
func BenchmarkE2OwnDegreeExperiment(b *testing.B)          { benchExperiment(b, exp.RunE2) }
func BenchmarkE3TwoChannelExperiment(b *testing.B)         { benchExperiment(b, exp.RunE3) }
func BenchmarkE4VsJeavonsExperiment(b *testing.B)          { benchExperiment(b, exp.RunE4) }
func BenchmarkE5VsAfekExperiment(b *testing.B)             { benchExperiment(b, exp.RunE5) }
func BenchmarkE6FaultRecoveryExperiment(b *testing.B)      { benchExperiment(b, exp.RunE6) }
func BenchmarkE7LemmaTailsExperiment(b *testing.B)         { benchExperiment(b, exp.RunE7) }
func BenchmarkE8AblationsExperiment(b *testing.B)          { benchExperiment(b, exp.RunE8) }
func BenchmarkE9NoiseExperiment(b *testing.B)              { benchExperiment(b, exp.RunE9) }
func BenchmarkE10AdaptiveExperiment(b *testing.B)          { benchExperiment(b, exp.RunE10) }
func BenchmarkE11DynamicsExperiment(b *testing.B)          { benchExperiment(b, exp.RunE11) }
func BenchmarkE12SleepExperiment(b *testing.B)             { benchExperiment(b, exp.RunE12) }
func BenchmarkE13EnergyExperiment(b *testing.B)            { benchExperiment(b, exp.RunE13) }
func BenchmarkE14AvailabilityExperiment(b *testing.B)      { benchExperiment(b, exp.RunE14) }

// Single-instance stabilization benchmarks: the cost of one end-to-end
// run per algorithm variant on a representative topology.

func benchStabilize(b *testing.B, proto func() beep.Protocol, g *graph.Graph) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := core.Run(core.RunConfig{
			Graph:    g,
			Protocol: proto(),
			Seed:     uint64(i),
			Init:     core.InitRandom,
		})
		if err != nil {
			b.Fatal(err)
		}
		_ = res
	}
}

func BenchmarkStabilizeAlg1KnownDelta1k(b *testing.B) {
	g := graph.GNPAvgDegree(1024, 8, rng.New(1))
	benchStabilize(b, func() beep.Protocol {
		return core.NewAlg1(core.KnownMaxDegreeExact(core.DefaultC1KnownDelta))
	}, g)
}

func BenchmarkStabilizeAlg1OwnDegree1k(b *testing.B) {
	g := graph.GNPAvgDegree(1024, 8, rng.New(1))
	benchStabilize(b, func() beep.Protocol {
		return core.NewAlg1(core.OwnDegree(core.DefaultC1OwnDegree))
	}, g)
}

func BenchmarkStabilizeAlg2TwoChannel1k(b *testing.B) {
	g := graph.GNPAvgDegree(1024, 8, rng.New(1))
	benchStabilize(b, func() beep.Protocol {
		return core.NewAlg2(core.NeighborhoodMaxDegree(core.DefaultC1TwoHop))
	}, g)
}

// Engine benchmarks: cost of one simulated round on the flat-kernel
// pipeline at several stripe counts and on the reference loop,
// isolating simulator overhead from algorithm work.

func benchEngine(b *testing.B, n int, opts ...beep.Option) {
	b.Helper()
	g := graph.GNPAvgDegree(n, 8, rng.New(2))
	proto := core.NewAlg1(core.KnownMaxDegreeExact(core.DefaultC1KnownDelta))
	net, err := beep.NewNetwork(g, proto, 3, opts...)
	if err != nil {
		b.Fatal(err)
	}
	defer net.Close()
	net.RandomizeAll()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Step()
	}
}

func BenchmarkRoundSequential4k(b *testing.B) { benchEngine(b, 4096) }

// BenchmarkRoundFlatParallel4k runs the pipeline on three stripes, so
// the pool barrier runs on any host; the W-suffixed variants pin the
// stripe counts of the scaling table in BENCH_parflat.json. W1 runs
// the same single inline stripe as Sequential4k, so (W1 − Wk) is the
// parallel payoff net of the pool barrier.
func BenchmarkRoundFlatParallel4k(b *testing.B)   { benchEngine(b, 4096, beep.WithWorkers(3)) }
func BenchmarkRoundFlatParallel4kW1(b *testing.B) { benchEngine(b, 4096, beep.WithWorkers(1)) }
func BenchmarkRoundFlatParallel4kW2(b *testing.B) { benchEngine(b, 4096, beep.WithWorkers(2)) }
func BenchmarkRoundFlatParallel4kW4(b *testing.B) { benchEngine(b, 4096, beep.WithWorkers(4)) }
func BenchmarkRoundFlatParallel4kW8(b *testing.B) { benchEngine(b, 4096, beep.WithWorkers(8)) }

// BenchmarkRoundFlatRelabeled4k isolates the cache-locality effect of
// graph.Relabel: the same G(n,p) instance as the other 4k round
// benches, BFS-relabeled before network construction, run on the
// sequential pipeline. The delta against BenchmarkRoundSequential4k is
// pure memory-layout effect — the relabeled graph is isomorphic and
// every kernel does identical arithmetic.
func BenchmarkRoundFlatRelabeled4k(b *testing.B) {
	g := graph.Relabel(graph.GNPAvgDegree(4096, 8, rng.New(2)), graph.OrderBFS).Graph
	proto := core.NewAlg1(core.KnownMaxDegreeExact(core.DefaultC1KnownDelta))
	net, err := beep.NewNetwork(g, proto, 3)
	if err != nil {
		b.Fatal(err)
	}
	defer net.Close()
	net.RandomizeAll()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Step()
	}
}

// BenchmarkRoundSequentialRef4k pins the pre-flat reference loop
// (per-vertex interface dispatch) so the flat-kernel speedup stays
// measurable.
func BenchmarkRoundSequentialRef4k(b *testing.B) {
	benchEngine(b, 4096, beep.WithFlatKernels(false))
}

// BenchmarkRoundFlat1M measures one flat-kernel round at n = 10⁶ on a
// random geometric graph (the paper's wireless-network motivation),
// from a randomized configuration: the convergence-phase rounds that
// dominate experiment cost at scale. Skipped under -short (graph
// generation alone takes seconds).
func BenchmarkRoundFlat1M(b *testing.B) {
	if testing.Short() {
		b.Skip("n=10^6 round benchmark skipped in -short mode")
	}
	const n = 1_000_000
	r := math.Sqrt(8 / (math.Pi * float64(n)))
	g := graph.UnitDisk(n, r, rng.New(9))
	proto := core.NewAlg1(core.KnownMaxDegreeExact(core.DefaultC1KnownDelta))
	net, err := beep.NewNetwork(g, proto, 3)
	if err != nil {
		b.Fatal(err)
	}
	defer net.Close()
	net.RandomizeAll()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Step()
	}
}

// BenchmarkRoundFlatParallel1M is BenchmarkRoundFlat1M with
// sub-benchmarks per stripe count (WithWorkers): the scaling
// measurement behind BENCH_parflat.json. Skipped under -short for the
// same reason (UnitDisk generation at n = 10⁶ takes seconds). Combine
// with -cpu to also scale GOMAXPROCS; with a single allotted CPU the
// worker counts measure sharding overhead, not speedup.
func BenchmarkRoundFlatParallel1M(b *testing.B) {
	if testing.Short() {
		b.Skip("n=10^6 round benchmark skipped in -short mode")
	}
	const n = 1_000_000
	r := math.Sqrt(8 / (math.Pi * float64(n)))
	g := graph.UnitDisk(n, r, rng.New(9))
	proto := core.NewAlg1(core.KnownMaxDegreeExact(core.DefaultC1KnownDelta))
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("w%d", w), func(b *testing.B) {
			net, err := beep.NewNetwork(g, proto, 3, beep.WithWorkers(w))
			if err != nil {
				b.Fatal(err)
			}
			defer net.Close()
			net.RandomizeAll()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net.Step()
			}
		})
	}
}

// Substrate benchmarks.

func BenchmarkLegalityCheck4k(b *testing.B) {
	g := graph.GNPAvgDegree(4096, 8, rng.New(4))
	proto := core.NewAlg1(core.KnownMaxDegreeExact(core.DefaultC1KnownDelta))
	net, err := beep.NewNetwork(g, proto, 5)
	if err != nil {
		b.Fatal(err)
	}
	defer net.Close()
	net.RandomizeAll()
	b.ReportAllocs()
	b.ResetTimer()
	var st core.State
	for i := 0; i < b.N; i++ {
		if err := st.Refresh(net); err != nil {
			b.Fatal(err)
		}
		_ = st.Stabilized()
	}
}

func BenchmarkFaultRecoveryCycle1k(b *testing.B) {
	g := graph.Cycle(1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := stab.MeasureRecovery(stab.RecoveryConfig{
			Graph:    g,
			Protocol: core.NewAlg1(core.KnownMaxDegreeExact(core.DefaultC1KnownDelta)),
			Seed:     uint64(i),
			Fault:    stab.RandomFault{K: 32},
			Repeats:  1,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBaselineJeavons1k(b *testing.B) {
	g := graph.GNPAvgDegree(1024, 8, rng.New(6))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := baseline.RunBeeping(g, baseline.Jeavons{}, uint64(i), 100000, false, false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBaselineLuby1k(b *testing.B) {
	g := graph.GNPAvgDegree(1024, 8, rng.New(7))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := baseline.RunLuby(g, uint64(i), 100000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGraphGNP64k(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = graph.GNPAvgDegree(65536, 8, rng.New(uint64(i)))
	}
}

func BenchmarkPublicSolveCycle256(b *testing.B) {
	g, err := NewGraph(256, cycleEdges(256))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(g, WithSeed(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// Detector micro-benchmarks: the per-round cost of the stabilization
// stop check — Refresh (level capture) and Stabilized (legality
// detection) — across sizes and graph families (EXPERIMENTS.md,
// "Harness cost", records their numbers); the stop check runs once per
// simulated round in every experiment, so its cost bounds the sweep
// sizes the harness can reach.

func detectorBenchGraph(family string, n int) *graph.Graph {
	switch family {
	case "path":
		return graph.Path(n)
	case "grid":
		side := int(math.Sqrt(float64(n)))
		return graph.Grid(side, side)
	case "rgg":
		// Radius chosen for expected average degree ≈ 8.
		r := math.Sqrt(8 / (math.Pi * float64(n)))
		return graph.UnitDisk(n, r, rng.New(uint64(n)))
	}
	panic("unknown detector bench family " + family)
}

func benchDetectorCases(b *testing.B, fn func(b *testing.B, net *beep.Network)) {
	b.Helper()
	for _, family := range []string{"path", "grid", "rgg"} {
		for _, n := range []int{256, 4096, 16384} {
			b.Run(fmt.Sprintf("%s/n=%d", family, n), func(b *testing.B) {
				g := detectorBenchGraph(family, n)
				proto := core.NewAlg1(core.KnownMaxDegreeExact(core.DefaultC1KnownDelta))
				net, err := beep.NewNetwork(g, proto, 11)
				if err != nil {
					b.Fatal(err)
				}
				defer net.Close()
				net.RandomizeAll()
				// A few rounds toward (but not at) stabilization: the
				// state a mid-run stop check actually sees.
				for i := 0; i < 8; i++ {
					net.Step()
				}
				fn(b, net)
			})
		}
	}
}

// BenchmarkRefresh measures the first half of the per-round stop
// closure: Refresh into a reused State. Nothing changes between
// iterations, so after the first full read each call takes an empty
// change feed and exports no level — the quiet-round cost, O(n/4096)
// mask words.
func BenchmarkRefresh(b *testing.B) {
	benchDetectorCases(b, func(b *testing.B, net *beep.Network) {
		var st core.State
		if err := st.Refresh(net); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := st.Refresh(net); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkStabilizedDetector measures the full per-round stop check:
// Refresh followed by Stabilized, exactly what core.Run evaluates after
// every round. Levels do not change between iterations, so this is the
// steady-state ("nothing changed this round") cost that dominates long
// executions: an empty change feed, no level export and no level
// compare, only a few passes over the O(n/4096)-word change masks.
// BenchmarkProbeRecovery512 measures the probe on rounds that do change
// something.
func BenchmarkStabilizedDetector(b *testing.B) {
	benchDetectorCases(b, func(b *testing.B, net *beep.Network) {
		var st core.State
		if err := st.Refresh(net); err != nil {
			b.Fatal(err)
		}
		_ = st.Stabilized()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := st.Refresh(net); err != nil {
				b.Fatal(err)
			}
			_ = st.Stabilized()
		}
	})
}

// BenchmarkRoundDenseK2k measures one round on a complete graph, the
// topology where the early-exit delivery scan matters most.
func BenchmarkRoundDenseK2k(b *testing.B) {
	g := graph.Complete(2048)
	proto := core.NewAlg1(core.KnownMaxDegreeExact(core.DefaultC1KnownDelta))
	net, err := beep.NewNetwork(g, proto, 3)
	if err != nil {
		b.Fatal(err)
	}
	defer net.Close()
	// Zero levels: everyone beeps, the early exit triggers immediately.
	for v := 0; v < net.N(); v++ {
		net.Machine(v).(core.Leveled).SetLevel(0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Step()
	}
}
