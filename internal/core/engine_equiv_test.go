package core

import (
	"fmt"
	"testing"

	"repro/internal/beep"
	"repro/internal/graph"
	"repro/internal/rng"
)

// engineEquivTrace is one engine's observable execution record: the
// (sent, heard) signal pair of every vertex in every round, plus the
// round at which the incremental detector first reported stabilization.
type engineEquivTrace struct {
	sent       [][]beep.Signal
	heard      [][]beep.Signal
	stabilized int // -1: never within the budget
}

// runEngineTrace executes proto on g under the given engine from the
// randomized initial configuration determined by seed, recording the
// full signal trace until stabilization (or maxRounds).
func runEngineTrace(t *testing.T, g graph.Topology, proto beep.Protocol, seed uint64, engine beep.Engine, maxRounds int, opts ...beep.Option) engineEquivTrace {
	t.Helper()
	tr := engineEquivTrace{stabilized: -1}
	opts = append([]beep.Option{
		beep.WithEngine(engine),
		beep.WithObserver(func(_ int, sent, heard []beep.Signal) {
			s := make([]beep.Signal, len(sent))
			h := make([]beep.Signal, len(heard))
			copy(s, sent)
			copy(h, heard)
			tr.sent = append(tr.sent, s)
			tr.heard = append(tr.heard, h)
		})}, opts...)
	net, err := beep.NewNetwork(g, proto, seed, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	net.RandomizeAll()
	var probe State
	for r := 0; r < maxRounds; r++ {
		net.Step()
		if err := probe.Refresh(net); err != nil {
			t.Fatal(err)
		}
		if probe.Stabilized() {
			tr.stabilized = net.Round()
			return tr
		}
	}
	return tr
}

// TestEngineTraceEquivalence asserts the engine contract end to end on
// the paper's protocols: the flat-kernel pipeline on both engines —
// Sequential, and FlatParallel at several explicit worker counts —
// produces bit-identical (sent, heard) traces and the same
// stabilization round for a fixed seed, across graph families with
// distinct degree profiles. The reference is Sequential with the flat
// kernels forced OFF (the plain per-machine interface loop), so the
// comparison also certifies the kernels against the reference
// semantics. Run with -race this exercises the worker-pool barrier of
// the sharded pipeline.
func TestEngineTraceEquivalence(t *testing.T) {
	families := []struct {
		name string
		g    *graph.Graph
	}{
		{"path", graph.Path(33)},
		{"cycle", graph.Cycle(32)},
		{"complete", graph.Complete(12)},
		{"grid", graph.Grid(6, 6)},
		{"gnp", graph.GNPAvgDegree(48, 5, rng.New(404))},
		{"star", graph.Star(21)},
	}
	protos := []struct {
		name  string
		proto beep.Protocol
	}{
		{"alg1", NewAlg1(KnownMaxDegreeExact(DefaultC1KnownDelta))},
		{"alg2", NewAlg2(NeighborhoodMaxDegree(DefaultC1TwoHop))},
		{"adaptive", NewAdaptiveAlg1()},
	}
	engines := []struct {
		name   string
		engine beep.Engine
		opts   []beep.Option
	}{
		{"sequential+kernels", beep.Sequential, nil},
		{"flatparallel", beep.FlatParallel, nil},
		// Explicit worker counts: the trace must be invariant in the
		// stripe partition, including the degenerate single-worker pool
		// and a count that exceeds some of the family sizes.
		{"flatparallel-w1", beep.FlatParallel, []beep.Option{beep.WithWorkers(1)}},
		{"flatparallel-w3", beep.FlatParallel, []beep.Option{beep.WithWorkers(3)}},
		{"flatparallel-w8", beep.FlatParallel, []beep.Option{beep.WithWorkers(8)}},
		// Delta-delivery pins: graphs this small always cross over to
		// dense delivery, so the delta re-gather is forced here.
		{"sequential-delta", beep.Sequential, []beep.Option{beep.WithForcedDelta()}},
		{"flatparallel-delta", beep.FlatParallel, []beep.Option{beep.WithForcedDelta()}},
		{"flatparallel-w3-delta", beep.FlatParallel, []beep.Option{beep.WithWorkers(3), beep.WithForcedDelta()}},
	}
	const seed, maxRounds = 90210, 20000
	for _, fam := range families {
		for _, p := range protos {
			t.Run(fmt.Sprintf("%s/%s", fam.name, p.name), func(t *testing.T) {
				// Reference: the plain interface loop, kernels disabled.
				ref := runEngineTrace(t, fam.g, p.proto, seed, beep.Sequential, maxRounds, beep.WithFlatKernels(false))
				if ref.stabilized < 0 {
					t.Fatalf("reference run did not stabilize within %d rounds", maxRounds)
				}
				for _, e := range engines {
					got := runEngineTrace(t, fam.g, p.proto, seed, e.engine, maxRounds, e.opts...)
					if got.stabilized != ref.stabilized {
						t.Fatalf("engine %s stabilized at round %d, reference at %d", e.name, got.stabilized, ref.stabilized)
					}
					if len(got.sent) != len(ref.sent) {
						t.Fatalf("engine %s recorded %d rounds, reference %d", e.name, len(got.sent), len(ref.sent))
					}
					for r := range ref.sent {
						for v := range ref.sent[r] {
							if got.sent[r][v] != ref.sent[r][v] {
								t.Fatalf("engine %s: sent diverged at round %d vertex %d: %v vs %v",
									e.name, r+1, v, got.sent[r][v], ref.sent[r][v])
							}
							if got.heard[r][v] != ref.heard[r][v] {
								t.Fatalf("engine %s: heard diverged at round %d vertex %d: %v vs %v",
									e.name, r+1, v, got.heard[r][v], ref.heard[r][v])
							}
						}
					}
				}
			})
		}
	}
}

// TestIncrementalDetectorMatchesFullRecompute cross-validates the
// dirty-set detector against an independent from-scratch recompute on
// every round of a full execution, including rounds with injected
// faults (which produce large dirty sets) and the quiet rounds after
// stabilization (empty dirty sets).
func TestIncrementalDetectorMatchesFullRecompute(t *testing.T) {
	families := []struct {
		name string
		g    *graph.Graph
	}{
		{"path", graph.Path(40)},
		{"grid", graph.Grid(7, 7)},
		{"gnp", graph.GNPAvgDegree(64, 6, rng.New(7))},
		{"complete", graph.Complete(10)},
	}
	protos := []struct {
		name  string
		proto beep.Protocol
	}{
		{"alg1", NewAlg1(KnownMaxDegreeExact(DefaultC1KnownDelta))},
		{"alg2", NewAlg2(NeighborhoodMaxDegree(DefaultC1TwoHop))},
		{"adaptive", NewAdaptiveAlg1()},
	}
	for _, fam := range families {
		for _, p := range protos {
			t.Run(fmt.Sprintf("%s/%s", fam.name, p.name), func(t *testing.T) {
				net, err := beep.NewNetwork(fam.g, p.proto, 5150)
				if err != nil {
					t.Fatal(err)
				}
				defer net.Close()
				net.RandomizeAll()
				faultSrc := rng.New(99)
				var inc State // incremental: one probe reused every round
				quiet := 0
				for r := 0; r < 3000 && quiet < 25; r++ {
					net.Step()
					if err := inc.Refresh(net); err != nil {
						t.Fatal(err)
					}
					// Independent full recompute from the same levels.
					levels := make([]int, net.N())
					caps := make([]int, net.N())
					for v := 0; v < net.N(); v++ {
						m := net.Machine(v).(Leveled)
						levels[v], caps[v] = m.Level(), m.Cap()
					}
					full := NewState(fam.g, levels, caps)
					if p.name == "alg2" {
						// NewState assumes single-channel semantics;
						// re-snapshot through the network instead.
						full, err = Snapshot(net)
						if err != nil {
							t.Fatal(err)
						}
					}
					if got, want := inc.Stabilized(), full.Stabilized(); got != want {
						t.Fatalf("round %d: incremental Stabilized=%v, full=%v", r, got, want)
					}
					if got, want := inc.StableCount(), full.StableCount(); got != want {
						t.Fatalf("round %d: incremental StableCount=%d, full=%d", r, got, want)
					}
					gotMIS, wantMIS := inc.MISMask(), full.MISMask()
					for v := range wantMIS {
						if gotMIS[v] != wantMIS[v] {
							t.Fatalf("round %d: MIS mask diverged at vertex %d", r, v)
						}
					}
					if inc.Stabilized() {
						quiet++
						if quiet == 10 {
							// Inject a mid-run fault so the detector
							// must handle a burst of dirty vertices.
							if err := net.Corrupt(faultSrc.Perm(net.N())[:net.N()/3]); err != nil {
								t.Fatal(err)
							}
						}
					}
				}
				if quiet < 25 {
					t.Fatalf("execution never reached the quiet-round quota (got %d)", quiet)
				}
			})
		}
	}
}

// TestFaultModelKernelEquivalence pins the pipeline's fault rounds on
// the paper's protocols: under listening noise, sleep, and noise +
// sleep + adversaries together, the flat kernels on both engines —
// Sequential, and FlatParallel with one and three stripes — must
// reproduce the reference loop (WithFlatKernels(false)) round for
// round. A fault round is the same pipeline with every word active, the
// skip mask of sleepers and adversaries, dense delivery and the noise
// pass, so this is where the kernels' skip loops and the noise-stream
// order are checked.
func TestFaultModelKernelEquivalence(t *testing.T) {
	g := graph.GNPAvgDegree(150, 5, rng.New(61))
	protos := []struct {
		name  string
		proto beep.Protocol
	}{
		{"alg1", NewAlg1(KnownMaxDegreeExact(DefaultC1KnownDelta))},
		{"alg2", NewAlg2(NeighborhoodMaxDegree(DefaultC1TwoHop))},
		{"adaptive", NewAdaptiveAlg1()},
	}
	noise := beep.WithNoise(beep.Noise{PLoss: 0.1, PFalse: 0.03})
	sleep := beep.WithSleep(beep.Sleep{P: 0.15})
	faults := []struct {
		name string
		opts []beep.Option
	}{
		{"noise", []beep.Option{noise}},
		{"sleep", []beep.Option{sleep}},
		{"noise+sleep+adversaries", []beep.Option{noise, sleep,
			beep.WithAdversaries(beep.AdvJammer, []int{3}),
			beep.WithAdversaries(beep.AdvBabbler, []int{40, 77, 141}),
			beep.WithAdversaries(beep.AdvMute, []int{90})}},
	}
	engines := []struct {
		name string
		opts []beep.Option
	}{
		{"sequential", nil},
		{"flatparallel-w1", []beep.Option{beep.WithEngine(beep.FlatParallel), beep.WithWorkers(1)}},
		{"flatparallel-w3", []beep.Option{beep.WithEngine(beep.FlatParallel), beep.WithWorkers(3)}},
	}
	const seed, rounds = 4711, 80
	run := func(t *testing.T, proto beep.Protocol, opts ...beep.Option) [][]beep.Signal {
		t.Helper()
		var trace [][]beep.Signal
		net, err := beep.NewNetwork(g, proto, seed, append(opts,
			beep.WithObserver(func(_ int, sent, heard []beep.Signal) {
				row := make([]beep.Signal, 0, 2*len(sent))
				row = append(row, sent...)
				row = append(row, heard...)
				trace = append(trace, row)
			}))...)
		if err != nil {
			t.Fatal(err)
		}
		defer net.Close()
		net.RandomizeAll()
		for r := 0; r < rounds; r++ {
			net.Step()
		}
		return trace
	}
	for _, p := range protos {
		for _, f := range faults {
			t.Run(p.name+"/"+f.name, func(t *testing.T) {
				ref := run(t, p.proto, append([]beep.Option{beep.WithFlatKernels(false)}, f.opts...)...)
				for _, e := range engines {
					got := run(t, p.proto, append(append([]beep.Option(nil), f.opts...), e.opts...)...)
					compareTraces(t, e.name, got, ref)
				}
			})
		}
	}
}
