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

// runEngineTrace executes proto on g under the given network options
// from the randomized initial configuration determined by seed,
// recording the full signal trace until stabilization (or maxRounds).
func runEngineTrace(t *testing.T, g graph.Topology, proto beep.Protocol, seed uint64, maxRounds int, opts ...beep.Option) engineEquivTrace {
	t.Helper()
	tr := engineEquivTrace{stabilized: -1}
	opts = append([]beep.Option{
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
// the paper's protocols: the flat-kernel pipeline at several stripe
// counts produces bit-identical (sent, heard) traces and the same
// stabilization round for a fixed seed, across graph families with
// distinct degree profiles. The reference is the network with the flat
// kernels forced OFF (the plain per-machine interface loop), so the
// comparison also certifies the kernels against the reference
// semantics. Run with -race the wide family exercises the worker-pool
// barrier: stripes are 64-vertex-aligned, so the smaller families run
// one stripe whatever the row asks for.
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
		{"gnp-wide", graph.GNPAvgDegree(160, 5, rng.New(405))},
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
		name string
		opts []beep.Option
	}{
		{"sequential+kernels", nil},
		// Stripe counts: the trace must be invariant in the stripe
		// partition, including a count that exceeds the family sizes.
		{"flatparallel-w3", []beep.Option{beep.WithWorkers(3)}},
		{"flatparallel-w8", []beep.Option{beep.WithWorkers(8)}},
		// Delta-delivery pins: graphs this small always cross over to
		// dense delivery, so the delta re-gather is forced here.
		{"sequential-delta", []beep.Option{beep.WithForcedDelta()}},
		{"flatparallel-w3-delta", []beep.Option{beep.WithWorkers(3), beep.WithForcedDelta()}},
	}
	const seed, maxRounds = 90210, 20000
	for _, fam := range families {
		for _, p := range protos {
			t.Run(fmt.Sprintf("%s/%s", fam.name, p.name), func(t *testing.T) {
				// Reference: the plain interface loop, kernels disabled.
				ref := runEngineTrace(t, fam.g, p.proto, seed, maxRounds, beep.WithFlatKernels(false))
				if ref.stabilized < 0 {
					t.Fatalf("reference run did not stabilize within %d rounds", maxRounds)
				}
				for _, e := range engines {
					got := runEngineTrace(t, fam.g, p.proto, seed, maxRounds, e.opts...)
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

// oracleState is the detector's reference: a fresh State loaded by
// LevelExporter.ExportLevels over every word, with the protocol's
// channel semantics and the given exclusion mask. It reads the slab
// directly — no Network.Machine call, which would mark every vertex
// active and dirty and so force dense rounds, and no Refresh, which
// would take the network's change feed from the State under test — and,
// being fresh, its first query recomputes I_t and S_t from scratch.
func oracleState(t *testing.T, net *beep.Network, excluded []bool) *State {
	t.Helper()
	le, ok := net.BulkState().(LevelExporter)
	if !ok {
		t.Fatalf("bulk state %T exports no levels", net.BulkState())
	}
	n := net.N()
	o := &State{levels: make([]int32, n), caps: make([]int32, n), capsMutable: true, twoChannel: le.TwoChannel()}
	o.setGraph(net.Graph())
	le.ExportLevels(o.levels, o.caps, nil)
	o.SetExcluded(excluded)
	return o
}

// checkAgainstOracle refreshes inc from net and requires it to agree
// with a from-scratch oracle on every exported level and cap and on
// every detector answer.
func checkAgainstOracle(t *testing.T, tag string, inc *State, net *beep.Network, excluded []bool) {
	t.Helper()
	if err := inc.Refresh(net); err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	o := oracleState(t, net, excluded)
	for v := range o.levels {
		if inc.levels[v] != o.levels[v] || inc.caps[v] != o.caps[v] {
			t.Fatalf("%s: vertex %d refreshed as (ℓ=%d, ℓmax=%d), slab holds (%d, %d)",
				tag, v, inc.levels[v], inc.caps[v], o.levels[v], o.caps[v])
		}
	}
	if got, want := inc.Stabilized(), o.Stabilized(); got != want {
		t.Fatalf("%s: incremental Stabilized=%v, oracle %v", tag, got, want)
	}
	if got, want := inc.StableCount(), o.StableCount(); got != want {
		t.Fatalf("%s: incremental StableCount=%d, oracle %d", tag, got, want)
	}
	gotMIS, wantMIS := inc.MISMask(), o.MISMask()
	gotS, wantS := inc.StableMask(), o.StableMask()
	for v := range wantMIS {
		if gotMIS[v] != wantMIS[v] || gotS[v] != wantS[v] {
			t.Fatalf("%s: masks diverged at vertex %d (MIS %v/%v, stable %v/%v)",
				tag, v, gotMIS[v], wantMIS[v], gotS[v], wantS[v])
		}
	}
}

// detectorProtos and detectorEngines are the detector oracle matrix:
// the three slabs on the pipeline (one stripe, three stripes, forced
// delta delivery) and on the reference loop.
var (
	detectorProtos = []struct {
		name  string
		proto beep.Protocol
	}{
		{"alg1", NewAlg1(KnownMaxDegreeExact(DefaultC1KnownDelta))},
		{"alg2", NewAlg2(NeighborhoodMaxDegree(DefaultC1TwoHop))},
		{"adaptive", NewAdaptiveAlg1()},
	}
	detectorEngines = []struct {
		name string
		opts []beep.Option
	}{
		{"sequential", nil},
		{"flatparallel-w3", []beep.Option{beep.WithWorkers(3)}},
		{"forced-delta", []beep.Option{beep.WithForcedDelta()}},
		{"reference", []beep.Option{beep.WithFlatKernels(false)}},
	}
)

// TestIncrementalDetectorMatchesFullRecompute cross-validates the
// change-fed detector against a from-scratch oracle (oracleState) on
// every round of full executions and right after every state mutation
// the engine offers: RandomizeAll, small and large Corrupt bursts,
// InstallRows, Restore, Reseed and a Rewire, with a checkpoint capture
// in between (which must not disturb the probe's feed). Most graphs
// span several slab words, and neither the oracle nor the probe marks
// the engine, so a mutation or round whose words the dirty tracker
// misses leaves a stale level in the probe and fails here.
func TestIncrementalDetectorMatchesFullRecompute(t *testing.T) {
	families := []struct {
		name string
		g    *graph.Graph
	}{
		{"path", graph.Path(200)},
		{"grid", graph.Grid(20, 20)},
		{"gnp", graph.GNPAvgDegree(320, 6, rng.New(7))},
		{"complete", graph.Complete(10)},
	}
	for _, fam := range families {
		for _, p := range detectorProtos {
			t.Run(fam.name+"/"+p.name, func(t *testing.T) {
				for _, e := range detectorEngines {
					t.Run(e.name, func(t *testing.T) {
						runDetectorScript(t, fam.g, p.proto, e.opts)
					})
				}
			})
		}
	}
}

// runDetectorScript drives one network through the mutation script of
// TestIncrementalDetectorMatchesFullRecompute, checking the probe
// against the oracle after every round and every mutation.
func runDetectorScript(t *testing.T, g *graph.Graph, proto beep.Protocol, opts []beep.Option) {
	net, err := beep.NewNetwork(g, proto, 5150, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	faultSrc := rng.New(99)
	var inc State
	check := func(tag string) {
		t.Helper()
		checkAgainstOracle(t, fmt.Sprintf("%s (round %d)", tag, net.Round()), &inc, net, nil)
	}
	// settle steps until the probe has reported 10 quiet rounds.
	settle := func(tag string) {
		t.Helper()
		quiet := 0
		for r := 0; quiet < 10; r++ {
			if r == 5000 {
				t.Fatalf("%s: no quiet run within %d rounds", tag, r)
			}
			net.Step()
			check(tag)
			if inc.Stabilized() {
				quiet++
			} else {
				quiet = 0
			}
		}
	}
	corrupt := func(tag string, k int) {
		t.Helper()
		if err := net.Corrupt(faultSrc.Perm(net.N())[:k]); err != nil {
			t.Fatal(err)
		}
		check(tag)
	}

	net.RandomizeAll()
	check("randomize")
	settle("randomize")
	corrupt("corrupt-3", 3)
	settle("corrupt-3")
	cp, err := net.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	check("checkpoint")
	corrupt("corrupt-third", net.N()/3)
	for r := 0; r < 5; r++ {
		net.Step()
		check("corrupt-third")
	}
	// Put back the checkpointed rows of a few scattered vertices.
	var rows beep.StateRows
	for _, v := range []int{1, net.N() / 2, net.N() - 1} {
		rows.Index = append(rows.Index, int32(v))
		rows.Machines = append(rows.Machines, cp.Machines[v])
		rows.Streams = append(rows.Streams, cp.Streams[v])
	}
	if err := net.InstallRows(net.Round(), &rows); err != nil {
		t.Fatal(err)
	}
	check("install-rows")
	settle("install-rows")
	corrupt("corrupt-3-again", 3)
	if err := net.Restore(cp); err != nil {
		t.Fatal(err)
	}
	check("restore")
	settle("restore")
	if err := net.Reseed(8086); err != nil {
		t.Fatal(err)
	}
	check("reseed")
	net.RandomizeAll()
	check("reseed+randomize")
	settle("reseed")
	g2, mapping, err := graph.ApplyEdits(g, []graph.Edit{
		{Kind: graph.EditDelVertex, U: 0},
		{Kind: graph.EditAddVertex},
		{Kind: graph.EditAddEdge, U: g.N(), V: 1},
		{Kind: graph.EditAddEdge, U: g.N(), V: g.N() / 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Rewire(g2, mapping[:g.N()]); err != nil {
		t.Fatal(err)
	}
	check("rewire")
	settle("rewire")
	corrupt("rewire-corrupt", 3)
	settle("rewire-corrupt")
}

// TestDetectorTwoProbesOneNetwork pins the change feed's one-reader
// rule: two States refreshing the same network — alternating every
// round, and then one of them sitting out several rounds — must each
// agree with the oracle on every round. A State that was not the
// feed's last reader re-reads everything instead of missing the
// changes another reader consumed.
func TestDetectorTwoProbesOneNetwork(t *testing.T) {
	g := graph.GNPAvgDegree(320, 6, rng.New(12))
	for _, p := range detectorProtos {
		for _, e := range detectorEngines {
			t.Run(p.name+"/"+e.name, func(t *testing.T) {
				net, err := beep.NewNetwork(g, p.proto, 31337, e.opts...)
				if err != nil {
					t.Fatal(err)
				}
				defer net.Close()
				net.RandomizeAll()
				faultSrc := rng.New(5)
				var a, b State
				for r := 0; r < 400; r++ {
					if r%50 == 25 {
						if err := net.Corrupt(faultSrc.Perm(net.N())[:4]); err != nil {
							t.Fatal(err)
						}
					}
					net.Step()
					tag := fmt.Sprintf("round %d", net.Round())
					switch {
					case r < 200:
						// Both every round, in alternating order.
						first, second := &a, &b
						if r%2 == 1 {
							first, second = &b, &a
						}
						checkAgainstOracle(t, "first "+tag, first, net, nil)
						checkAgainstOracle(t, "second "+tag, second, net, nil)
					case r%7 == 0:
						checkAgainstOracle(t, "b "+tag, &b, net, nil)
					default:
						checkAgainstOracle(t, "a "+tag, &a, net, nil)
					}
				}
			})
		}
	}
}

// TestFaultModelKernelEquivalence pins the pipeline's fault rounds on
// the paper's protocols: under listening noise, sleep, and noise +
// sleep + adversaries together, the flat kernels on one stripe and on
// three must reproduce the reference loop (WithFlatKernels(false))
// round for round. A fault round is the same pipeline with every word active, the
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
		{"flatparallel-w3", []beep.Option{beep.WithWorkers(3)}},
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
