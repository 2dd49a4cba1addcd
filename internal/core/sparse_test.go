package core

import (
	"fmt"
	"testing"

	"repro/internal/beep"
	"repro/internal/graph"
	"repro/internal/rng"
)

// TestSparseOnRequiresKernels pins the construction-time validation of
// the forced-delta test hook: kernel-less configurations must be
// rejected (the hook would pin nothing there), kernel engines accepted.
func TestSparseOnRequiresKernels(t *testing.T) {
	g := graph.Cycle(64)
	proto := NewAlg1(KnownMaxDegreeExact(DefaultC1KnownDelta))
	if _, err := beep.NewNetwork(g, proto, 1, beep.WithFlatKernels(false), beep.WithForcedDelta()); err == nil {
		t.Fatal("WithForcedDelta accepted with kernels disabled")
	}
	for _, e := range []beep.Engine{beep.Sequential, beep.FlatParallel} {
		net, err := beep.NewNetwork(g, proto, 1, beep.WithEngine(e), beep.WithForcedDelta())
		if err != nil {
			t.Fatalf("WithForcedDelta rejected on %v: %v", e, err)
		}
		net.Close()
	}
}

// TestSparseFrontierDecay asserts the whole point of the pipeline's
// activity gating: on a fault-free run the frontier reported by
// WithStatsObserver shrinks to zero and stays there (O(1) elided
// rounds), while the execution stays bit-identical to the reference
// loop round by round.
func TestSparseFrontierDecay(t *testing.T) {
	g := graph.GNPAvgDegree(4096, 8, rng.New(99))
	proto := NewAlg1(KnownMaxDegreeExact(DefaultC1KnownDelta))
	const seed, rounds = 7, 150
	for _, eng := range []struct {
		name   string
		engine beep.Engine
	}{{"flat", beep.Sequential}, {"flatparallel", beep.FlatParallel}} {
		t.Run(eng.name, func(t *testing.T) {
			ref := runEngineTrace(t, g, proto, seed, beep.Sequential, rounds, beep.WithFlatKernels(false))

			tr := runEngineTrace(t, g, proto, seed, eng.engine, rounds)
			for r := range ref.sent {
				if r >= len(tr.sent) {
					break
				}
				for v := range ref.sent[r] {
					if tr.sent[r][v] != ref.sent[r][v] || tr.heard[r][v] != ref.heard[r][v] {
						t.Fatalf("sparse trace diverged at round %d vertex %d", r+1, v)
					}
				}
			}
			if tr.stabilized != ref.stabilized {
				t.Fatalf("sparse stabilized at %d, reference at %d", tr.stabilized, ref.stabilized)
			}

			// The detector fires before the level dynamics fully drain,
			// so measure frontier decay on a fixed-length run that
			// continues past stabilization.
			var frontiers, actives []int
			net, err := beep.NewNetwork(g, proto, seed, beep.WithEngine(eng.engine),
				beep.WithStatsObserver(func(_, active, fw int) {
					actives = append(actives, active)
					frontiers = append(frontiers, fw)
				}))
			if err != nil {
				t.Fatal(err)
			}
			defer net.Close()
			net.RandomizeAll()
			for r := 0; r < 2*rounds; r++ {
				net.Step()
			}
			words := (g.N() + 63) / 64
			if frontiers[0] != words {
				t.Fatalf("round 1 frontier = %d words, want all %d", frontiers[0], words)
			}
			if actives[0] != g.N() {
				t.Fatalf("round 1 active = %d, want %d", actives[0], g.N())
			}
			// After stabilization the frontier must be empty: the
			// detector fires at tr.stabilized, and the observer kept
			// running until the harness stopped.
			last := frontiers[len(frontiers)-1]
			if last != 0 {
				t.Fatalf("final frontier = %d words, want 0 (frontiers tail: %v)", last, frontiers[max(0, len(frontiers)-8):])
			}
			// And it must actually have decayed strictly below full
			// width on the way, or the gating never engaged.
			sawSparse := false
			for _, f := range frontiers {
				if f > 0 && f < words/4 {
					sawSparse = true
					break
				}
			}
			if !sawSparse {
				t.Fatalf("frontier never dropped below %d/4 words: %v", words, frontiers)
			}
		})
	}
}

// TestSparseExternalMutationExact pins the invalidation hooks: state
// mutated between rounds through the public surface (Corrupt, retained
// Machine handles / SetLevel) must re-activate exactly enough of the
// frontier that gated executions stay bit-identical to the reference
// loop.
func TestSparseExternalMutationExact(t *testing.T) {
	g := graph.GNPAvgDegree(512, 6, rng.New(5))
	proto := NewAlg1(KnownMaxDegreeExact(DefaultC1KnownDelta))
	const seed = 31337

	type mutation struct {
		round int
		apply func(t *testing.T, net *beep.Network, src *rng.Source)
	}
	muts := []mutation{
		{30, func(t *testing.T, net *beep.Network, src *rng.Source) {
			if err := net.Corrupt(src.Perm(net.N())[:13]); err != nil {
				t.Fatal(err)
			}
		}},
		{55, func(t *testing.T, net *beep.Network, _ *rng.Source) {
			net.Machine(17).(Leveled).SetLevel(1)
			net.Machine(403).(Leveled).SetLevel(2)
		}},
		{80, func(t *testing.T, net *beep.Network, _ *rng.Source) {
			net.RandomizeAll()
		}},
	}

	run := func(opts ...beep.Option) [][]beep.Signal {
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
		src := rng.New(777)
		for r := 1; r <= 120; r++ {
			for _, m := range muts {
				if m.round == r {
					m.apply(t, net, src)
				}
			}
			net.Step()
		}
		return trace
	}

	ref := run(beep.WithFlatKernels(false))
	for _, cfg := range []struct {
		name string
		opts []beep.Option
	}{
		{"sequential", nil},
		{"sequential-delta", []beep.Option{beep.WithForcedDelta()}},
		{"flatparallel", []beep.Option{beep.WithEngine(beep.FlatParallel)}},
		{"flatparallel-delta", []beep.Option{beep.WithEngine(beep.FlatParallel), beep.WithForcedDelta()}},
	} {
		got := run(cfg.opts...)
		if len(got) != len(ref) {
			t.Fatalf("%s: %d rounds, want %d", cfg.name, len(got), len(ref))
		}
		for r := range ref {
			for i := range ref[r] {
				if got[r][i] != ref[r][i] {
					t.Fatalf("%s: trace diverged at round %d slot %d", cfg.name, r+1, i)
				}
			}
		}
	}
}

// FuzzSparseFrontierEquivalence pins the frontier propagation rule
// against the reference loop on fuzz-chosen graphs, seeds and fault
// injections: the gated execution must be bit-identical every round,
// and any round whose reported frontier is empty must be a literal
// fixed point (signals identical to the previous round).
func FuzzSparseFrontierEquivalence(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(20), uint8(3))
	f.Add(uint64(42), uint8(1), uint8(5), uint8(0))
	f.Add(uint64(1234), uint8(2), uint8(60), uint8(17))
	f.Fuzz(func(t *testing.T, seed uint64, famSel, corruptRound, corruptVertex uint8) {
		var g *graph.Graph
		switch famSel % 4 {
		case 0:
			g = graph.GNPAvgDegree(192, 5, rng.New(seed|1))
		case 1:
			g = graph.Cycle(130)
		case 2:
			g = graph.Grid(11, 12)
		default:
			g = graph.Star(97)
		}
		proto := NewAlg1(KnownMaxDegreeExact(DefaultC1KnownDelta))
		const rounds = 90

		run := func(opts ...beep.Option) ([][]beep.Signal, []int) {
			var trace [][]beep.Signal
			var frontiers []int
			net, err := beep.NewNetwork(g, proto, seed, append(opts,
				beep.WithObserver(func(_ int, sent, heard []beep.Signal) {
					row := make([]beep.Signal, 0, 2*len(sent))
					row = append(row, sent...)
					row = append(row, heard...)
					trace = append(trace, row)
				}),
				beep.WithStatsObserver(func(_, _, fw int) {
					frontiers = append(frontiers, fw)
				}))...)
			if err != nil {
				t.Fatal(err)
			}
			defer net.Close()
			net.RandomizeAll()
			for r := 1; r <= rounds; r++ {
				if r == int(corruptRound) {
					if err := net.Corrupt([]int{int(corruptVertex) % g.N()}); err != nil {
						t.Fatal(err)
					}
				}
				net.Step()
			}
			return trace, frontiers
		}

		ref, _ := run(beep.WithFlatKernels(false))
		for mode, opts := range map[string][]beep.Option{"auto": nil, "delta": {beep.WithForcedDelta()}} {
			got, frontiers := run(opts...)
			for r := range ref {
				for i := range ref[r] {
					if got[r][i] != ref[r][i] {
						t.Fatalf("mode %s: diverged at round %d slot %d (fam %d seed %d)", mode, r+1, i, famSel%4, seed)
					}
				}
				if r > 0 && frontiers[r] == 0 {
					for i := range got[r] {
						if got[r][i] != got[r-1][i] {
							t.Fatalf("mode %s: empty frontier at round %d but signals moved at slot %d", mode, r+1, i)
						}
					}
				}
			}
		}
	})
}

// TestSparseReseedExact pins Reseed on the pipeline, with crossover
// delivery (auto) and forced delta delivery (on): a reseeded
// network must replay the fresh-network execution bit for bit even
// though the sender bitsets still hold the previous trial's bits
// (Reseed invalidates them via markAll/forceDense).
func TestSparseReseedExact(t *testing.T) {
	g := graph.GNPAvgDegree(256, 6, rng.New(3))
	proto := NewAlg1(KnownMaxDegreeExact(DefaultC1KnownDelta))
	for _, mode := range []struct {
		name string
		opts []beep.Option
	}{{"auto", nil}, {"on", []beep.Option{beep.WithForcedDelta()}}} {
		t.Run(mode.name, func(t *testing.T) {
			run := func(net *beep.Network, rounds int) string {
				h := ""
				for r := 0; r < rounds; r++ {
					net.Step()
				}
				probe, err := Snapshot(net)
				if err != nil {
					t.Fatal(err)
				}
				h = fmt.Sprintf("%v/%d", probe.Stabilized(), probe.StableCount())
				return h
			}
			fresh, err := beep.NewNetwork(g, proto, 4242, mode.opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer fresh.Close()
			want := run(fresh, 60)

			pool, err := beep.NewNetwork(g, proto, 1, mode.opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer pool.Close()
			run(pool, 37) // dirty the sender bitsets and frontier state
			if err := pool.Reseed(4242); err != nil {
				t.Fatal(err)
			}
			if got := run(pool, 60); got != want {
				t.Fatalf("reseeded run %q != fresh run %q", got, want)
			}
		})
	}
}
