package core

import (
	"fmt"
	"testing"

	"repro/internal/beep"
	"repro/internal/graph"
	"repro/internal/rng"
)

// collectTrace runs rounds steps of proto on g under opts, returning
// the concatenated (sent, heard) rows. body, when non-nil, is invoked
// mid-run to mutate the network (rewire, reseed, …) at the scripted
// points; it receives the network and must return an error to abort.
func collectTrace(t *testing.T, g *graph.Graph, seed uint64, body func(net *beep.Network) error, opts ...beep.Option) [][]beep.Signal {
	t.Helper()
	var trace [][]beep.Signal
	all := append([]beep.Option{
		beep.WithObserver(func(_ int, sent, heard []beep.Signal) {
			row := make([]beep.Signal, 0, 2*len(sent))
			row = append(row, sent...)
			row = append(row, heard...)
			trace = append(trace, row)
		}),
	}, opts...)
	net, err := beep.NewNetwork(g, NewAlg1(KnownMaxDegreeExact(DefaultC1KnownDelta)), seed, all...)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	if err := body(net); err != nil {
		t.Fatal(err)
	}
	return trace
}

// compareTraces asserts two signal traces are identical.
func compareTraces(t *testing.T, name string, got, ref [][]beep.Signal) {
	t.Helper()
	if len(got) != len(ref) {
		t.Fatalf("%s: recorded %d rounds, reference %d", name, len(got), len(ref))
	}
	for r := range ref {
		if len(got[r]) != len(ref[r]) {
			t.Fatalf("%s: round %d has %d slots, reference %d", name, r, len(got[r]), len(ref[r]))
		}
		for i := range ref[r] {
			if got[r][i] != ref[r][i] {
				t.Fatalf("%s: diverged at round %d slot %d: %v vs %v", name, r, i, got[r][i], ref[r][i])
			}
		}
	}
}

// TestFlatParallelWorkerCountInvariance pins the determinism contract
// of the sharded pipeline at a size where every worker count from 1 to
// 8 produces a different stripe partition (n = 500 spans eight 64-vertex
// words): the trace must be bit-identical to the reference loop's for
// every partition, because each vertex only ever
// consumes randomness from its own private stream.
func TestFlatParallelWorkerCountInvariance(t *testing.T) {
	g := graph.GNPAvgDegree(500, 7, rng.New(88))
	const seed, rounds = 1213, 40
	body := func(net *beep.Network) error {
		net.RandomizeAll()
		for r := 0; r < rounds; r++ {
			net.Step()
		}
		return nil
	}
	ref := collectTrace(t, g, seed, body, beep.WithFlatKernels(false))
	compareTraces(t, "sequential", collectTrace(t, g, seed, body), ref)
	for w := 1; w <= 8; w++ {
		got := collectTrace(t, g, seed, body, beep.WithWorkers(w))
		compareTraces(t, fmt.Sprintf("flatparallel-w%d", w), got, ref)
	}
}

// TestFlatParallelRewireReseedBitExact is the regression test for the
// stale-stripe bug class: a churn Rewire changes the vertex count (and
// with it every stripe boundary, scatter mask length and pack word
// range), and a Reseed afterwards starts a new execution on the same
// pool. If either operation left any pre-churn stripe state alive —
// old shard boundaries, stale pack counters, a scratch mask sized for
// the old N — the multi-stripe pipeline would diverge from the reference
// after the rewire or after the reseed. The full scripted
// sequence (run → Rewire → run → Reseed → run) must stay bit-exact at
// several worker counts.
func TestFlatParallelRewireReseedBitExact(t *testing.T) {
	g1 := graph.GNPAvgDegree(200, 6, rng.New(41))
	// Shrink AND grow across word boundaries: drop three vertices, add
	// two with fresh attachments.
	g2, mapping, err := graph.ApplyEdits(g1, []graph.Edit{
		{Kind: graph.EditDelVertex, U: 5},
		{Kind: graph.EditDelVertex, U: 77},
		{Kind: graph.EditDelVertex, U: 130},
		{Kind: graph.EditAddVertex}, // builder id 200
		{Kind: graph.EditAddVertex}, // builder id 201
		{Kind: graph.EditAddEdge, U: 200, V: 0},
		{Kind: graph.EditAddEdge, U: 200, V: 44},
		{Kind: graph.EditAddEdge, U: 201, V: 9},
	})
	if err != nil {
		t.Fatal(err)
	}
	const seed, reseed = 2024, 4242
	body := func(net *beep.Network) error {
		net.RandomizeAll()
		for r := 0; r < 12; r++ {
			net.Step()
		}
		if err := net.Rewire(g2, mapping[:g1.N()]); err != nil {
			return err
		}
		for r := 0; r < 8; r++ {
			net.Step()
		}
		if err := net.Reseed(reseed); err != nil {
			return err
		}
		net.RandomizeAll()
		for r := 0; r < 15; r++ {
			net.Step()
		}
		return nil
	}
	ref := collectTrace(t, g1, seed, body, beep.WithFlatKernels(false))
	compareTraces(t, "rewire-reseed-sequential", collectTrace(t, g1, seed, body), ref)
	for _, w := range []int{1, 2, 3, 5} {
		got := collectTrace(t, g1, seed, body, beep.WithWorkers(w))
		compareTraces(t, fmt.Sprintf("rewire-reseed-w%d", w), got, ref)
	}
}
