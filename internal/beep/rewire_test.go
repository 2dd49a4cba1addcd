package beep

import (
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// rwProtocol is a test protocol whose machines support StateCodec,
// so Rewire can transfer survivor state. Each machine holds a level
// that decays by one per silent round and resets on hearing a beep,
// and beeps with probability 1/2 from its private stream.
type rwProtocol struct{}

func (rwProtocol) Channels() int { return 1 }
func (rwProtocol) NewMachine(int, graph.Topology) Machine {
	return &rwMachine{level: 100}
}

type rwMachine struct{ level int64 }

func (m *rwMachine) Emit(src *rng.Source) Signal {
	if src.Coin() {
		return Chan1
	}
	return Silent
}

func (m *rwMachine) Update(_, heard Signal) {
	if heard.Has(Chan1) {
		m.level = 100
	} else {
		m.level--
	}
}

func (m *rwMachine) Randomize(src *rng.Source) { m.level = int64(src.Intn(1000)) }

func (m *rwMachine) AppendState(dst []int64) []int64 { return append(dst, m.level) }
func (m *rwMachine) DecodeState(st []int64) error {
	if len(st) != 1 {
		return fmt.Errorf("bad state")
	}
	m.level = st[0]
	return nil
}

// TestCorruptAtomicity is the regression test for the half-injected
// fault bug: an out-of-range index anywhere in the batch must leave
// every machine untouched, including those listed before it.
func TestCorruptAtomicity(t *testing.T) {
	net, err := NewNetwork(graph.Path(4), rwProtocol{}, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	before := make([]int64, net.N())
	for v := 0; v < net.N(); v++ {
		before[v] = net.Machine(v).(*rwMachine).level
	}
	if err := net.Corrupt([]int{0, 2, 99}); err == nil {
		t.Fatal("out-of-range corruption accepted")
	}
	for v := 0; v < net.N(); v++ {
		if got := net.Machine(v).(*rwMachine).level; got != before[v] {
			t.Fatalf("vertex %d state changed by rejected Corrupt: %d -> %d", v, before[v], got)
		}
	}
	if err := net.Corrupt([]int{-1}); err == nil {
		t.Fatal("negative index accepted")
	}
	if err := net.Corrupt([]int{1, 3}); err != nil {
		t.Fatalf("valid corruption rejected: %v", err)
	}
}

func TestRewireValidation(t *testing.T) {
	net, err := NewNetwork(graph.Path(4), rwProtocol{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	g2 := graph.Cycle(3)
	cases := []struct {
		name    string
		g       *graph.Graph
		mapping []int
	}{
		{"nil-graph", nil, []int{0, 1, 2, -1}},
		{"short-mapping", g2, []int{0, 1}},
		{"out-of-range", g2, []int{0, 1, 3, -1}},
		{"duplicate", g2, []int{0, 1, 1, -1}},
	}
	for _, c := range cases {
		if err := net.Rewire(c.g, c.mapping); err == nil {
			t.Fatalf("%s: invalid rewire accepted", c.name)
		}
		if net.N() != 4 || net.Graph().N() != 4 {
			t.Fatalf("%s: rejected rewire mutated the network", c.name)
		}
	}
	closed, err := NewNetwork(graph.Path(2), rwProtocol{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	closed.Close()
	if err := closed.Rewire(g2, []int{0, 1}); err == nil {
		t.Fatal("rewire on closed network accepted")
	}
}

// TestRewireSurvivorsAndJoiners applies a rewire that renumbers, drops,
// and joins vertices, and checks that survivors carry their exact
// machine state to their new ids while joiners arrive randomized.
func TestRewireSurvivorsAndJoiners(t *testing.T) {
	net, err := NewNetwork(graph.Path(4), rwProtocol{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	for v := 0; v < 4; v++ {
		net.Machine(v).(*rwMachine).level = int64(1000 + v)
	}
	// Drop vertex 1; survivors 0,2,3 -> 0,1,2; joiners 3,4 on a 5-cycle.
	g2 := graph.Cycle(5)
	if err := net.Rewire(g2, []int{0, -1, 1, 2}); err != nil {
		t.Fatal(err)
	}
	if net.N() != 5 || net.Graph() != g2 {
		t.Fatalf("network not on the new topology: n=%d", net.N())
	}
	wants := map[int]int64{0: 1000, 1: 1002, 2: 1003}
	for v, want := range wants {
		if got := net.Machine(v).(*rwMachine).level; got != want {
			t.Fatalf("survivor %d has level %d, want %d", v, got, want)
		}
	}
	// Joiners are randomized into [0,1000), so they cannot carry the
	// survivors' sentinel values.
	for _, v := range []int{3, 4} {
		if got := net.Machine(v).(*rwMachine).level; got >= 1000 {
			t.Fatalf("joiner %d not randomized: level %d", v, got)
		}
	}
	// The network must keep stepping on the new topology.
	net.Step()
	if net.Round() != 1 {
		t.Fatalf("round counter %d after one post-rewire step", net.Round())
	}
}

// TestRewireStreamStabilityUnderRenumbering runs two identical networks
// and rewires one of them onto the same topology with reversed vertex
// ids. Because survivors keep their private streams and the reversed
// path is isomorphic through the same mapping, the executions must stay
// signal-identical modulo the renumbering.
func TestRewireStreamStabilityUnderRenumbering(t *testing.T) {
	const seed, n, pre, post = 99, 6, 5, 40
	ref, err := NewNetwork(graph.Path(n), rwProtocol{}, seed)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	rw, err := NewNetwork(graph.Path(n), rwProtocol{}, seed)
	if err != nil {
		t.Fatal(err)
	}
	defer rw.Close()
	for r := 0; r < pre; r++ {
		ref.Step()
		rw.Step()
	}
	mapping := make([]int, n)
	for v := range mapping {
		mapping[v] = n - 1 - v // reversal is an automorphism of the path
	}
	if err := rw.Rewire(graph.Path(n), mapping); err != nil {
		t.Fatal(err)
	}
	refObs := make([]Signal, n)
	rwObs := make([]Signal, n)
	ref.observer = func(_ int, sent, _ []Signal) { copy(refObs, sent) }
	rw.observer = func(_ int, sent, _ []Signal) { copy(rwObs, sent) }
	for r := 0; r < post; r++ {
		ref.Step()
		rw.Step()
		for v := 0; v < n; v++ {
			if refObs[v] != rwObs[mapping[v]] {
				t.Fatalf("round %d: vertex %d sent %v, renumbered twin sent %v",
					r, v, refObs[v], rwObs[mapping[v]])
			}
		}
	}
}

// TestRewireEngineTraceEquivalence is the engine contract through a
// scripted rewire with adversaries installed: every flat-kernel
// configuration must reproduce the reference loop before and after the
// topology swap (which rebuilds the slab, the stripes and the pool).
func TestRewireEngineTraceEquivalence(t *testing.T) {
	g1 := graph.GNPAvgDegree(24, 4, rng.New(5))
	g2, mapping, err := graph.ApplyEdits(g1, []graph.Edit{
		{Kind: graph.EditDelVertex, U: 3},
		{Kind: graph.EditAddVertex},
		{Kind: graph.EditAddVertex},
		{Kind: graph.EditAddEdge, U: 24, V: 0},
		{Kind: graph.EditAddEdge, U: 25, V: 7},
		{Kind: graph.EditAddEdge, U: 24, V: 25},
	})
	if err != nil {
		t.Fatal(err)
	}
	const seed, pre, post = 1234, 7, 9
	run := func(proto Protocol, opts ...Option) [][]Signal {
		var trace [][]Signal
		opts = append([]Option{
			WithAdversaries(AdvBabbler, []int{2, 9}),
			WithAdversaries(AdvJammer, []int{5}),
			WithObserver(func(_ int, sent, heard []Signal) {
				row := make([]Signal, 0, 2*len(sent))
				row = append(row, sent...)
				row = append(row, heard...)
				trace = append(trace, row)
			})}, opts...)
		net, err := NewNetwork(g1, proto, seed, opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer net.Close()
		net.RandomizeAll()
		for r := 0; r < pre; r++ {
			net.Step()
		}
		if err := net.Rewire(g2, mapping[:g1.N()]); err != nil {
			t.Fatal(err)
		}
		if _, ok := proto.(rwKernelProtocol); ok && net.flatOps == nil {
			t.Fatal("Rewire dropped the kernels of a StateCodec cohort")
		}
		for r := 0; r < post; r++ {
			net.Step()
		}
		return trace
	}
	ref := run(rwProtocol{})
	for _, c := range pipelineConfigs {
		sameTrace(t, c.name, run(rwKernelProtocol{}, c.opts...), ref)
	}
}
