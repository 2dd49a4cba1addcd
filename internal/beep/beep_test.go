package beep

import (
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// counterProtocol is a deterministic test protocol: every machine beeps
// on rounds where its hit counter is even and counts beeps heard.
type counterProtocol struct{}

func (counterProtocol) Channels() int { return 1 }
func (counterProtocol) NewMachine(int, graph.Topology) Machine {
	return &counterMachine{}
}

type counterMachine struct {
	round int
	heard int
}

func (m *counterMachine) Emit(*rng.Source) Signal {
	if m.round%2 == 0 {
		return Chan1
	}
	return Silent
}

func (m *counterMachine) Update(_, heard Signal) {
	m.round++
	if heard.Has(Chan1) {
		m.heard++
	}
}

func (m *counterMachine) Randomize(src *rng.Source) {
	m.round = src.Intn(2)
}

// probeProtocol beeps with probability 1/2 using the vertex stream; used
// for engine-equivalence checks where randomness matters.
type probeProtocol struct{}

func (probeProtocol) Channels() int { return 1 }
func (probeProtocol) NewMachine(int, graph.Topology) Machine {
	return &probeMachine{}
}

type probeMachine struct {
	beeps  int
	heards int
}

func (m *probeMachine) Emit(src *rng.Source) Signal {
	if src.Coin() {
		return Chan1
	}
	return Silent
}

func (m *probeMachine) Update(sent, heard Signal) {
	if sent.Has(Chan1) {
		m.beeps++
	}
	if heard.Has(Chan1) {
		m.heards++
	}
}

func (m *probeMachine) Randomize(src *rng.Source) {
	m.beeps = src.Intn(3)
}

func TestSignalString(t *testing.T) {
	cases := map[Signal]string{
		Silent: "-", Chan1: "1", Chan2: "2", Chan1 | Chan2: "12",
	}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Errorf("Signal(%d).String()=%q want %q", s, got, want)
		}
	}
}

func TestSignalHas(t *testing.T) {
	if !Chan1.Has(Chan1) || Chan1.Has(Chan2) || Silent.Has(Chan1) {
		t.Fatal("Has wrong")
	}
	if !(Chan1 | Chan2).Has(Chan2) {
		t.Fatal("Has on combined signal wrong")
	}
}

func TestEngineString(t *testing.T) {
	if Sequential.String() != "sequential" || FlatParallel.String() != "flatparallel" {
		t.Fatal("engine names wrong")
	}
	if Engine(42).String() != "engine(42)" {
		t.Fatal("unknown engine name wrong")
	}
	for _, e := range []Engine{Sequential, FlatParallel} {
		if got, err := ParseEngine(e.String()); err != nil || got != e {
			t.Fatalf("ParseEngine(%q) = %v, %v", e.String(), got, err)
		}
	}
	// Retired engine names fail with the engine that replaces them.
	for name, repl := range map[string]string{"parallel": "flatparallel", "pervertex": "flatparallel", "flat": "sequential"} {
		if _, err := ParseEngine(name); err == nil || !strings.Contains(err.Error(), "use "+repl) {
			t.Fatalf("ParseEngine(%q) = %v, want an error naming %s", name, err, repl)
		}
	}
}

func TestNewNetworkValidation(t *testing.T) {
	if _, err := NewNetwork(nil, counterProtocol{}, 1); err == nil {
		t.Fatal("nil graph accepted")
	}
	bad := badChannelsProtocol{}
	if _, err := NewNetwork(graph.Path(2), bad, 1); err == nil {
		t.Fatal("3-channel protocol accepted")
	}
}

type badChannelsProtocol struct{}

func (badChannelsProtocol) Channels() int                          { return 3 }
func (badChannelsProtocol) NewMachine(int, graph.Topology) Machine { return &counterMachine{} }

func TestHearingIsNeighborORNotSelf(t *testing.T) {
	// Star with center 0: all beep in round 0 (counterProtocol).
	g := graph.Star(5)
	net, err := NewNetwork(g, counterProtocol{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	net.Step()
	for v := 0; v < g.N(); v++ {
		m := net.Machine(v).(*counterMachine)
		if m.heard != 1 {
			t.Fatalf("vertex %d heard %d, want 1 (all neighbors beeped)", v, m.heard)
		}
	}
	// Isolated vertex never hears anything, even while beeping itself.
	g2 := graph.Empty(1)
	net2, err := NewNetwork(g2, counterProtocol{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer net2.Close()
	for i := 0; i < 10; i++ {
		net2.Step()
	}
	if m := net2.Machine(0).(*counterMachine); m.heard != 0 {
		t.Fatalf("isolated vertex heard %d beeps; must never hear its own", m.heard)
	}
}

func TestRoundCountsAndRun(t *testing.T) {
	g := graph.Cycle(6)
	net, err := NewNetwork(g, counterProtocol{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	if net.Round() != 0 {
		t.Fatal("fresh network has rounds")
	}
	rounds, ok := net.Run(5, nil)
	if rounds != 5 || !ok || net.Round() != 5 {
		t.Fatalf("Run(5) = %d,%v round=%d", rounds, ok, net.Round())
	}
	// Stop condition satisfied immediately costs zero rounds.
	rounds, ok = net.Run(5, func() bool { return true })
	if rounds != 0 || !ok {
		t.Fatalf("pre-satisfied stop: %d,%v", rounds, ok)
	}
	// Stop after two more rounds.
	target := net.Round() + 2
	rounds, ok = net.Run(100, func() bool { return net.Round() >= target })
	if rounds != 2 || !ok {
		t.Fatalf("conditional stop: %d,%v", rounds, ok)
	}
	// Budget exhaustion without stop satisfied.
	rounds, ok = net.Run(3, func() bool { return false })
	if rounds != 3 || ok {
		t.Fatalf("budget exhaustion: %d,%v", rounds, ok)
	}
}

func TestObserverSeesEveryRound(t *testing.T) {
	g := graph.Path(4)
	var rounds []int
	var lastSent []Signal
	net, err := NewNetwork(g, counterProtocol{}, 1, WithObserver(func(r int, sent, heard []Signal) {
		rounds = append(rounds, r)
		lastSent = append(lastSent[:0], sent...)
		if len(heard) != g.N() {
			t.Errorf("observer heard slice length %d", len(heard))
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	net.Step()
	net.Step()
	if len(rounds) != 2 || rounds[0] != 1 || rounds[1] != 2 {
		t.Fatalf("observer rounds %v", rounds)
	}
	// Round 2: counter machines are at round 1 → silent.
	for v, s := range lastSent {
		if s != Silent {
			t.Fatalf("round 2 vertex %d sent %v, want silence", v, s)
		}
	}
}

// TestEnginesProduceIdenticalTraces pins the engine contract on a toy
// protocol: the flat-kernel pipeline — Sequential, forced delta
// delivery, and FlatParallel at one and three stripes — reproduces the
// reference loop's (sent, heard) trace round for round.
func TestEnginesProduceIdenticalTraces(t *testing.T) {
	src := rng.New(77)
	graphs := []*graph.Graph{
		graph.Empty(3),
		graph.Path(17),
		graph.Complete(9),
		graph.GNP(60, 0.1, src),
		graph.GNPAvgDegree(700, 3, src),
	}
	const seed, steps = 12345, 50
	for _, g := range graphs {
		ref := signalTrace(t, g, rwProtocol{}, seed, steps)
		for _, c := range pipelineConfigs {
			sameTrace(t, g.Name()+"/"+c.name, signalTrace(t, g, rwKernelProtocol{}, seed, steps, c.opts...), ref)
		}
	}
}

func TestCloseIdempotentAndSequentialNoop(t *testing.T) {
	net, err := NewNetwork(graph.Path(3), counterProtocol{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	net.Close()
	net.Close()

	netP, err := NewNetwork(graph.Path(130), rwKernelProtocol{}, 1, WithEngine(FlatParallel), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	netP.Step()
	netP.Close()
	netP.Close()
}

// TestStepAfterCloseIsTerminal pins the lifecycle contract: Close is
// terminal, and Step on a closed network panics instead of silently
// re-spawning a worker pool (the old behavior leaked goroutine pools
// whenever a caller stepped a closed network). Regression test for the
// concurrent and sequential engines alike.
func TestStepAfterCloseIsTerminal(t *testing.T) {
	for _, engine := range []Engine{Sequential, FlatParallel} {
		net, err := NewNetwork(graph.Cycle(130), rwKernelProtocol{}, 3, WithEngine(engine), WithWorkers(2))
		if err != nil {
			t.Fatal(err)
		}
		net.Step()
		if net.Closed() {
			t.Fatalf("%v: network reports closed before Close", engine)
		}
		net.Close()
		if !net.Closed() {
			t.Fatalf("%v: network not closed after Close", engine)
		}
		net.Close() // idempotent
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%v: Step after Close did not panic", engine)
				}
			}()
			net.Step()
		}()
		if net.Round() != 1 {
			t.Fatalf("%v: rounds %d, want 1", engine, net.Round())
		}
	}
}

func TestCorrupt(t *testing.T) {
	net, err := NewNetwork(graph.Path(5), counterProtocol{}, 9)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	if err := net.Corrupt([]int{0, 4}); err != nil {
		t.Fatal(err)
	}
	if err := net.Corrupt([]int{5}); err == nil {
		t.Fatal("out-of-range corruption accepted")
	}
	if err := net.Corrupt([]int{-1}); err == nil {
		t.Fatal("negative corruption accepted")
	}
}

func TestRandomizeAllReachesMachines(t *testing.T) {
	net, err := NewNetwork(graph.Path(40), probeProtocol{}, 9)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	net.RandomizeAll()
	nonZero := 0
	for v := 0; v < net.N(); v++ {
		if net.Machine(v).(*probeMachine).beeps != 0 {
			nonZero++
		}
	}
	if nonZero == 0 {
		t.Fatal("RandomizeAll had no visible effect")
	}
}

func TestEmptyNetworkSteps(t *testing.T) {
	net, err := NewNetwork(graph.Empty(0), counterProtocol{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	net.Step() // must not panic
	if net.Round() != 1 {
		t.Fatal("round not counted")
	}
}

func TestNetworkGraphAccessor(t *testing.T) {
	g := graph.Path(3)
	net, err := NewNetwork(g, counterProtocol{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	if net.Graph() != g {
		t.Fatal("Graph accessor does not return the topology")
	}
}
