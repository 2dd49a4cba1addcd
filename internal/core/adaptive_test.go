package core

import (
	"testing"
	"testing/quick"

	"repro/internal/beep"
	"repro/internal/graph"
	"repro/internal/rng"
)

func TestAdaptiveDefaults(t *testing.T) {
	m := AdaptiveAlg1{}.NewMachine(0, graph.Path(2)).(*adaptiveMachine)
	if m.lmax != 4 || m.maxCap < 4 || m.threshold != 8 {
		t.Fatalf("defaults %+v", m)
	}
	m2 := NewAdaptiveAlg1().NewMachine(0, graph.Path(2)).(*adaptiveMachine)
	if m2.lmax != 4 || m2.maxCap != 64 || m2.threshold != 8 {
		t.Fatalf("NewAdaptiveAlg1 defaults %+v", m2)
	}
}

func TestAdaptiveCapDoublesOnCollisions(t *testing.T) {
	m := NewAdaptiveAlg1().NewMachine(0, graph.Path(2)).(*adaptiveMachine)
	start := m.Cap()
	// threshold collisions (beeped and heard) trigger one doubling.
	for i := 0; i < m.threshold; i++ {
		if m.Cap() != start {
			t.Fatalf("cap grew early at collision %d", i)
		}
		m.Update(beep.Chan1, beep.Chan1)
	}
	if m.Cap() != 2*start {
		t.Fatalf("cap %d after %d collisions, want %d", m.Cap(), m.threshold, 2*start)
	}
	// Non-collision rounds do not advance the counter.
	for i := 0; i < 100; i++ {
		m.Update(beep.Silent, beep.Chan1)
		m.Update(beep.Chan1, beep.Silent)
	}
	if m.Cap() != 2*start {
		t.Fatalf("cap %d changed without collisions", m.Cap())
	}
}

func TestAdaptiveCapBounded(t *testing.T) {
	p := AdaptiveAlg1{InitialCap: 4, MaxCap: 16, CollisionThreshold: 1}
	m := p.NewMachine(0, graph.Path(2)).(*adaptiveMachine)
	for i := 0; i < 100; i++ {
		m.Update(beep.Chan1, beep.Chan1)
	}
	if m.Cap() != 16 {
		t.Fatalf("cap %d, want clamp at 16", m.Cap())
	}
}

func TestAdaptiveRandomizeConsistent(t *testing.T) {
	src := rng.New(3)
	m := NewAdaptiveAlg1().NewMachine(0, graph.Path(2)).(*adaptiveMachine)
	for i := 0; i < 500; i++ {
		m.Randomize(src)
		if m.Level() < -m.Cap() || m.Level() > m.Cap() {
			t.Fatalf("inconsistent state: level %d cap %d", m.Level(), m.Cap())
		}
		if m.Cap() < 4 || m.Cap() > 64 {
			t.Fatalf("cap %d out of range", m.Cap())
		}
	}
}

func TestAdaptiveStabilizesWithoutTopologyKnowledge(t *testing.T) {
	src := rng.New(400)
	graphs := []*graph.Graph{
		graph.Empty(6),
		graph.Path(30),
		graph.Cycle(30),
		graph.Complete(24), // needs several doublings
		graph.Star(30),
		graph.GNP(80, 0.1, src),
	}
	for _, g := range graphs {
		for _, init := range []InitMode{InitFresh, InitRandom} {
			res, err := Run(RunConfig{
				Graph:    g,
				Protocol: NewAdaptiveAlg1(),
				Seed:     21,
				Init:     init,
			})
			if err != nil {
				t.Fatalf("%s/%v: %v", g.Name(), init, err)
			}
			if err := g.VerifyMIS(res.MIS); err != nil {
				t.Fatalf("%s/%v: %v", g.Name(), init, err)
			}
		}
	}
}

func TestAdaptiveClosure(t *testing.T) {
	g := graph.GNP(50, 0.12, rng.New(401))
	net, err := beep.NewNetwork(g, NewAdaptiveAlg1(), 77)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	net.RandomizeAll()
	stop := func() bool {
		st, serr := Snapshot(net)
		return serr == nil && st.Stabilized()
	}
	if _, ok := net.Run(DefaultMaxRounds(g.N()), stop); !ok {
		t.Fatal("did not stabilize")
	}
	st0, err := Snapshot(net)
	if err != nil {
		t.Fatal(err)
	}
	mis0 := st0.MISMask()
	for r := 0; r < 150; r++ {
		net.Step()
		st, err := Snapshot(net)
		if err != nil {
			t.Fatal(err)
		}
		if !st.Stabilized() {
			t.Fatalf("stability lost %d rounds later (caps moved?)", r+1)
		}
		for v, in := range st.MISMask() {
			if in != mis0[v] {
				t.Fatalf("membership of %d changed post-stabilization", v)
			}
		}
	}
}

// Property: the adaptive variant stabilizes to valid MISs on small
// random graphs from arbitrary states.
func TestAdaptiveProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%30) + 1
		g := graph.GNP(n, 0.2, rng.New(seed))
		res, err := Run(RunConfig{
			Graph:    g,
			Protocol: NewAdaptiveAlg1(),
			Seed:     seed,
			Init:     InitRandom,
		})
		return err == nil && g.VerifyMIS(res.MIS) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
