package core

import (
	"encoding/json"
	"testing"

	"repro/internal/beep"
	"repro/internal/graph"
	"repro/internal/rng"
)

func TestAlg1StateCodecRoundTrip(t *testing.T) {
	m := &alg1Machine{level: -7, lmax: 9}
	state := m.EncodeState()
	m2 := &alg1Machine{}
	if err := m2.DecodeState(state); err != nil {
		t.Fatal(err)
	}
	if m2.level != -7 || m2.lmax != 9 {
		t.Fatalf("decoded %+v", m2)
	}
}

func TestAlg1StateCodecRejects(t *testing.T) {
	m := &alg1Machine{}
	for _, bad := range [][]int64{
		nil,
		{1},
		{1, 2, 3},
		{5, 4},  // level above cap
		{-5, 4}, // level below -cap
		{0, 0},  // cap < 1
		{0, -3}, // negative cap
	} {
		if err := m.DecodeState(bad); err == nil {
			t.Errorf("alg1 state %v accepted", bad)
		}
	}
}

func TestAlg2StateCodecRoundTrip(t *testing.T) {
	m := &alg2Machine{level: 3, lmax: 5}
	m2 := &alg2Machine{}
	if err := m2.DecodeState(m.EncodeState()); err != nil {
		t.Fatal(err)
	}
	if m2.level != 3 || m2.lmax != 5 {
		t.Fatalf("decoded %+v", m2)
	}
	for _, bad := range [][]int64{{-1, 5}, {6, 5}, {0, 0}, {1}} {
		if err := m2.DecodeState(bad); err == nil {
			t.Errorf("alg2 state %v accepted", bad)
		}
	}
}

func TestAdaptiveStateCodecRoundTrip(t *testing.T) {
	m := &adaptiveMachine{
		alg1Machine: alg1Machine{level: -4, lmax: 8},
		collisions:  3, maxCap: 64, threshold: 8,
	}
	m2 := &adaptiveMachine{}
	if err := m2.DecodeState(m.EncodeState()); err != nil {
		t.Fatal(err)
	}
	if m2.level != -4 || m2.lmax != 8 || m2.collisions != 3 || m2.maxCap != 64 || m2.threshold != 8 {
		t.Fatalf("decoded %+v", m2)
	}
	for _, bad := range [][]int64{
		{0, 4, 0, 2, 8},  // maxCap < lmax
		{0, 4, 0, 64, 0}, // threshold < 1
		{0, 4, -1, 64, 8},
		{9, 4, 0, 64, 8},
		{0, 4, 0, 64},
	} {
		if err := m2.DecodeState(bad); err == nil {
			t.Errorf("adaptive state %v accepted", bad)
		}
	}
}

// End-to-end: checkpoint an Algorithm 2 run mid-flight, restore into a
// fresh network, and verify the resumed execution matches the straight
// run exactly (levels and rounds).
func TestAlg2CheckpointResume(t *testing.T) {
	g := graph.GNP(30, 0.15, nilSrc(5))
	proto := NewAlg2(NeighborhoodMaxDegree(DefaultC1TwoHop))
	mk := func(seed uint64) *beep.Network {
		net, err := beep.NewNetwork(g, proto, seed)
		if err != nil {
			t.Fatal(err)
		}
		net.RandomizeAll()
		return net
	}

	ref := mk(9)
	defer ref.Close()
	for i := 0; i < 50; i++ {
		ref.Step()
	}

	a := mk(9)
	defer a.Close()
	for i := 0; i < 25; i++ {
		a.Step()
	}
	cp, err := a.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	// Round-trip through the v2 JSON format older builds wrote: the
	// slab machines' state must survive the read-only v2 path too.
	v2, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	cp2, err := beep.DecodeCheckpointAuto(v2)
	if err != nil {
		t.Fatal(err)
	}

	b, err := beep.NewNetwork(g, proto, 424242)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.Restore(cp2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		b.Step()
	}
	stRef, err := Snapshot(ref)
	if err != nil {
		t.Fatal(err)
	}
	stB, err := Snapshot(b)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		if stRef.Level(v) != stB.Level(v) {
			t.Fatalf("level of %d diverged after resume: %d vs %d", v, stRef.Level(v), stB.Level(v))
		}
	}
}

func TestAlg2WithInitialLevels(t *testing.T) {
	g := graph.Path(3)
	proto := NewAlg2(ConstantCap(4)).WithInitialLevels(func(v int) int { return v * 10 }) // clamped
	net, err := beep.NewNetwork(g, proto, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	st, err := Snapshot(net)
	if err != nil {
		t.Fatal(err)
	}
	if st.Level(0) != 0 || st.Level(1) != 4 || st.Level(2) != 4 {
		t.Fatalf("levels %d %d %d", st.Level(0), st.Level(1), st.Level(2))
	}
	if st.Cap(1) != 4 {
		t.Fatalf("cap %d", st.Cap(1))
	}
	// Two-channel snapshot semantics: level 0 is prominent, its beep
	// probability on channel 1 is 0 (it announces on channel 2).
	if !st.Prominent(0) || st.Prominent(1) {
		t.Fatal("alg2 prominence wrong")
	}
	if st.BeepProbOf(0) != 0 {
		t.Fatalf("alg2 member channel-1 probability %v", st.BeepProbOf(0))
	}
}

// nilSrc builds a graph-generation source.
func nilSrc(seed uint64) *rng.Source { return rng.New(seed) }
