package repro

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func pathEdges(n int) [][2]int {
	var es [][2]int
	for v := 0; v+1 < n; v++ {
		es = append(es, [2]int{v, v + 1})
	}
	return es
}

func cycleEdges(n int) [][2]int {
	es := pathEdges(n)
	return append(es, [2]int{n - 1, 0})
}

func completeEdges(n int) [][2]int {
	var es [][2]int
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			es = append(es, [2]int{u, v})
		}
	}
	return es
}

func TestNewGraphValidation(t *testing.T) {
	if _, err := NewGraph(3, [][2]int{{0, 0}}); err == nil {
		t.Fatal("self-loop accepted")
	}
	if _, err := NewGraph(3, [][2]int{{0, 5}}); err == nil {
		t.Fatal("out-of-range accepted")
	}
	g, err := NewGraph(4, [][2]int{{0, 1}, {1, 0}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 4 || g.M() != 2 {
		t.Fatalf("shape %d/%d", g.N(), g.M())
	}
	if g.MaxDegree() != 1 || g.Degree(1) != 1 {
		t.Fatal("degree queries wrong")
	}
}

func TestSolveDefaults(t *testing.T) {
	g, err := NewGraph(10, cycleEdges(10))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(g, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := g.VerifyMIS(res.MIS); err != nil {
		t.Fatal(err)
	}
	if res.Rounds <= 0 {
		t.Fatalf("rounds %d", res.Rounds)
	}
}

func TestSolveAllAlgorithms(t *testing.T) {
	g, err := NewGraph(12, completeEdges(12))
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []Algorithm{Alg1KnownDelta, Alg1OwnDegree, Alg2TwoChannel} {
		for _, st := range []InitialState{StateFresh, StateArbitrary, StateAdversarial} {
			res, err := Solve(g, WithAlgorithm(alg), WithInitialState(st), WithSeed(7))
			if err != nil {
				t.Fatalf("%v/%v: %v", alg, st, err)
			}
			if err := g.VerifyMIS(res.MIS); err != nil {
				t.Fatalf("%v/%v: %v", alg, st, err)
			}
			if len(res.MIS) != 1 {
				t.Fatalf("%v/%v: complete graph MIS size %d", alg, st, len(res.MIS))
			}
		}
	}
}

func TestSolveDeterministic(t *testing.T) {
	g, _ := NewGraph(20, cycleEdges(20))
	a, err := Solve(g, WithSeed(99))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Solve(g, WithSeed(99))
	if err != nil {
		t.Fatal(err)
	}
	if a.Rounds != b.Rounds || len(a.MIS) != len(b.MIS) {
		t.Fatal("same seed diverged")
	}
	for i := range a.MIS {
		if a.MIS[i] != b.MIS[i] {
			t.Fatal("MIS differs")
		}
	}
}

func TestSolveParallelEngineMatchesSequential(t *testing.T) {
	g, _ := NewGraph(30, cycleEdges(30))
	seq, err := Solve(g, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	par, err := Solve(g, WithSeed(3), WithParallelEngine())
	if err != nil {
		t.Fatal(err)
	}
	if seq.Rounds != par.Rounds || len(seq.MIS) != len(par.MIS) {
		t.Fatalf("engines diverged: %d/%d vs %d/%d", seq.Rounds, len(seq.MIS), par.Rounds, len(par.MIS))
	}
}

func TestSolveErrors(t *testing.T) {
	if _, err := Solve(nil); err == nil {
		t.Fatal("nil graph accepted")
	}
	g, _ := NewGraph(3, pathEdges(3))
	if _, err := Solve(g, WithAlgorithm(Algorithm(77))); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if _, err := Solve(g, WithInitialState(InitialState(77))); err == nil {
		t.Fatal("unknown init accepted")
	}
	// Tiny budget on a contentious graph.
	k, _ := NewGraph(20, completeEdges(20))
	_, err := Solve(k, WithMaxRounds(1), WithInitialState(StateAdversarial))
	if !errors.Is(err, ErrNotStabilized) {
		t.Fatalf("err=%v want ErrNotStabilized", err)
	}
}

func TestSolveWithSlack(t *testing.T) {
	g, _ := NewGraph(16, cycleEdges(16))
	res, err := Solve(g, WithSlack(8), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if err := g.VerifyMIS(res.MIS); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyMISRejects(t *testing.T) {
	g, _ := NewGraph(4, pathEdges(4))
	if err := g.VerifyMIS([]int{0, 1}); err == nil {
		t.Fatal("adjacent pair accepted")
	}
	if err := g.VerifyMIS([]int{0}); err == nil {
		t.Fatal("non-maximal set accepted")
	}
	if err := g.VerifyMIS([]int{9}); err == nil {
		t.Fatal("out-of-range vertex accepted")
	}
	if err := g.VerifyMIS([]int{0, 2}); err != nil {
		t.Fatal(err)
	}
}

func TestAlgorithmStrings(t *testing.T) {
	if Alg1KnownDelta.String() != "alg1-known-delta" ||
		Alg1OwnDegree.String() != "alg1-own-degree" ||
		Alg2TwoChannel.String() != "alg2-two-channel" {
		t.Fatal("algorithm names wrong")
	}
	if Algorithm(9).String() != "algorithm(9)" {
		t.Fatal("unknown algorithm name wrong")
	}
}

func TestInstanceLifecycle(t *testing.T) {
	g, _ := NewGraph(24, cycleEdges(24))
	inst, err := NewInstance(g, WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()

	if inst.Rounds() != 0 {
		t.Fatal("fresh instance has rounds")
	}
	consumed, err := inst.RunUntilStabilized(100000)
	if err != nil {
		t.Fatal(err)
	}
	if consumed != inst.Rounds() {
		t.Fatalf("consumed %d != rounds %d", consumed, inst.Rounds())
	}
	ok, err := inst.Stabilized()
	if err != nil || !ok {
		t.Fatalf("stabilized=%v err=%v", ok, err)
	}
	mis, err := inst.MIS()
	if err != nil {
		t.Fatal(err)
	}
	if err := g.VerifyMIS(mis); err != nil {
		t.Fatal(err)
	}
	sc, err := inst.StableVertices()
	if err != nil || sc != g.N() {
		t.Fatalf("stable %d err=%v", sc, err)
	}
	if _, err := inst.Level(0); err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Level(-1); err == nil {
		t.Fatal("out-of-range level accepted")
	}
}

func TestInstanceFaultRecovery(t *testing.T) {
	g, _ := NewGraph(36, cycleEdges(36))
	inst, err := NewInstance(g, WithSeed(13))
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	if _, err := inst.RunUntilStabilized(100000); err != nil {
		t.Fatal(err)
	}
	if err := inst.InjectFault(10); err != nil {
		t.Fatal(err)
	}
	if _, err := inst.RunUntilStabilized(100000); err != nil {
		t.Fatalf("no recovery: %v", err)
	}
	mis, err := inst.MIS()
	if err != nil {
		t.Fatal(err)
	}
	if err := g.VerifyMIS(mis); err != nil {
		t.Fatal(err)
	}
	// k <= 0 and k > n are clamped, not errors.
	if err := inst.InjectFault(0); err != nil {
		t.Fatal(err)
	}
	if err := inst.InjectFault(1000); err != nil {
		t.Fatal(err)
	}
}

func TestInstanceAdversarialInit(t *testing.T) {
	g, _ := NewGraph(8, completeEdges(8))
	inst, err := NewInstance(g, WithInitialState(StateAdversarial), WithSeed(17))
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	// Every vertex claims membership: not legal on a clique.
	ok, err := inst.Stabilized()
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("all-claiming clique reported stable")
	}
	if _, err := inst.RunUntilStabilized(100000); err != nil {
		t.Fatal(err)
	}
}

func TestInstanceBudgetError(t *testing.T) {
	g, _ := NewGraph(16, completeEdges(16))
	inst, err := NewInstance(g, WithInitialState(StateAdversarial), WithSeed(19))
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	if _, err := inst.RunUntilStabilized(1); !errors.Is(err, ErrNotStabilized) {
		t.Fatalf("err=%v", err)
	}
}

func TestNewInstanceErrors(t *testing.T) {
	if _, err := NewInstance(nil); err == nil {
		t.Fatal("nil graph accepted")
	}
	g, _ := NewGraph(3, pathEdges(3))
	if _, err := NewInstance(g, WithAlgorithm(Algorithm(50))); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

// Property: Solve on random graphs always yields a verified MIS for all
// three algorithm variants.
func TestSolveProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8, algRaw uint8) bool {
		n := int(nRaw%30) + 1
		// Random edges from the seed.
		var edges [][2]int
		s := seed
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				s = s*6364136223846793005 + 1442695040888963407
				if s>>62 == 0 { // ~1/4 density
					edges = append(edges, [2]int{u, v})
				}
			}
		}
		g, err := NewGraph(n, edges)
		if err != nil {
			return false
		}
		alg := []Algorithm{Alg1KnownDelta, Alg1OwnDegree, Alg2TwoChannel}[algRaw%3]
		res, err := Solve(g, WithAlgorithm(alg), WithSeed(seed))
		if err != nil {
			return false
		}
		return g.VerifyMIS(res.MIS) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSolveAdaptiveNoKnowledge(t *testing.T) {
	g, _ := NewGraph(20, completeEdges(20))
	res, err := Solve(g, WithAlgorithm(Alg1Adaptive), WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	if err := g.VerifyMIS(res.MIS); err != nil {
		t.Fatal(err)
	}
	if len(res.MIS) != 1 {
		t.Fatalf("clique MIS size %d", len(res.MIS))
	}
	if Alg1Adaptive.String() != "alg1-adaptive" {
		t.Fatal("name wrong")
	}
}

func TestSolveWithListeningNoise(t *testing.T) {
	g, _ := NewGraph(30, cycleEdges(30))
	// Mild noise: the run should still reach a legal snapshot.
	res, err := Solve(g, WithSeed(3), WithListeningNoise(0.01, 0.01))
	if err != nil {
		t.Fatal(err)
	}
	if err := g.VerifyMIS(res.MIS); err != nil {
		t.Fatal(err)
	}
	// Invalid noise probabilities are rejected at construction.
	if _, err := Solve(g, WithListeningNoise(-1, 0)); err == nil {
		t.Fatal("negative noise accepted")
	}
	if _, err := NewInstance(g, WithListeningNoise(2, 0)); err == nil {
		t.Fatal("noise > 1 accepted on instance")
	}
}

func TestInstanceWithNoiseSteps(t *testing.T) {
	g, _ := NewGraph(16, cycleEdges(16))
	inst, err := NewInstance(g, WithSeed(5), WithListeningNoise(0.05, 0.05))
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	if _, err := inst.RunUntilStabilized(200000); err != nil {
		t.Fatal(err)
	}
}

func TestInstanceSaveLoadResume(t *testing.T) {
	g, _ := NewGraph(30, cycleEdges(30))
	build := func() *Instance {
		inst, err := NewInstance(g, WithSeed(77))
		if err != nil {
			t.Fatal(err)
		}
		return inst
	}

	// Reference: run 40 rounds straight through.
	ref := build()
	defer ref.Close()
	for i := 0; i < 40; i++ {
		ref.Step()
	}
	refMIS, err := ref.MIS()
	if err != nil {
		t.Fatal(err)
	}

	// Checkpointed: 20 rounds, save, load into a fresh instance with a
	// DIFFERENT seed, 20 more rounds — must match the reference exactly.
	a := build()
	defer a.Close()
	for i := 0; i < 20; i++ {
		a.Step()
	}
	var sb strings.Builder
	if err := a.Save(&sb); err != nil {
		t.Fatal(err)
	}
	b, err := NewInstance(g, WithSeed(123456))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.Load(strings.NewReader(sb.String())); err != nil {
		t.Fatal(err)
	}
	if b.Rounds() != 20 {
		t.Fatalf("restored rounds %d", b.Rounds())
	}
	for i := 0; i < 20; i++ {
		b.Step()
	}
	gotMIS, err := b.MIS()
	if err != nil {
		t.Fatal(err)
	}
	if len(gotMIS) != len(refMIS) {
		t.Fatalf("resumed MIS size %d != %d", len(gotMIS), len(refMIS))
	}
	for i := range gotMIS {
		if gotMIS[i] != refMIS[i] {
			t.Fatalf("resumed execution diverged at MIS entry %d", i)
		}
	}
	// Levels must match too.
	for v := 0; v < g.N(); v++ {
		la, _ := ref.Level(v)
		lb, _ := b.Level(v)
		if la != lb {
			t.Fatalf("level of %d diverged: %d vs %d", v, la, lb)
		}
	}
}

// TestInstanceLoadV2JSON pins backward compatibility: a checkpoint in
// the v2 JSON format that Save wrote before it switched to binary
// snapshots still loads and resumes.
func TestInstanceLoadV2JSON(t *testing.T) {
	g, _ := NewGraph(30, cycleEdges(30))
	a, err := NewInstance(g, WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	for i := 0; i < 7; i++ {
		a.Step()
	}
	cp, err := a.net.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	// Sealed with the FNV-1a digest of format version 2, as those
	// builds sealed it.
	cp.FormatVersion = 2
	cp.Seal()
	v2, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewInstance(g, WithSeed(6))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.Load(bytes.NewReader(v2)); err != nil {
		t.Fatalf("v2 JSON checkpoint rejected: %v", err)
	}
	var sa, sb bytes.Buffer
	if err := a.Save(&sa); err != nil {
		t.Fatal(err)
	}
	if err := b.Save(&sb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sa.Bytes(), sb.Bytes()) {
		t.Fatal("instance loaded from v2 JSON saves a different state")
	}
}

func TestInstanceLoadErrors(t *testing.T) {
	g, _ := NewGraph(4, pathEdges(4))
	inst, err := NewInstance(g)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	if err := inst.Load(strings.NewReader("garbage")); err == nil {
		t.Fatal("garbage checkpoint accepted")
	}
	// Checkpoint from a differently-sized instance is rejected.
	g2, _ := NewGraph(6, pathEdges(6))
	other, err := NewInstance(g2)
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	var sb strings.Builder
	if err := other.Save(&sb); err != nil {
		t.Fatal(err)
	}
	if err := inst.Load(strings.NewReader(sb.String())); err == nil {
		t.Fatal("mismatched checkpoint accepted")
	}
}
