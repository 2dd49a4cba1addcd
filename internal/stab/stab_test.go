package stab

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/beep"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rng"
)

func alg1() *core.Alg1 {
	return core.NewAlg1(core.KnownMaxDegreeExact(core.DefaultC1KnownDelta))
}

func TestFaultNames(t *testing.T) {
	if (RandomFault{K: 3}).Name() != "random-3" {
		t.Fatal("RandomFault name")
	}
	if (MISFault{K: 2}).Name() != "mis-2" {
		t.Fatal("MISFault name")
	}
	if (ClaimAllFault{K: 5}).Name() != "claim-5" {
		t.Fatal("ClaimAllFault name")
	}
}

func TestPickDistinct(t *testing.T) {
	src := rng.New(1)
	got := pickDistinct(10, 4, src)
	if len(got) != 4 {
		t.Fatalf("len %d", len(got))
	}
	seen := map[int]bool{}
	for _, v := range got {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("bad pick %v", got)
		}
		seen[v] = true
	}
	if len(pickDistinct(3, 10, src)) != 3 {
		t.Fatal("k > n not clamped")
	}
	if pickDistinct(5, 0, src) != nil {
		t.Fatal("k=0 should pick none")
	}
	if pickDistinct(5, -3, src) != nil {
		t.Fatal("negative k should pick none")
	}
	if pickDistinct(0, 4, src) != nil {
		t.Fatal("empty universe should pick none")
	}
	// Distribution sanity for the partial Fisher–Yates: over many draws
	// of 1-of-4, every vertex must appear (uniformity is exercised by the
	// seeded determinism of the experiments; this guards against an
	// off-by-one that pins the draw range).
	seen2 := map[int]bool{}
	for i := 0; i < 200; i++ {
		for _, v := range pickDistinct(4, 1, src) {
			seen2[v] = true
		}
	}
	if len(seen2) != 4 {
		t.Fatalf("1-of-4 draws covered only %d vertices", len(seen2))
	}
}

func TestMeasureRecoveryRandomFault(t *testing.T) {
	g := graph.GNP(60, 0.1, rng.New(9))
	res, err := MeasureRecovery(RecoveryConfig{
		Graph:    g,
		Protocol: alg1(),
		Seed:     5,
		Fault:    RandomFault{K: 10},
		Repeats:  3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.RecoveryRounds) != 3 || len(res.Changed) != 3 {
		t.Fatalf("cycles: %+v", res)
	}
	for i, r := range res.RecoveryRounds {
		if r < 0 {
			t.Fatalf("cycle %d negative recovery %d", i, r)
		}
	}
}

func TestMeasureRecoveryMISFault(t *testing.T) {
	g := graph.Cycle(40)
	res, err := MeasureRecovery(RecoveryConfig{
		Graph:    g,
		Protocol: alg1(),
		Seed:     7,
		Fault:    MISFault{K: 3},
		Repeats:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.RecoveryRounds) != 2 {
		t.Fatalf("cycles %d", len(res.RecoveryRounds))
	}
}

func TestMeasureRecoveryClaimAllFault(t *testing.T) {
	g := graph.Complete(12)
	res, err := MeasureRecovery(RecoveryConfig{
		Graph:    g,
		Protocol: alg1(),
		Seed:     11,
		Fault:    ClaimAllFault{K: 12},
		Repeats:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Claiming membership for the entire clique must take >0 rounds to
	// repair.
	for _, r := range res.RecoveryRounds {
		if r == 0 {
			t.Fatal("clique-wide claim fault repaired in zero rounds")
		}
	}
}

func TestMeasureRecoveryValidation(t *testing.T) {
	if _, err := MeasureRecovery(RecoveryConfig{}); err == nil {
		t.Fatal("nil config accepted")
	}
	// Budget too small to stabilize.
	_, err := MeasureRecovery(RecoveryConfig{
		Graph:     graph.Complete(20),
		Protocol:  alg1(),
		Seed:      1,
		Fault:     RandomFault{K: 1},
		MaxRounds: 1,
	})
	if !errors.Is(err, ErrNoRecovery) {
		t.Fatalf("err=%v want ErrNoRecovery", err)
	}
}

func TestCheckClosure(t *testing.T) {
	g := graph.Grid(5, 5)
	net, err := beep.NewNetwork(g, alg1(), 3)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	net.RandomizeAll()
	if _, err := core.Stabilize(net, nil, 0); err != nil {
		t.Fatal(err)
	}
	if err := CheckClosure(net, 100); err != nil {
		t.Fatal(err)
	}
}

func TestCheckClosureRejectsUnstable(t *testing.T) {
	g := graph.Path(10)
	net, err := beep.NewNetwork(g, alg1(), 3)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	// Fresh network (everyone at cap) is not stabilized.
	if err := CheckClosure(net, 5); err == nil {
		t.Fatal("closure check on unstable network accepted")
	}
}

// TestCheckClosureUnderNoise documents that closure is a fault-free
// guarantee: under aggressive false-beep noise a stabilized network
// eventually loses legality (a false beep knocks an MIS member off its
// membership level), and CheckClosure must detect and report it.
func TestCheckClosureUnderNoise(t *testing.T) {
	g := graph.Cycle(16)
	net, err := beep.NewNetwork(g, alg1(), 19,
		beep.WithNoise(beep.Noise{PLoss: 0.1, PFalse: 0.2}))
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	net.RandomizeAll()
	if _, err := core.Stabilize(net, nil, 0); err != nil {
		t.Fatal(err)
	}
	if err := CheckClosure(net, 2000); err == nil {
		t.Fatal("closure survived 2000 rounds of 20% false-beep noise")
	}
}

// TestCheckClosureWithMuteAdversaries checks that closure holds on the
// correct induced subgraph when the excluded vertices are crashed-silent
// radios: a mute vertex is observationally identical to an absent one,
// so the fault-free closure guarantee carries over to the masked
// predicate. (Sleep, by contrast, breaks closure just like packet loss —
// a sleeping MIS member's beep goes missing and its neighbors fall off
// their caps — which TestMeasureAvailabilityUnderNoiseAndSleep covers.)
func TestCheckClosureWithMuteAdversaries(t *testing.T) {
	g := graph.GNPAvgDegree(30, 4, rng.New(23))
	net, err := beep.NewNetwork(g, alg1(), 21,
		beep.WithAdversaries(beep.AdvMute, []int{2, 11}))
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	net.RandomizeAll()
	if _, err := core.Stabilize(net, nil, 0); err != nil {
		t.Fatal(err)
	}
	if err := CheckClosure(net, 500); err != nil {
		t.Fatalf("masked closure lost: %v", err)
	}
}

func TestClaimAllFaultRequiresLevels(t *testing.T) {
	net, err := beep.NewNetwork(graph.Path(3), noLevelProto{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	if err := (ClaimAllFault{K: 1}).Apply(net, rng.New(1)); err == nil {
		t.Fatal("ClaimAllFault on level-less protocol accepted")
	}
}

type noLevelProto struct{}

func (noLevelProto) Channels() int { return 1 }
func (noLevelProto) NewMachine(int, graph.Topology) beep.Machine {
	return &noLevelMachine{}
}

type noLevelMachine struct{}

func (*noLevelMachine) Emit(*rng.Source) beep.Signal { return beep.Silent }
func (*noLevelMachine) Update(_, _ beep.Signal)      {}
func (*noLevelMachine) Randomize(*rng.Source)        {}

// Property: recovery always succeeds and re-verifies the MIS for random
// small instances, fault sizes and seeds (Algorithm 1 and 2).
func TestRecoveryProperty(t *testing.T) {
	f := func(seed uint64, nRaw, kRaw uint8, useAlg2 bool) bool {
		n := int(nRaw%30) + 2
		k := int(kRaw)%n + 1
		g := graph.GNP(n, 0.2, rng.New(seed))
		var proto beep.Protocol
		if useAlg2 {
			proto = core.NewAlg2(core.NeighborhoodMaxDegree(core.DefaultC1TwoHop))
		} else {
			proto = alg1()
		}
		res, err := MeasureRecovery(RecoveryConfig{
			Graph:    g,
			Protocol: proto,
			Seed:     seed,
			Fault:    RandomFault{K: k},
			Repeats:  2,
		})
		return err == nil && len(res.RecoveryRounds) == 2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
