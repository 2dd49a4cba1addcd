package core

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/beep"
	"repro/internal/graph"
	"repro/internal/rng"
)

func TestBeepProbActivationShape(t *testing.T) {
	const cap = 8
	// Figure 1: p = 1 for ℓ <= 0, halving for 0 < ℓ < ℓmax, 0 at ℓmax.
	for l := -cap; l <= 0; l++ {
		if p := BeepProb(l, cap); p != 1 {
			t.Fatalf("BeepProb(%d)=%v, want 1", l, p)
		}
	}
	for l := 1; l < cap; l++ {
		want := math.Pow(2, -float64(l))
		if p := BeepProb(l, cap); math.Abs(p-want) > 1e-12 {
			t.Fatalf("BeepProb(%d)=%v, want %v", l, p, want)
		}
	}
	if p := BeepProb(cap, cap); p != 0 {
		t.Fatalf("BeepProb(cap)=%v, want 0", p)
	}
}

func TestLog2Ceil(t *testing.T) {
	cases := map[int]int{0: 0, 1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 1024: 10, 1025: 11}
	for x, want := range cases {
		if got := log2Ceil(x); got != want {
			t.Errorf("log2Ceil(%d)=%d want %d", x, got, want)
		}
	}
}

func TestLevelCapVariants(t *testing.T) {
	g := graph.Star(17) // center degree 16, leaves degree 1
	kd := KnownMaxDegree(16, 15)
	if got := kd(0, g); got != 4+15 {
		t.Fatalf("KnownMaxDegree cap %d, want 19", got)
	}
	if kd(1, g) != kd(0, g) {
		t.Fatal("KnownMaxDegree must be uniform")
	}
	kde := KnownMaxDegreeExact(15)
	if got := kde(5, g); got != 4+15 {
		t.Fatalf("KnownMaxDegreeExact cap %d, want 19", got)
	}
	od := OwnDegree(30)
	if got := od(0, g); got != 2*4+30 {
		t.Fatalf("OwnDegree(center) = %d, want 38", got)
	}
	if got := od(3, g); got != 30 {
		t.Fatalf("OwnDegree(leaf) = %d, want 30", got)
	}
	nd := NeighborhoodMaxDegree(15)
	if got := nd(3, g); got != 2*4+15 {
		t.Fatalf("NeighborhoodMaxDegree(leaf) = %d, want 23", got)
	}
	cc := ConstantCap(7)
	if cc(0, g) != 7 || cc(3, g) != 7 {
		t.Fatal("ConstantCap wrong")
	}
}

func TestValidateCaps(t *testing.T) {
	g := graph.Complete(32)
	if err := ValidateCaps(g, KnownMaxDegreeExact(15), 40); err != nil {
		t.Fatalf("valid caps rejected: %v", err)
	}
	if err := ValidateCaps(g, ConstantCap(2), 40); err == nil {
		t.Fatal("cap below log2(deg)+4 accepted")
	}
	if err := ValidateCaps(g, ConstantCap(100000), 1); err == nil {
		t.Fatal("cap above c2 log n accepted")
	}
	if err := ValidateCaps(graph.Path(4), func(int, graph.Topology) int { return 0 }, 40); err == nil {
		t.Fatal("non-positive cap accepted")
	}
}

func TestAlg1MachineTransitions(t *testing.T) {
	m := &alg1Machine{level: 3, lmax: 5}

	// Hearing a beep raises the level.
	m.Update(beep.Silent, beep.Chan1)
	if m.level != 4 {
		t.Fatalf("heard: level %d, want 4", m.level)
	}
	// ... capped at ℓmax.
	m.Update(beep.Silent, beep.Chan1)
	m.Update(beep.Silent, beep.Chan1)
	if m.level != 5 {
		t.Fatalf("heard twice more: level %d, want cap 5", m.level)
	}
	// Beeping alone commits: ℓ ← -ℓmax.
	m.level = 1
	m.Update(beep.Chan1, beep.Silent)
	if m.level != -5 {
		t.Fatalf("beeped alone: level %d, want -5", m.level)
	}
	// Beeping while hearing raises (hear branch has priority).
	m.level = 2
	m.Update(beep.Chan1, beep.Chan1)
	if m.level != 3 {
		t.Fatalf("beeped and heard: level %d, want 3", m.level)
	}
	// Silence decays toward 1, never below.
	m.level = 3
	m.Update(beep.Silent, beep.Silent)
	if m.level != 2 {
		t.Fatalf("silent: level %d, want 2", m.level)
	}
	m.level = 1
	m.Update(beep.Silent, beep.Silent)
	if m.level != 1 {
		t.Fatalf("silent at 1: level %d, want 1", m.level)
	}
}

func TestAlg1EmitRespectsCap(t *testing.T) {
	src := rng.New(1)
	m := &alg1Machine{level: 5, lmax: 5}
	for i := 0; i < 200; i++ {
		if m.Emit(src) != beep.Silent {
			t.Fatal("vertex at ℓmax must be silent")
		}
	}
	m.level = -5
	for i := 0; i < 200; i++ {
		if m.Emit(src) != beep.Chan1 {
			t.Fatal("vertex at negative level must beep with probability 1")
		}
	}
}

func TestAlg1SetLevelClamps(t *testing.T) {
	m := &alg1Machine{lmax: 4}
	m.SetLevel(99)
	if m.level != 4 {
		t.Fatalf("clamp high: %d", m.level)
	}
	m.SetLevel(-99)
	if m.level != -4 {
		t.Fatalf("clamp low: %d", m.level)
	}
}

func TestAlg1RandomizeStaysInRange(t *testing.T) {
	src := rng.New(2)
	m := &alg1Machine{lmax: 6}
	seenNeg, seenPos := false, false
	for i := 0; i < 2000; i++ {
		m.Randomize(src)
		if m.level < -6 || m.level > 6 {
			t.Fatalf("Randomize out of range: %d", m.level)
		}
		if m.level < 0 {
			seenNeg = true
		}
		if m.level > 0 {
			seenPos = true
		}
	}
	if !seenNeg || !seenPos {
		t.Fatal("Randomize never produced both signs")
	}
}

func TestAlg2MachineTransitions(t *testing.T) {
	m := &alg2Machine{level: 3, lmax: 5}

	// beep₂ heard dominates: straight to cap.
	m.Update(beep.Silent, beep.Chan2)
	if m.level != 5 {
		t.Fatalf("heard beep2: level %d, want 5", m.level)
	}
	// beep₁ heard raises.
	m.level = 2
	m.Update(beep.Silent, beep.Chan1)
	if m.level != 3 {
		t.Fatalf("heard beep1: level %d, want 3", m.level)
	}
	// Beeped beep₁ alone: join the MIS (ℓ = 0).
	m.level = 1
	m.Update(beep.Chan1, beep.Silent)
	if m.level != 0 {
		t.Fatalf("beeped alone: level %d, want 0", m.level)
	}
	// MIS vertex beeping beep₂ with silence: unchanged.
	m.Update(beep.Chan2, beep.Silent)
	if m.level != 0 {
		t.Fatalf("MIS steady state: level %d, want 0", m.level)
	}
	// MIS vertex hearing beep₂ (conflict): evicted to cap.
	m.Update(beep.Chan2, beep.Chan2)
	if m.level != 5 {
		t.Fatalf("MIS conflict: level %d, want 5", m.level)
	}
	// Silent decay toward 1.
	m.level = 3
	m.Update(beep.Silent, beep.Silent)
	if m.level != 2 {
		t.Fatalf("silent decay: level %d, want 2", m.level)
	}
}

func TestAlg2EmitChannels(t *testing.T) {
	src := rng.New(3)
	m := &alg2Machine{level: 0, lmax: 5}
	for i := 0; i < 100; i++ {
		if m.Emit(src) != beep.Chan2 {
			t.Fatal("MIS vertex must announce on channel 2")
		}
	}
	m.level = 5
	for i := 0; i < 100; i++ {
		if m.Emit(src) != beep.Silent {
			t.Fatal("vertex at cap must be silent")
		}
	}
	m.level = 1
	sawBeep, sawSilent := false, false
	for i := 0; i < 200; i++ {
		switch m.Emit(src) {
		case beep.Chan1:
			sawBeep = true
		case beep.Silent:
			sawSilent = true
		default:
			t.Fatal("interior level may only use channel 1")
		}
	}
	if !sawBeep || !sawSilent {
		t.Fatal("level 1 should beep about half the time")
	}
}

func stabilize(t *testing.T, g *graph.Graph, proto beep.Protocol, init InitMode, seed uint64) *RunResult {
	t.Helper()
	res, err := Run(RunConfig{Graph: g, Protocol: proto, Seed: seed, Init: init})
	if err != nil {
		t.Fatalf("%s/%v: %v", g.Name(), init, err)
	}
	return res
}

func TestAlg1StabilizesAcrossFamiliesAndInits(t *testing.T) {
	src := rng.New(100)
	graphs := []*graph.Graph{
		graph.Empty(8),
		graph.Path(33),
		graph.Cycle(32),
		graph.Complete(16),
		graph.Star(24),
		graph.Grid(6, 6),
		graph.BinaryTree(31),
		graph.GNP(80, 0.08, src),
		graph.PreferentialAttachment(70, 2, src),
	}
	inits := []InitMode{InitFresh, InitRandom, InitAdversarial, InitZero}
	for _, g := range graphs {
		for _, init := range inits {
			res := stabilize(t, g, NewAlg1(KnownMaxDegreeExact(DefaultC1KnownDelta)), init, 7)
			if err := g.VerifyMIS(res.MIS); err != nil {
				t.Fatalf("%s/%v: %v", g.Name(), init, err)
			}
			// Zero rounds is legitimate when the initial configuration
			// is already legal (e.g. adversarial init on an empty
			// graph); negative is never.
			if res.Rounds < 0 {
				t.Fatalf("%s/%v: negative round count %d", g.Name(), init, res.Rounds)
			}
		}
	}
}

func TestAlg1OwnDegreeStabilizes(t *testing.T) {
	src := rng.New(101)
	graphs := []*graph.Graph{
		graph.Star(40),                           // extreme heterogeneity
		graph.Caterpillar(40),                    // mild heterogeneity
		graph.PreferentialAttachment(60, 2, src), // heavy tail
		graph.Lollipop(40, 10),
	}
	for _, g := range graphs {
		for _, init := range []InitMode{InitRandom, InitAdversarial} {
			res := stabilize(t, g, NewAlg1(OwnDegree(DefaultC1OwnDegree)), init, 11)
			if err := g.VerifyMIS(res.MIS); err != nil {
				t.Fatalf("%s/%v: %v", g.Name(), init, err)
			}
		}
	}
}

func TestAlg2StabilizesAcrossFamiliesAndInits(t *testing.T) {
	src := rng.New(102)
	graphs := []*graph.Graph{
		graph.Empty(5),
		graph.Path(20),
		graph.Cycle(24),
		graph.Complete(12),
		graph.Star(20),
		graph.GNP(60, 0.1, src),
	}
	for _, g := range graphs {
		for _, init := range []InitMode{InitFresh, InitRandom, InitAdversarial, InitZero} {
			res := stabilize(t, g, NewAlg2(NeighborhoodMaxDegree(DefaultC1TwoHop)), init, 13)
			if err := g.VerifyMIS(res.MIS); err != nil {
				t.Fatalf("%s/%v: %v", g.Name(), init, err)
			}
		}
	}
}

func TestRunDeterministicForSeed(t *testing.T) {
	g := graph.GNP(50, 0.1, rng.New(200))
	run := func() *RunResult {
		res, err := Run(RunConfig{
			Graph:    g,
			Protocol: NewAlg1(KnownMaxDegreeExact(DefaultC1KnownDelta)),
			Seed:     42,
			Init:     InitRandom,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Rounds != b.Rounds || a.MISSize != b.MISSize {
		t.Fatalf("same seed diverged: %d/%d vs %d/%d", a.Rounds, a.MISSize, b.Rounds, b.MISSize)
	}
	for v := range a.MIS {
		if a.MIS[v] != b.MIS[v] {
			t.Fatalf("same seed produced different MIS at vertex %d", v)
		}
	}
}

func TestRunBudgetExhaustion(t *testing.T) {
	// A complete graph with a 2-round budget cannot stabilize.
	g := graph.Complete(30)
	_, err := Run(RunConfig{
		Graph:     g,
		Protocol:  NewAlg1(KnownMaxDegreeExact(DefaultC1KnownDelta)),
		Seed:      1,
		Init:      InitZero,
		MaxRounds: 2,
	})
	if !errors.Is(err, ErrNotStabilized) {
		t.Fatalf("err = %v, want ErrNotStabilized", err)
	}
}

func TestRunValidatesInputs(t *testing.T) {
	if _, err := Run(RunConfig{}); err == nil {
		t.Fatal("nil graph accepted")
	}
	if _, err := Run(RunConfig{Graph: graph.Path(3)}); err == nil {
		t.Fatal("nil protocol accepted")
	}
}

func TestSnapshotStateQueries(t *testing.T) {
	// Hand-built legal state on a path 0-1-2: vertex 1 in the MIS.
	g := graph.Path(3)
	caps := []int{5, 5, 5}
	levels := []int{5, -5, 5}
	st := NewState(g, levels, caps)

	if !st.InMIS(1) || st.InMIS(0) || st.InMIS(2) {
		t.Fatal("InMIS wrong")
	}
	if !st.Stabilized() {
		t.Fatal("legal state not recognized")
	}
	if st.StableCount() != 3 {
		t.Fatalf("StableCount %d", st.StableCount())
	}
	if err := st.VerifyMIS(); err != nil {
		t.Fatal(err)
	}
	if mu := st.Mu(1); mu != 1 {
		t.Fatalf("Mu(1)=%v, want 1", mu)
	}
	if mu := st.Mu(0); mu != -1 {
		t.Fatalf("Mu(0)=%v, want -1 (neighbor at -cap)", mu)
	}
	if !st.Prominent(1) || st.Prominent(0) {
		t.Fatal("Prominent wrong")
	}
	if !st.PlatinumFor(0) || !st.PlatinumFor(1) {
		t.Fatal("PlatinumFor should hold next to a prominent vertex")
	}
	if p := st.BeepProbOf(1); p != 1 {
		t.Fatalf("BeepProbOf(MIS vertex)=%v", p)
	}
	if d := st.ExpectedBeepingNeighbors(0); d != 1 {
		t.Fatalf("d_t(0)=%v, want 1 (one committed neighbor)", d)
	}
	// η with everything stable is 0.
	if e := st.Eta(0, nil); e != 0 {
		t.Fatalf("Eta in stable state = %v", e)
	}
}

func TestStateEtaCountsUnstableNeighbors(t *testing.T) {
	g := graph.Path(3)
	caps := []int{3, 3, 3}
	levels := []int{1, 2, 3} // nobody stable
	st := NewState(g, levels, caps)
	if st.Stabilized() {
		t.Fatal("unstable state reported stable")
	}
	want := math.Pow(2, -3)
	if e := st.Eta(0, nil); math.Abs(e-want) > 1e-12 {
		t.Fatalf("Eta(0)=%v, want %v", e, want)
	}
	if e := st.Eta(1, nil); math.Abs(e-2*want) > 1e-12 {
		t.Fatalf("Eta(1)=%v, want %v", e, 2*want)
	}
}

func TestMuIsolatedVertex(t *testing.T) {
	g := graph.Empty(1)
	st := NewState(g, []int{-4}, []int{4})
	if st.Mu(0) != 1 {
		t.Fatalf("Mu on isolated vertex = %v, want vacuous 1", st.Mu(0))
	}
	if !st.InMIS(0) {
		t.Fatal("committed isolated vertex should be in the MIS")
	}
}

func TestSnapshotRejectsForeignMachines(t *testing.T) {
	g := graph.Path(2)
	net, err := beep.NewNetwork(g, silentProtocol{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	if _, err := Snapshot(net); err == nil {
		t.Fatal("Snapshot accepted a protocol without levels")
	}
}

// silentProtocol is a trivial non-core protocol used to exercise error
// paths.
type silentProtocol struct{}

func (silentProtocol) Channels() int { return 1 }
func (silentProtocol) NewMachine(int, graph.Topology) beep.Machine {
	return &silentMachine{}
}

type silentMachine struct{}

func (*silentMachine) Emit(*rng.Source) beep.Signal { return beep.Silent }
func (*silentMachine) Update(_, _ beep.Signal)      {}
func (*silentMachine) Randomize(*rng.Source)        {}

// Property (Lemma 3.1 empirical form): after more than max ℓmax(w)
// rounds, every vertex has ℓ > 0 or a neighbor with positive level ratio
// (μ > 0).
func TestLemma31Property(t *testing.T) {
	f := func(seed uint64, nRaw uint8, pRaw uint8) bool {
		n := int(nRaw%30) + 2
		p := 0.05 + float64(pRaw%100)/200
		g := graph.GNP(n, p, rng.New(seed))
		proto := NewAlg1(KnownMaxDegreeExact(DefaultC1KnownDelta))
		net, err := beep.NewNetwork(g, proto, seed)
		if err != nil {
			return false
		}
		defer net.Close()
		net.RandomizeAll()
		maxCap := 0
		for v := 0; v < n; v++ {
			if c := net.Machine(v).(Leveled).Cap(); c > maxCap {
				maxCap = c
			}
		}
		for r := 0; r <= maxCap+1; r++ {
			net.Step()
		}
		st, err := Snapshot(net)
		if err != nil {
			return false
		}
		for v := 0; v < n; v++ {
			if st.Level(v) <= 0 && st.Mu(v) <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: every stabilized run of Algorithm 1 yields a valid MIS, on
// random graphs, seeds and init modes.
func TestAlg1AlwaysValidMISProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8, initRaw uint8) bool {
		n := int(nRaw%40) + 1
		g := graph.GNP(n, 0.15, rng.New(seed))
		init := []InitMode{InitFresh, InitRandom, InitAdversarial, InitZero}[initRaw%4]
		res, err := Run(RunConfig{
			Graph:    g,
			Protocol: NewAlg1(KnownMaxDegreeExact(DefaultC1KnownDelta)),
			Seed:     seed ^ 0xabcdef,
			Init:     init,
		})
		if err != nil {
			return false
		}
		return g.VerifyMIS(res.MIS) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: same for Algorithm 2.
func TestAlg2AlwaysValidMISProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8, initRaw uint8) bool {
		n := int(nRaw%30) + 1
		g := graph.GNP(n, 0.15, rng.New(seed))
		init := []InitMode{InitFresh, InitRandom, InitAdversarial, InitZero}[initRaw%4]
		res, err := Run(RunConfig{
			Graph:    g,
			Protocol: NewAlg2(NeighborhoodMaxDegree(DefaultC1TwoHop)),
			Seed:     seed ^ 0x123456,
			Init:     init,
		})
		if err != nil {
			return false
		}
		return g.VerifyMIS(res.MIS) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Closure: once stabilized, further rounds never change the MIS (absent
// faults). This is the "maintaining stability as long as faults are
// absent" half of self-stabilization.
func TestClosureAfterStabilization(t *testing.T) {
	g := graph.GNP(60, 0.1, rng.New(300))
	proto := NewAlg1(KnownMaxDegreeExact(DefaultC1KnownDelta))
	net, err := beep.NewNetwork(g, proto, 99)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	net.RandomizeAll()
	stab := func() bool {
		st, err := Snapshot(net)
		return err == nil && st.Stabilized()
	}
	if _, ok := net.Run(DefaultMaxRounds(g.N()), stab); !ok {
		t.Fatal("did not stabilize")
	}
	st0, err := Snapshot(net)
	if err != nil {
		t.Fatal(err)
	}
	mis0 := st0.MISMask()
	for r := 0; r < 200; r++ {
		net.Step()
		st, err := Snapshot(net)
		if err != nil {
			t.Fatal(err)
		}
		if !st.Stabilized() {
			t.Fatalf("stability lost at +%d rounds", r+1)
		}
		mis := st.MISMask()
		for v := range mis {
			if mis[v] != mis0[v] {
				t.Fatalf("MIS changed at vertex %d after stabilization", v)
			}
		}
	}
}

func TestInitModeString(t *testing.T) {
	for mode, want := range map[InitMode]string{
		InitFresh: "fresh", InitRandom: "random",
		InitAdversarial: "adversarial", InitZero: "zero",
		InitMode(99): "init(99)",
	} {
		if got := mode.String(); got != want {
			t.Errorf("%d.String()=%q want %q", mode, got, want)
		}
	}
}

func TestDefaultMaxRounds(t *testing.T) {
	if DefaultMaxRounds(1) < 1000 {
		t.Fatal("budget too small for n=1")
	}
	if DefaultMaxRounds(1<<16) <= DefaultMaxRounds(4) {
		t.Fatal("budget must grow with n")
	}
}
