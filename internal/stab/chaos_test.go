package stab

import (
	"testing"

	"repro/internal/beep"
	"repro/internal/graph"
	"repro/internal/rng"
)

// chaosScenarios builds the three fault families of the kill–resume
// acceptance matrix: noisy+sleepy, adversarial, and churning (the churn
// one also carries an adversary so policy remapping through Rewire is
// exercised on the resume path), plus two fault-free churning ones.
func chaosScenarios(t *testing.T) []ChaosScenario {
	t.Helper()
	noise := ChaosScenario{
		Name:     "noise",
		Graph:    graph.GNPAvgDegree(32, 4, rng.New(31)),
		Protocol: testProto(),
		Seed:     101,
		Options:  []beep.Option{beep.WithNoise(beep.Noise{PLoss: 0.05, PFalse: 0.02}), beep.WithSleep(beep.Sleep{P: 0.02})},
		Rounds:   60,
	}
	adv := ChaosScenario{
		Name:        "adversaries",
		Graph:       graph.GNPAvgDegree(32, 4, rng.New(32)),
		Protocol:    testProto(),
		Seed:        102,
		AdvPolicy:   beep.AdvBabbler,
		AdvVertices: []int{1, 5, 9},
		Rounds:      60,
	}
	churn := ChaosScenario{
		Name:        "churn",
		Graph:       graph.Cycle(20),
		Protocol:    testProto(),
		Seed:        103,
		AdvPolicy:   beep.AdvBabbler,
		AdvVertices: []int{2},
		Rounds:      60,
		Churn: []ChaosChurn{
			{AfterRound: 15, Event: graph.ChurnEvent{Label: "grow", Edits: []graph.Edit{
				{Kind: graph.EditDelEdge, U: 0, V: 1},
				{Kind: graph.EditAddVertex},
				{Kind: graph.EditAddEdge, U: 20, V: 0},
				{Kind: graph.EditAddEdge, U: 20, V: 1},
			}}},
			{AfterRound: 30, Event: graph.ChurnEvent{Label: "crash", Edits: []graph.Edit{
				{Kind: graph.EditDelVertex, U: 5},
			}}},
			{AfterRound: 45, Event: graph.ChurnEvent{Label: "join", Edits: []graph.Edit{
				{Kind: graph.EditAddVertex},
				{Kind: graph.EditAddEdge, U: 20, V: 2},
				{Kind: graph.EditAddEdge, U: 20, V: 7},
			}}},
		},
	}
	// quiet is the only fault-free scenario: with no noise, sleep or
	// adversaries the pipeline gates rounds by activity between the
	// rewires, so kill–resume here certifies the activity masks and the
	// delta-delivery baselines across Restore (which must invalidate them
	// wholesale) rather than just the dense fault rounds.
	quiet := ChaosScenario{
		Name:     "quiet-churn",
		Graph:    graph.GNPAvgDegree(32, 4, rng.New(34)),
		Protocol: testProto(),
		Seed:     105,
		Rounds:   60,
		Churn: []ChaosChurn{
			{AfterRound: 20, Event: graph.ChurnEvent{Label: "crash", Edits: []graph.Edit{
				{Kind: graph.EditDelVertex, U: 3},
			}}},
			{AfterRound: 40, Event: graph.ChurnEvent{Label: "join", Edits: []graph.Edit{
				{Kind: graph.EditAddVertex},
				{Kind: graph.EditAddEdge, U: 31, V: 0},
				{Kind: graph.EditAddEdge, U: 31, V: 8},
			}}},
		},
	}
	// wide is the one scenario large enough for the multi-stripe rows to
	// lay out several stripes: stripes are 64-vertex-aligned, so a graph
	// of at most 64 vertices has one stripe whatever WithWorkers asks
	// for. At n = 160 the k = 3 rows run three stripes on the worker
	// pool through kill–resume and through rewires that rebuild them.
	wide := ChaosScenario{
		Name:     "wide-quiet-churn",
		Graph:    graph.GNPAvgDegree(160, 4, rng.New(35)),
		Protocol: testProto(),
		Seed:     106,
		Rounds:   60,
		Churn: []ChaosChurn{
			{AfterRound: 20, Event: graph.ChurnEvent{Label: "crash", Edits: []graph.Edit{
				{Kind: graph.EditDelVertex, U: 3},
			}}},
			{AfterRound: 40, Event: graph.ChurnEvent{Label: "join", Edits: []graph.Edit{
				{Kind: graph.EditAddVertex},
				{Kind: graph.EditAddEdge, U: 159, V: 0},
				{Kind: graph.EditAddEdge, U: 159, V: 80},
			}}},
		},
	}
	return []ChaosScenario{noise, adv, churn, quiet, wide}
}

// refLoopProto forwards only NewMachine and Channels of the protocol it
// wraps, hiding the bulk state and its flat kernels, so NewNetwork runs
// the per-machine reference loop on it.
type refLoopProto struct{ p beep.Protocol }

func (r refLoopProto) NewMachine(v int, g graph.Topology) beep.Machine { return r.p.NewMachine(v, g) }
func (r refLoopProto) Channels() int                                   { return r.p.Channels() }

// chaosEngine is one network-configuration row of the kill–resume
// matrices.
type chaosEngine struct {
	name    string
	opts    []beep.Option
	refLoop bool // run the reference loop (refLoopProto)
}

// apply specializes a scenario to the row: the row's options follow the
// scenario's own.
func (e chaosEngine) apply(base ChaosScenario, suffix string) ChaosScenario {
	s := base
	s.Options = append(append([]beep.Option(nil), base.Options...), e.opts...)
	if e.refLoop {
		s.Protocol = refLoopProto{base.Protocol}
	}
	s.Name = base.Name + "/" + e.name + suffix
	return s
}

// TestChaosKillResume is the acceptance gate of the crash-safety work:
// ≥ 200 randomized kill points across {noise, adversaries, churn,
// quiet-churn, wide-quiet-churn} × {the pipeline on one stripe and on
// three, each also with forced delta delivery, and the reference loop}
// must all resume from their last auto-checkpoint, read back through a
// binary snapshot, with bit-exact trace equivalence against the
// uninterrupted execution. The pipeline rows certify the kernels (and
// the multi-stripe state) and the empty-frontier elision under
// kill/resume; the reference-loop row certifies the per-machine round
// that kernel-less protocols and WithFlatKernels(false) run.
func TestChaosKillResume(t *testing.T) {
	const killsPerCombo = 23
	engines := []chaosEngine{
		{name: "sequential"},
		{name: "flatparallel", opts: []beep.Option{beep.WithWorkers(3)}},
		// Forced-delta combos: the delta delivery (and the dense fault
		// rounds around it) must survive kill–resume bit-exactly too.
		{name: "sequential-delta", opts: []beep.Option{beep.WithForcedDelta()}},
		{name: "flatparallel-delta", opts: []beep.Option{beep.WithWorkers(3), beep.WithForcedDelta()}},
		{name: "sequential-refloop", refLoop: true},
	}
	src := rng.New(4242)
	total, combo := 0, 0
	for _, base := range chaosScenarios(t) {
		for _, e := range engines {
			combo++
			s := e.apply(base, "")
			rep, err := RunChaos(s, killsPerCombo, src.Split(uint64(combo)))
			if err != nil {
				t.Fatalf("%s: %v (after %d/%d kills)", s.Name, err, rep.Resumes, rep.Kills)
			}
			if rep.Resumes != rep.Kills {
				t.Fatalf("%s: %d/%d kills resumed bit-exact", s.Name, rep.Resumes, rep.Kills)
			}
			if rep.MinKillRound < 1 || rep.MaxKillRound >= base.Rounds {
				t.Fatalf("%s: kill rounds [%d,%d] out of range", s.Name, rep.MinKillRound, rep.MaxKillRound)
			}
			total += rep.Kills
		}
	}
	if total < 200 {
		t.Fatalf("only %d kill points exercised, want >= 200", total)
	}
}

// TestChaosDetectsForgottenAdversaries is a self-test of the harness:
// resuming an adversarial execution into a network whose checkpoint has
// the adversary table stripped must NOT pass the bit-exact comparison —
// otherwise the 200-kill campaign proves nothing.
func TestChaosDetectsForgottenAdversaries(t *testing.T) {
	s := ChaosScenario{
		Name:        "self-test",
		Graph:       graph.GNPAvgDegree(24, 4, rng.New(33)),
		Protocol:    testProto(),
		Seed:        104,
		AdvPolicy:   beep.AdvBabbler,
		AdvVertices: []int{0, 3},
		Rounds:      40,
	}
	ref, err := runPass(&s, chaosPass{})
	if err != nil {
		t.Fatal(err)
	}
	crash, err := runPass(&s, chaosPass{stopAfter: 20, ckEvery: 5})
	if err != nil {
		t.Fatal(err)
	}
	cp := crash.lastCP
	if cp == nil || cp.Round != 20 {
		t.Fatalf("no checkpoint at round 20: %+v", cp)
	}
	// Strip the adversaries and re-seal so only the forgotten-state
	// effect (not the integrity hash) is under test.
	cp.Adversaries = nil
	cp.Seal()
	resumed, err := runPass(&s, chaosPass{resume: cp})
	if err != nil {
		t.Fatal(err)
	}
	diverged := false
	for r := cp.Round + 1; r <= s.Rounds; r++ {
		if resumed.hashes[r] != ref.hashes[r] {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Fatal("stripping adversary state from the checkpoint went unnoticed; the harness is blind")
	}
}

// TestChaosChainKillResume re-runs the kill–resume matrix with every
// crash pass's checkpoints persisted as an on-disk base + delta
// chain and every resume assembled by ckpt.Load — the incremental
// checkpoint format under the same bit-exactness gate as full
// snapshots. The quiet scenario must produce at least some resumes
// that actually replayed delta links.
func TestChaosChainKillResume(t *testing.T) {
	const killsPerCombo = 12
	engines := []chaosEngine{
		{name: "sequential"},
		{name: "flatparallel", opts: []beep.Option{beep.WithWorkers(3)}},
		{name: "sequential-delta", opts: []beep.Option{beep.WithForcedDelta()}},
		{name: "sequential-refloop", refLoop: true},
	}
	src := rng.New(7117)
	combo := 0
	deltaResumes := 0
	for _, base := range chaosScenarios(t) {
		for _, e := range engines {
			combo++
			s := e.apply(base, "/chain")
			s.ChainDir = t.TempDir()
			rep, err := RunChaos(s, killsPerCombo, src.Split(uint64(combo)))
			if err != nil {
				t.Fatalf("%s: %v (after %d/%d kills)", s.Name, err, rep.Resumes, rep.Kills)
			}
			if rep.Resumes != rep.Kills {
				t.Fatalf("%s: %d/%d kills resumed bit-exact", s.Name, rep.Resumes, rep.Kills)
			}
			deltaResumes += rep.DeltaResumes
		}
	}
	if deltaResumes == 0 {
		t.Fatal("no resume ever replayed a delta link; the chain matrix only exercised bases")
	}
}
