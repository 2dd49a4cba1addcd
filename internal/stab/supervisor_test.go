package stab

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/beep"
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rng"
)

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	return graph.GNPAvgDegree(48, 5, rng.New(21))
}

func testProto() beep.Protocol {
	return core.NewAlg1(core.KnownMaxDegreeExact(core.DefaultC1KnownDelta))
}

func TestSupervisorBudgetEscalation(t *testing.T) {
	g := testGraph(t)
	// A 2-round budget cannot stabilize; with enough doublings it must.
	sup, err := NewSupervisor(SupervisorConfig{
		Graph: g, Protocol: testProto(), Seed: 9,
		MaxRounds: 2, MaxRetries: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sup.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempts < 2 {
		t.Fatalf("stabilized with %d attempts on a 2-round budget; escalation never ran", res.Attempts)
	}
	// The escalated run is the SAME execution extended, so the final
	// round count matches the uninterrupted one.
	ref, err := core.Run(core.RunConfig{Graph: g, Protocol: testProto(), Seed: 9, Init: core.InitRandom})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != ref.Rounds {
		t.Fatalf("escalated run stabilized at round %d, uninterrupted at %d", res.Rounds, ref.Rounds)
	}
}

func TestSupervisorBudgetExhaustion(t *testing.T) {
	g := testGraph(t)
	sup, err := NewSupervisor(SupervisorConfig{
		Graph: g, Protocol: testProto(), Seed: 9,
		MaxRounds: 1, MaxRetries: 1, // 1 + 2 rounds: hopeless
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sup.Run(); !errors.Is(err, ErrBudget) {
		t.Fatalf("got %v, want ErrBudget", err)
	}
}

func TestSupervisorDeadline(t *testing.T) {
	g := testGraph(t)
	// A fake clock that jumps 1 hour per reading forces an immediate
	// deadline trip regardless of machine speed.
	tick := time.Now()
	cfg := SupervisorConfig{
		Graph: g, Protocol: testProto(), Seed: 9,
		Deadline: time.Minute,
		now: func() time.Time {
			tick = tick.Add(time.Hour)
			return tick
		},
	}
	sup, err := NewSupervisor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sup.Run(); !errors.Is(err, ErrDeadline) {
		t.Fatalf("got %v, want ErrDeadline", err)
	}
}

func TestSupervisorContainsPanicTyped(t *testing.T) {
	g := testGraph(t)
	for _, engine := range []beep.Engine{beep.Sequential} {
		sup, err := NewSupervisor(SupervisorConfig{
			Graph: g, Protocol: panicAtProto{round: 3}, Seed: 9, Engine: engine,
			MaxRetries: 5, // retries must NOT mask a deterministic panic
		})
		if err != nil {
			t.Fatal(err)
		}
		_, err = sup.Run()
		var rerr *beep.RunError
		if !errors.As(err, &rerr) {
			t.Fatalf("%v: got %v, want wrapped *beep.RunError", engine, err)
		}
		if rerr.Round != 3 {
			t.Fatalf("%v: panic surfaced at round %d, want 3", engine, rerr.Round)
		}
	}
}

func TestSupervisorCheckpointResume(t *testing.T) {
	g := testGraph(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")

	// Reference: uninterrupted supervised run.
	sup, err := NewSupervisor(SupervisorConfig{Graph: g, Protocol: testProto(), Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := sup.Run()
	if err != nil {
		t.Fatal(err)
	}

	// "Crashing" run: checkpoint every 5 rounds, but give it too small
	// a budget so it dies with the checkpoint file on disk.
	crash, err := NewSupervisor(SupervisorConfig{
		Graph: g, Protocol: testProto(), Seed: 9,
		MaxRounds: 10, CheckpointEvery: 5, CheckpointPath: path,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := crash.Run(); !errors.Is(err, ErrBudget) {
		t.Fatalf("crash run: %v, want ErrBudget", err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("no checkpoint persisted: %v", err)
	}

	// Resume from the file and finish.
	cp, _, err := ckpt.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Round != 10 {
		t.Fatalf("checkpoint at round %d, want 10", cp.Round)
	}
	resume, err := NewSupervisor(SupervisorConfig{
		Graph: g, Protocol: testProto(), Seed: 9, Resume: cp,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := resume.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Resumed {
		t.Fatal("result not marked resumed")
	}
	if res.Rounds != ref.Rounds || res.MISSize != ref.MISSize {
		t.Fatalf("resumed run (rounds=%d mis=%d) differs from uninterrupted (rounds=%d mis=%d)",
			res.Rounds, res.MISSize, ref.Rounds, ref.MISSize)
	}
	for v := range res.MIS {
		if res.MIS[v] != ref.MIS[v] {
			t.Fatalf("resumed MIS differs at vertex %d", v)
		}
	}
}

func TestSupervisorRejectsCorruptedCheckpointFile(t *testing.T) {
	g := testGraph(t)
	path := filepath.Join(t.TempDir(), "run.ckpt")
	sup, err := NewSupervisor(SupervisorConfig{
		Graph: g, Protocol: testProto(), Seed: 9,
		CheckpointEvery: 3, CheckpointPath: path,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sup.Run(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte inside the payload: the integrity hash must catch it.
	corrupted := append([]byte(nil), data...)
	corrupted[len(corrupted)/2] ^= 0x01
	if err := os.WriteFile(path, corrupted, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ckpt.Load(path); err == nil {
		t.Fatal("corrupted checkpoint file accepted")
	}
}

// panicAtProto wraps the real Algorithm 1 but makes vertex 0's machine
// panic in Update of a fixed round: a protocol the legality probe can
// read (levels forward to the wrapped machine) whose execution blows up
// mid-run.
type panicAtProto struct{ round int64 }

func (p panicAtProto) Channels() int { return 1 }
func (p panicAtProto) NewMachine(v int, g graph.Topology) beep.Machine {
	inner := testProto().NewMachine(v, g)
	return &panicAtMachine{inner: inner, round: p.round, vertex: v}
}

type panicAtMachine struct {
	inner  beep.Machine
	round  int64
	vertex int
	rounds int64
}

func (m *panicAtMachine) Emit(src *rng.Source) beep.Signal { return m.inner.Emit(src) }

func (m *panicAtMachine) Update(sent, heard beep.Signal) {
	m.rounds++
	if m.vertex == 0 && m.rounds == m.round {
		panic("supervised machine fault")
	}
	m.inner.Update(sent, heard)
}

func (m *panicAtMachine) Randomize(src *rng.Source) { m.inner.Randomize(src) }

// Leveled forwarding so core.State can probe the wrapped machine.
func (m *panicAtMachine) Level() int     { return m.inner.(core.Leveled).Level() }
func (m *panicAtMachine) Cap() int       { return m.inner.(core.Leveled).Cap() }
func (m *panicAtMachine) SetLevel(l int) { m.inner.(core.Leveled).SetLevel(l) }

func TestSupervisorCancelBeforeStart(t *testing.T) {
	g := testGraph(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(errors.New("operator abort"))
	sup, err := NewSupervisor(SupervisorConfig{
		Graph: g, Protocol: testProto(), Seed: 9,
		Ctx: ctx, CheckpointEvery: 5, CheckpointPath: path,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sup.Run(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled-before-start run: %v, want ErrCanceled", err)
	}

	// Cancel-on-start still checkpoints the round-zero state; resuming
	// from it reproduces the uninterrupted execution exactly.
	cp, _, err := ckpt.Load(path)
	if err != nil {
		t.Fatalf("no resumable checkpoint after cancel-before-start: %v", err)
	}
	if cp.Round != 0 {
		t.Fatalf("cancel-before-start checkpoint at round %d, want 0", cp.Round)
	}
	refSup, err := NewSupervisor(SupervisorConfig{Graph: g, Protocol: testProto(), Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := refSup.Run()
	if err != nil {
		t.Fatal(err)
	}
	resume, err := NewSupervisor(SupervisorConfig{Graph: g, Protocol: testProto(), Seed: 9, Resume: cp})
	if err != nil {
		t.Fatal(err)
	}
	res, err := resume.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != ref.Rounds || res.MISSize != ref.MISSize {
		t.Fatalf("resumed-from-round-0 run (rounds=%d mis=%d) differs from uninterrupted (rounds=%d mis=%d)",
			res.Rounds, res.MISSize, ref.Rounds, ref.MISSize)
	}
}

func TestSupervisorCancelMidRun(t *testing.T) {
	g := testGraph(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	ctx, cancel := context.WithCancelCause(context.Background())
	const cancelAt = 7
	sup, err := NewSupervisor(SupervisorConfig{
		Graph: g, Protocol: testProto(), Seed: 9,
		Ctx: ctx, CheckpointPath: path,
		Options: []beep.Option{beep.WithObserver(func(round int, _, _ []beep.Signal) {
			if round == cancelAt {
				cancel(errors.New("mid-run cancel"))
			}
		})},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = sup.Run()
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("mid-run cancel: %v, want ErrCanceled", err)
	}
	if want := "mid-run cancel"; !strings.Contains(err.Error(), want) {
		t.Fatalf("cancel error %q does not carry the cause %q", err, want)
	}

	// Checkpoint-on-cancel captured the state at the cancellation
	// point; resuming completes with the reference outcome.
	cp, _, err := ckpt.Load(path)
	if err != nil {
		t.Fatalf("no checkpoint after mid-run cancel: %v", err)
	}
	if cp.Round != cancelAt {
		t.Fatalf("cancel checkpoint at round %d, want %d", cp.Round, cancelAt)
	}
	refSup, err := NewSupervisor(SupervisorConfig{Graph: g, Protocol: testProto(), Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := refSup.Run()
	if err != nil {
		t.Fatal(err)
	}
	resume, err := NewSupervisor(SupervisorConfig{Graph: g, Protocol: testProto(), Seed: 9, Resume: cp})
	if err != nil {
		t.Fatal(err)
	}
	res, err := resume.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != ref.Rounds || res.MISSize != ref.MISSize {
		t.Fatalf("resumed-after-cancel run (rounds=%d mis=%d) differs from uninterrupted (rounds=%d mis=%d)",
			res.Rounds, res.MISSize, ref.Rounds, ref.MISSize)
	}
}

func TestSupervisorCancelDuringRetry(t *testing.T) {
	g := testGraph(t)
	ctx, cancel := context.WithCancelCause(context.Background())
	// A 3-round budget forces escalation; canceling at round 8 lands
	// inside a retry attempt, which must still honor the stop path.
	sup, err := NewSupervisor(SupervisorConfig{
		Graph: g, Protocol: testProto(), Seed: 9,
		MaxRounds: 3, MaxRetries: 10, Ctx: ctx,
		Options: []beep.Option{beep.WithObserver(func(round int, _, _ []beep.Signal) {
			if round == 8 {
				cancel(errors.New("cancel during retry"))
			}
		})},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = sup.Run()
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("cancel during retry: %v, want ErrCanceled", err)
	}
	if !strings.Contains(err.Error(), "round 8") {
		t.Fatalf("cancel error %q does not name the round", err)
	}
}

func TestSupervisorFixedRounds(t *testing.T) {
	g := testGraph(t)
	const rounds = 25
	sup, err := NewSupervisor(SupervisorConfig{
		Graph: g, Protocol: testProto(), Seed: 9, FixedRounds: rounds,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sup.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != rounds {
		t.Fatalf("fixed run stopped at round %d, want %d", res.Rounds, rounds)
	}

	// Long enough to stabilize: the fixed run reports legality and the
	// same MIS as the stabilization run.
	ref, err := core.Run(core.RunConfig{Graph: g, Protocol: testProto(), Seed: 9, Init: core.InitRandom})
	if err != nil {
		t.Fatal(err)
	}
	long, err := NewSupervisor(SupervisorConfig{
		Graph: g, Protocol: testProto(), Seed: 9, FixedRounds: ref.Rounds + 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	lres, err := long.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !lres.Stabilized || lres.MISSize != ref.MISSize {
		t.Fatalf("long fixed run stabilized=%v mis=%d, want true/%d", lres.Stabilized, lres.MISSize, ref.MISSize)
	}

	// A resumed execution already past the target completes
	// immediately without stepping.
	net := mustNetwork(t, g, 9)
	defer net.Close()
	net.RandomizeAll()
	for i := 0; i < rounds+5; i++ {
		net.Step()
	}
	cp, err := net.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	past, err := NewSupervisor(SupervisorConfig{
		Graph: g, Protocol: testProto(), Seed: 9, FixedRounds: rounds, Resume: cp,
	})
	if err != nil {
		t.Fatal(err)
	}
	pres, err := past.Run()
	if err != nil {
		t.Fatal(err)
	}
	if pres.Rounds != rounds+5 || !pres.Resumed {
		t.Fatalf("past-target resume rounds=%d resumed=%v, want %d/true", pres.Rounds, pres.Resumed, rounds+5)
	}

	// FixedRounds is exclusive with the stabilization budget knobs.
	if _, err := NewSupervisor(SupervisorConfig{
		Graph: g, Protocol: testProto(), Seed: 9, FixedRounds: 5, MaxRounds: 10,
	}); err == nil {
		t.Fatal("FixedRounds+MaxRounds accepted")
	}
}

func mustNetwork(t *testing.T, g *graph.Graph, seed uint64) *beep.Network {
	t.Helper()
	net, err := beep.NewNetwork(g, testProto(), seed)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestSupervisorChainCheckpoints drives the file-backed base + delta
// chain end to end through the supervisor: the chain file must
// reproduce the in-memory tip bit-exactly, a stabilized resumed run
// must checkpoint via deltas (not fresh bases), and the chain-assembled
// state must equal an uninterrupted in-memory run's.
func TestSupervisorChainCheckpoints(t *testing.T) {
	g := graph.GNPAvgDegree(300, 6, rng.New(4))
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")

	var kinds []string
	obs := func(kind string, bytes int, d time.Duration) {
		kinds = append(kinds, kind)
		if kind != "full" && bytes <= 0 {
			t.Errorf("%s checkpoint reported %d bytes written", kind, bytes)
		}
	}
	sup, err := NewSupervisor(SupervisorConfig{
		Graph: g, Protocol: testProto(), Seed: 9, Engine: beep.Sequential,
		CheckpointEvery: 1, CheckpointPath: path, CheckpointObserver: obs,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sup.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Checkpoints == 0 || res.LastCheckpoint == nil {
		t.Fatal("no checkpoints taken")
	}
	if len(kinds) != res.Checkpoints || kinds[0] != "base" {
		t.Fatalf("observer saw %v for %d checkpoints", kinds, res.Checkpoints)
	}
	if err := res.LastCheckpoint.Validate(); err != nil {
		t.Fatalf("LastCheckpoint not sealed at finish: %v", err)
	}
	// The chain on disk must assemble to the exact in-memory tip.
	cp, _, err := ckpt.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Hash != res.LastCheckpoint.Hash || cp.Round != res.Rounds {
		t.Fatalf("chain file (round %d hash %#x) != in-memory tip (round %d hash %#x)",
			cp.Round, cp.Hash, res.Rounds, res.LastCheckpoint.Hash)
	}

	// Resume the stabilized execution for 40 fixed rounds: after the
	// forced post-restore base, the quiescent rounds must checkpoint as
	// deltas.
	kinds = nil
	path2 := filepath.Join(dir, "resumed.ckpt")
	target := res.Rounds + 40
	sup2, err := NewSupervisor(SupervisorConfig{
		Graph: g, Protocol: testProto(), Seed: 9, Engine: beep.Sequential,
		Resume: cp, FixedRounds: target,
		CheckpointEvery: 1, CheckpointPath: path2, CheckpointObserver: obs,
	})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := sup2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res2.Rounds != target || !res2.Resumed {
		t.Fatalf("resumed run ended at round %d (resumed=%v), want %d", res2.Rounds, res2.Resumed, target)
	}
	if kinds[0] != "base" {
		t.Fatalf("post-restore checkpoint kind %q, want base", kinds[0])
	}
	deltas := 0
	for _, k := range kinds[1:] {
		if k == "delta" {
			deltas++
		}
	}
	if deltas == 0 {
		t.Fatalf("stabilized resumed run wrote no delta checkpoints: %v", kinds)
	}
	if err := res2.LastCheckpoint.Validate(); err != nil {
		t.Fatalf("delta-patched tip not resealed: %v", err)
	}
	cp2, _, err := ckpt.Load(path2)
	if err != nil {
		t.Fatal(err)
	}
	if cp2.Hash != res2.LastCheckpoint.Hash {
		t.Fatalf("assembled chain hash %#x != in-memory tip %#x", cp2.Hash, res2.LastCheckpoint.Hash)
	}

	// Control: the same resumed run with in-memory (file-less) full
	// checkpoints must land on the identical state.
	kinds = nil
	sup3, err := NewSupervisor(SupervisorConfig{
		Graph: g, Protocol: testProto(), Seed: 9, Engine: beep.Sequential,
		Resume: cp, FixedRounds: target,
		CheckpointEvery: 1, CheckpointObserver: obs,
	})
	if err != nil {
		t.Fatal(err)
	}
	res3, err := sup3.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range kinds {
		if k != "full" {
			t.Fatalf("file-less run observed kind %q", k)
		}
	}
	if res3.LastCheckpoint.Hash != cp2.Hash {
		t.Fatalf("chain-assembled state %#x != uninterrupted in-memory state %#x",
			cp2.Hash, res3.LastCheckpoint.Hash)
	}
}
