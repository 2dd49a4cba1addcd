package beep

import (
	"errors"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/rng"
)

// panicProtocol builds machines that run normally except for one vertex
// whose chosen phase panics at a chosen round: the fault-injection
// vehicle for the engine-containment tests.
type panicProtocol struct {
	vertex int
	round  int64
	phase  string // "emit" or "update"
}

func (p panicProtocol) Channels() int { return 1 }
func (p panicProtocol) NewMachine(v int, _ graph.Topology) Machine {
	return &panicMachine{proto: p, vertex: v}
}

type panicMachine struct {
	proto  panicProtocol
	vertex int
	rounds int64
}

func (m *panicMachine) Emit(src *rng.Source) Signal {
	if m.proto.phase == "emit" && m.vertex == m.proto.vertex && m.rounds+1 == m.proto.round {
		panic("injected emit fault")
	}
	if src.Coin() {
		return Chan1
	}
	return Silent
}

func (m *panicMachine) Update(sent, _ Signal) {
	m.rounds++
	if m.proto.phase == "update" && m.vertex == m.proto.vertex && m.rounds == m.proto.round {
		panic("injected update fault")
	}
}

func (m *panicMachine) Randomize(src *rng.Source) { m.rounds = int64(src.Intn(3)) }

func (m *panicMachine) AppendState(dst []int64) []int64 { return append(dst, m.rounds) }
func (m *panicMachine) DecodeState(s []int64) error {
	if len(s) != 1 {
		return errors.New("bad state")
	}
	m.rounds = s[0]
	return nil
}

// TestEnginePanicContainment injects a machine whose Step panics at a
// known (vertex, round, phase) on each engine and asserts: TryStep
// returns a typed *RunError naming the failure, the error is sticky,
// Close neither deadlocks nor panics (the sense-reversing barrier was
// not orphaned), and a subsequent network on the same protocol value
// runs unaffected.
func TestEnginePanicContainment(t *testing.T) {
	g := graph.GNP(25, 0.2, rng.New(6))
	for _, engine := range []Engine{Sequential} {
		for _, phase := range []string{"emit", "update"} {
			t.Run(engine.String()+"/"+phase, func(t *testing.T) {
				proto := panicProtocol{vertex: 13, round: 4, phase: phase}
				net, err := NewNetwork(g, proto, 1, WithEngine(engine))
				if err != nil {
					t.Fatal(err)
				}

				var stepErr error
				for r := 1; r <= 10; r++ {
					if stepErr = net.TryStep(); stepErr != nil {
						break
					}
				}
				var rerr *RunError
				if !errors.As(stepErr, &rerr) {
					t.Fatalf("%v: got %v, want *RunError", engine, stepErr)
				}
				if rerr.Vertex != 13 || rerr.Round != 4 || rerr.Phase != phase || rerr.Engine != engine {
					t.Fatalf("RunError = vertex %d round %d phase %q engine %v, want 13/4/%q/%v",
						rerr.Vertex, rerr.Round, rerr.Phase, rerr.Engine, phase, engine)
				}
				if rerr.Recovered != "injected "+phase+" fault" {
					t.Fatalf("recovered value %v", rerr.Recovered)
				}
				if len(rerr.Stack) == 0 {
					t.Fatal("no stack captured")
				}

				// Sticky: the poisoned network refuses further rounds.
				if err := net.TryStep(); err != rerr {
					t.Fatalf("second TryStep returned %v, want the original *RunError", err)
				}
				if net.Failed() != rerr {
					t.Fatalf("Failed() = %v, want the original *RunError", net.Failed())
				}
				// Checkpointing a mid-phase torso is refused.
				if _, err := net.Checkpoint(); err == nil {
					t.Fatal("checkpoint of a failed network accepted")
				}

				// Close must return promptly: the panicking worker joined
				// the barrier before unwinding, so the pool is intact.
				closed := make(chan struct{})
				go func() { net.Close(); close(closed) }()
				select {
				case <-closed:
				case <-time.After(5 * time.Second):
					t.Fatalf("%v: Close deadlocked after a contained panic", engine)
				}

				// A fresh network on a healthy configuration of the same
				// shape is unaffected by the earlier failure.
				clean, err := NewNetwork(g, panicProtocol{vertex: -1}, 2, WithEngine(engine))
				if err != nil {
					t.Fatal(err)
				}
				defer clean.Close()
				for r := 0; r < 10; r++ {
					if err := clean.TryStep(); err != nil {
						t.Fatalf("clean network failed: %v", err)
					}
				}
			})
		}
	}
}

// TestStepPanicsTyped pins the legacy Step contract: a machine panic
// propagates, but as the typed *RunError, after the barrier has safely
// completed.
func TestStepPanicsTyped(t *testing.T) {
	g := graph.Path(4)
	net, err := NewNetwork(g, panicProtocol{vertex: 2, round: 1, phase: "emit"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	defer func() {
		r := recover()
		rerr, ok := r.(*RunError)
		if !ok {
			t.Fatalf("Step panicked with %T (%v), want *RunError", r, r)
		}
		if rerr.Vertex != 2 || rerr.Phase != "emit" {
			t.Fatalf("unexpected RunError %v", rerr)
		}
	}()
	net.Step()
	t.Fatal("Step did not panic")
}

// TestTryStepClosed pins the TryStep error on a closed network (Step
// keeps its terminal panic).
func TestTryStepClosed(t *testing.T) {
	net, err := NewNetwork(graph.Path(3), panicProtocol{vertex: -1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	net.Close()
	if err := net.TryStep(); !errors.Is(err, ErrClosed) {
		t.Fatalf("TryStep on closed network: %v, want ErrClosed", err)
	}
}

// flatPanicProtocol is panicProtocol's flat-kernel sibling: its bulk
// handle implements FlatProtocol and panics inside the chosen kernel
// (Emit or Update) at the chosen round, so the containment contract can
// be pinned on the pipeline too, where the panic has no owning vertex
// (RunError.Vertex == -1).
type flatPanicProtocol struct {
	round int64
	phase string // "emit" or "update"
}

func (p flatPanicProtocol) Channels() int { return 1 }
func (p flatPanicProtocol) NewMachine(v int, _ graph.Topology) Machine {
	return &flatPanicMachine{}
}
func (p flatPanicProtocol) NewMachines(g graph.Topology) ([]Machine, any) {
	ms := make([]Machine, g.N())
	for v := range ms {
		ms[v] = &flatPanicMachine{}
	}
	return ms, &flatPanicOps{proto: p}
}

type flatPanicMachine struct{}

func (m *flatPanicMachine) Emit(src *rng.Source) Signal {
	if src.Coin() {
		return Chan1
	}
	return Silent
}
func (m *flatPanicMachine) Update(sent, heard Signal) {}
func (m *flatPanicMachine) Randomize(src *rng.Source) {}

type flatPanicOps struct {
	proto flatPanicProtocol
	round int64
}

// Emit draws a coin for every visited vertex, so the frontier stays all
// active. With a positive proto.round it counts rounds on the stripe
// that starts at vertex 0 (the single stripe of the Sequential engine);
// the sharded test uses round 0, which panics on the first call of
// every stripe without counting.
func (o *flatPanicOps) Emit(env *FlatEnv, act, drewW []uint64, lo, hi int) {
	if o.proto.round > 0 && lo == 0 {
		o.round++
	}
	if o.proto.phase == "emit" && o.round == o.proto.round {
		panic("injected emit fault")
	}
	forWords(act, lo, hi, func(mi, b, start, end int) {
		for v := start; v < end; v++ {
			if env.Skip != nil && env.Skip.Get(v) {
				continue
			}
			if env.Srcs[v].Coin() {
				env.Sent[v] = Chan1
			} else {
				env.Sent[v] = Silent
			}
			drewW[mi] |= 1 << uint(b)
		}
	})
}

func (o *flatPanicOps) Update(env *FlatEnv, upd, changedW []uint64, lo, hi int) {
	if o.proto.phase == "update" && o.round == o.proto.round {
		panic("injected update fault")
	}
}

// TestFlatEnginePanicContainment mirrors TestEnginePanicContainment for
// the flat kernels of the single-stripe pipeline: a panic inside Emit
// or Update surfaces as a typed, sticky *RunError with Vertex == -1 (a
// kernel call has no single owning vertex), the poisoned network
// refuses checkpoints, and Close returns promptly.
func TestFlatEnginePanicContainment(t *testing.T) {
	g := graph.GNP(25, 0.2, rng.New(6))
	for _, phase := range []string{"emit", "update"} {
		t.Run(phase, func(t *testing.T) {
			net, err := NewNetwork(g, flatPanicProtocol{round: 4, phase: phase}, 1)
			if err != nil {
				t.Fatal(err)
			}
			var stepErr error
			for r := 1; r <= 10; r++ {
				if stepErr = net.TryStep(); stepErr != nil {
					break
				}
			}
			var rerr *RunError
			if !errors.As(stepErr, &rerr) {
				t.Fatalf("got %v, want *RunError", stepErr)
			}
			if rerr.Vertex != -1 || rerr.Round != 4 || rerr.Phase != phase || rerr.Engine != Sequential {
				t.Fatalf("RunError = vertex %d round %d phase %q engine %v, want -1/4/%q/sequential",
					rerr.Vertex, rerr.Round, rerr.Phase, rerr.Engine, phase)
			}
			if len(rerr.Stack) == 0 {
				t.Fatal("no stack captured")
			}
			if err := net.TryStep(); err != rerr {
				t.Fatalf("second TryStep returned %v, want the original *RunError", err)
			}
			if _, err := net.Checkpoint(); err == nil {
				t.Fatal("checkpoint of a failed network accepted")
			}
			closed := make(chan struct{})
			go func() { net.Close(); close(closed) }()
			select {
			case <-closed:
			case <-time.After(5 * time.Second):
				t.Fatal("Close deadlocked after a contained kernel panic")
			}
		})
	}
}

// TestFlatParallelEnginePanicContainment mirrors the single-stripe
// containment test for the sharded pipeline: a panic inside a worker's
// Emit/Update stripe is recovered BEFORE the barrier join (so
// the pool is never orphaned — Close must return promptly), surfaces as
// the same typed sticky *RunError with Vertex == -1, and poisons the
// network against checkpoints. With several workers every stripe may
// panic in the same round; the pool keeps the first error.
func TestFlatParallelEnginePanicContainment(t *testing.T) {
	g := graph.GNP(130, 0.05, rng.New(8))
	for _, phase := range []string{"emit", "update"} {
		t.Run(phase, func(t *testing.T) {
			// round 0 == counter start: the stripe kernels panic on their
			// very first invocation (see flatPanicOps.Emit).
			net, err := NewNetwork(g, flatPanicProtocol{round: 0, phase: phase}, 1,
				WithEngine(FlatParallel), WithWorkers(4))
			if err != nil {
				t.Fatal(err)
			}
			stepErr := net.TryStep()
			var rerr *RunError
			if !errors.As(stepErr, &rerr) {
				t.Fatalf("got %v, want *RunError", stepErr)
			}
			if rerr.Vertex != -1 || rerr.Round != 1 || rerr.Phase != phase || rerr.Engine != FlatParallel {
				t.Fatalf("RunError = vertex %d round %d phase %q engine %v, want -1/1/%q/FlatParallel",
					rerr.Vertex, rerr.Round, rerr.Phase, rerr.Engine, phase)
			}
			if len(rerr.Stack) == 0 {
				t.Fatal("no stack captured")
			}
			if err := net.TryStep(); err != rerr {
				t.Fatalf("second TryStep returned %v, want the original *RunError", err)
			}
			if _, err := net.Checkpoint(); err == nil {
				t.Fatal("checkpoint of a failed network accepted")
			}
			closed := make(chan struct{})
			go func() { net.Close(); close(closed) }()
			select {
			case <-closed:
			case <-time.After(5 * time.Second):
				t.Fatal("Close deadlocked after a contained stripe panic")
			}
		})
	}
}
