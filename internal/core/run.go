package core

import (
	"errors"
	"fmt"

	"repro/internal/beep"
	"repro/internal/graph"
)

// ErrNotStabilized reports that an execution hit its round budget before
// reaching a legal configuration.
var ErrNotStabilized = errors.New("core: execution did not stabilize within the round budget")

// InitMode selects the initial configuration of a run.
type InitMode int

const (
	// InitFresh starts every vertex at ℓmax(v), the neutral silent state
	// (comparable to a clean boot).
	InitFresh InitMode = iota + 1
	// InitRandom draws every level uniformly from the vertex's state
	// space: the "arbitrary initial configuration" of self-stabilization.
	InitRandom
	// InitAdversarial uses a crafted worst-case configuration: every
	// vertex claims MIS membership simultaneously (ℓ = -ℓmax for
	// Algorithm 1, ℓ = 0 for Algorithm 2), the maximal mutual
	// inconsistency a fault can produce.
	InitAdversarial
	// InitZero starts every vertex at level 0 (all vertices beeping with
	// probability 1), another synchronized pathological configuration.
	InitZero
)

// String names the init mode for experiment tables.
func (m InitMode) String() string {
	switch m {
	case InitFresh:
		return "fresh"
	case InitRandom:
		return "random"
	case InitAdversarial:
		return "adversarial"
	case InitZero:
		return "zero"
	default:
		return fmt.Sprintf("init(%d)", int(m))
	}
}

// RunConfig describes one execution of a core algorithm to stabilization.
type RunConfig struct {
	Graph *graph.Graph
	// Protocol must be *Alg1 or *Alg2 (anything whose machines implement
	// Leveled).
	Protocol beep.Protocol
	Seed     uint64
	Init     InitMode
	// MaxRounds bounds the execution; 0 selects DefaultMaxRounds.
	// Stabilization is tested before the first round and after every
	// round (see Stabilize), so Rounds is exact.
	MaxRounds int
	Engine    beep.Engine
	// Observer, when non-nil, receives each round's signals.
	Observer func(round int, sent, heard []beep.Signal)
	// Noise, when non-zero, makes listening unreliable (see beep.Noise).
	// Under noise, stabilization may hold only intermittently; Run still
	// stops at the first legal snapshot.
	Noise beep.Noise
	// Sleep, when non-zero, makes vertices miss rounds (see beep.Sleep).
	Sleep beep.Sleep
}

// RunResult reports a stabilized execution.
type RunResult struct {
	// Rounds is the number of rounds until S_t = V was first observed.
	Rounds int
	// MIS is the stabilized maximal independent set.
	MIS []bool
	// MISSize is the number of MIS vertices.
	MISSize int
}

// DefaultMaxRounds is the round budget every run-to-legal driver uses
// when given none: 1000·(log2 n + 1) + 1000 rounds, far above the
// w.h.p. O(log n) bounds.
func DefaultMaxRounds(n int) int {
	log := 0
	for x := n; x > 1; x >>= 1 {
		log++
	}
	return 1000*(log+1) + 1000
}

// Run executes the configured instance until the paper's stabilization
// condition holds, then verifies the resulting MIS against the graph.
// It returns ErrNotStabilized (wrapped) if the budget is exhausted.
func Run(cfg RunConfig) (*RunResult, error) {
	if cfg.Graph == nil {
		return nil, fmt.Errorf("core: nil graph")
	}
	if cfg.Protocol == nil {
		return nil, fmt.Errorf("core: nil protocol")
	}
	engine := cfg.Engine
	if engine == 0 {
		engine = beep.Sequential
	}
	opts := []beep.Option{beep.WithEngine(engine), beep.WithNoise(cfg.Noise), beep.WithSleep(cfg.Sleep)}
	if cfg.Observer != nil {
		opts = append(opts, beep.WithObserver(cfg.Observer))
	}
	net, err := beep.NewNetwork(cfg.Graph, cfg.Protocol, cfg.Seed, opts...)
	if err != nil {
		return nil, fmt.Errorf("core: build network: %w", err)
	}
	defer net.Close()

	if err := ApplyInit(net, cfg.Init); err != nil {
		return nil, err
	}
	var probe State
	rounds, err := Stabilize(net, &probe, cfg.MaxRounds)
	if err != nil {
		return nil, err
	}
	mis := probe.MISMask()
	return &RunResult{Rounds: rounds, MIS: mis, MISSize: graph.CountTrue(mis)}, nil
}

// ApplyInit installs the initial configuration on a freshly built
// network whose machines implement Leveled. It is the one
// implementation of InitMode: every driver that builds its network
// directly (stab.Supervisor, exp.RunReplicated, repro.NewInstance, the
// CLIs) calls it, so all of them match core.Run exactly.
func ApplyInit(net *beep.Network, mode InitMode) error {
	switch mode {
	case InitFresh, 0:
		// Machines already start at ℓmax.
		return nil
	case InitRandom:
		net.RandomizeAll()
		return nil
	case InitAdversarial:
		for v := 0; v < net.N(); v++ {
			m, ok := net.Machine(v).(Leveled)
			if !ok {
				return fmt.Errorf("core: init %v: machine %T has no levels", mode, net.Machine(v))
			}
			// SetLevel clamps: -cap for Algorithm 1, 0 for Algorithm 2 —
			// in both cases the "I am in the MIS" extreme.
			m.SetLevel(-m.Cap())
		}
		return nil
	case InitZero:
		for v := 0; v < net.N(); v++ {
			m, ok := net.Machine(v).(Leveled)
			if !ok {
				return fmt.Errorf("core: init %v: machine %T has no levels", mode, net.Machine(v))
			}
			m.SetLevel(0)
		}
		return nil
	default:
		return fmt.Errorf("core: unknown init mode %v", mode)
	}
}

// Stabilize is the run-to-legal driver: it steps net until probe
// reports S_t = V (the paper's stabilization condition, on the correct
// induced subgraph when adversaries are installed), then verifies the
// MIS on that same probe. Like Network.Run it tests legality before the
// first round and after every round, so it returns the exact number of
// rounds this call executed. maxRounds ≤ 0 selects DefaultMaxRounds;
// when the budget runs out it returns ErrNotStabilized, wrapped with the
// stable count. A nil probe uses a fresh one; callers pass their own to
// read the stabilized set (MISMask) afterwards, or to keep one detector
// warm across calls on the same network.
func Stabilize(net *beep.Network, probe *State, maxRounds int) (int, error) {
	if probe == nil {
		probe = new(State)
	}
	if maxRounds <= 0 {
		maxRounds = DefaultMaxRounds(net.N())
	}
	var err error
	rounds, ok := net.Run(maxRounds, func() bool {
		err = probe.Refresh(net)
		return err != nil || probe.Stabilized()
	})
	if err != nil {
		return rounds, err
	}
	if !ok {
		return rounds, fmt.Errorf("%w: %d rounds on %s (n=%d, stable %d/%d)",
			ErrNotStabilized, rounds, net.Graph().Name(), net.N(), probe.StableCount(), net.N())
	}
	if err := probe.VerifyMIS(); err != nil {
		return rounds, fmt.Errorf("core: stabilized to an illegal state: %w", err)
	}
	return rounds, nil
}
