package stab

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/beep"
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/graph"
)

// Supervision errors, distinguishable with errors.Is.
var (
	// ErrDeadline reports that an attempt exceeded its wall-clock
	// deadline.
	ErrDeadline = errors.New("stab: wall-clock deadline exceeded")
	// ErrBudget reports that the final attempt exhausted its round
	// budget without stabilizing.
	ErrBudget = errors.New("stab: round budget exhausted without stabilization")
	// ErrCanceled reports that the run's context was canceled between
	// rounds. When a checkpoint path is configured the execution state
	// at the cancellation point has been persisted first, so a canceled
	// run is always resumable.
	ErrCanceled = errors.New("stab: run canceled")
)

// SupervisorConfig describes a supervised run: one execution of a core
// protocol to stabilization (or to a fixed round), wrapped with the
// crash-safety machinery a long robustness campaign needs — wall-clock
// deadlines, round-budget watchdogs, contained machine panics, bounded
// budget escalation, and integrity-checked auto-checkpointing.
// Legality is judged as core.Stabilize judges it: by a State refreshed
// after every round, on the correct induced subgraph when the Options
// install adversaries.
type SupervisorConfig struct {
	Graph    *graph.Graph
	Protocol beep.Protocol
	Seed     uint64
	// Init selects the initial configuration (default InitRandom, the
	// self-stabilization regime). Ignored when Resume is set: a resumed
	// run continues from the checkpointed state.
	Init core.InitMode
	// Options configure the network (stripe count, noise, sleep,
	// adversaries, observers).
	Options []beep.Option

	// Ctx, when non-nil, allows cooperative cancellation: it is checked
	// between rounds (rounds are short; interrupting one would tear the
	// engine state). On cancellation the supervisor takes a final
	// checkpoint (when CheckpointPath is set) and returns ErrCanceled
	// carrying the context's cause, so callers can distinguish a user
	// cancel from, say, a shutdown drain.
	Ctx context.Context

	// FixedRounds, when > 0, runs the execution to exactly this round
	// number instead of to stabilization: the mode service jobs and
	// chaos scenarios use, where trace equivalence — not convergence —
	// is the property of interest. Mutually exclusive with MaxRounds
	// and MaxRetries; deadline, cancellation and auto-checkpointing
	// apply unchanged. A resumed execution already at or past the
	// target completes immediately.
	FixedRounds int

	// MaxRounds is the round budget of the FIRST attempt; 0 selects
	// core.DefaultMaxRounds. Attempts that exhaust it are extended (not
	// restarted) with a doubled budget — re-running the same seed from
	// the same configuration would deterministically fail again,
	// whereas more rounds can succeed, and since the escalation extends
	// the same execution in-process there is nothing to wait for
	// between attempts.
	MaxRounds int
	// MaxRetries bounds the number of budget escalations after the
	// first attempt (default 0: one attempt). Each doubles the round
	// budget and the deadline.
	MaxRetries int
	// Deadline bounds each attempt's wall-clock time; 0 disables the
	// watchdog. The deadline is checked between rounds: rounds are
	// short, and interrupting a round would tear the engine state.
	Deadline time.Duration

	// CheckpointEvery auto-checkpoints the execution every K rounds
	// (0 disables). Checkpoints are sealed with the integrity hash and,
	// when CheckpointPath is set, persisted as a base + delta chain
	// (see internal/ckpt): full binary snapshots written atomically
	// (temp + fsync + rename), incremental dirty-word deltas appended
	// and fsynced in between, so a kill at any instant leaves a
	// restorable chain and steady-state durability costs O(dirty
	// words), not O(n).
	CheckpointEvery int
	// CheckpointPath is the file auto-checkpoints are written to (the
	// delta chain rides in the <path>.delta sidecar).
	CheckpointPath string
	// CheckpointObserver, when non-nil, is invoked after every
	// auto-checkpoint with its kind ("base" or "delta" for the
	// file-backed chain, "full" for the file-less in-memory path), the
	// bytes written to disk (0 for in-memory) and the capture + encode
	// + persist duration.
	CheckpointObserver func(kind string, bytes int, d time.Duration)

	// Resume, when non-nil, restores this checkpoint instead of
	// applying Init: the execution continues exactly where it stopped.
	Resume *beep.Checkpoint

	// now overrides the clock in tests.
	now func() time.Time
}

// SupervisorResult reports a supervised run.
type SupervisorResult struct {
	// Rounds is the network's round counter at stabilization — for a
	// resumed run this includes the rounds executed before the
	// checkpoint, so it is comparable across interrupted and
	// uninterrupted executions.
	Rounds int
	// MIS and MISSize describe the verified stabilized set (masked to
	// the correct induced subgraph when adversaries are installed).
	MIS     []bool
	MISSize int
	// Attempts counts budget episodes (1 = no escalation was needed).
	Attempts int
	// Resumed reports whether the run started from a checkpoint.
	Resumed bool
	// Stabilized reports whether the final configuration is legal. A
	// stabilization run (FixedRounds == 0) only returns with
	// Stabilized == true; a fixed-length run reports whatever the
	// execution reached, and MIS/MISSize are populated only when it
	// happens to have stabilized.
	Stabilized bool
	// Checkpoints counts the auto-checkpoints taken.
	Checkpoints int
	// LastCheckpoint is the most recent auto-checkpoint (nil if none
	// was taken), so callers can chain supervision without re-reading
	// the file.
	LastCheckpoint *beep.Checkpoint
}

// Supervisor wraps one run with deadlines, watchdogs, panic containment
// and checkpointing. Build with NewSupervisor, execute with Run.
type Supervisor struct {
	cfg SupervisorConfig
}

// NewSupervisor validates the configuration.
func NewSupervisor(cfg SupervisorConfig) (*Supervisor, error) {
	if cfg.Graph == nil || cfg.Protocol == nil {
		return nil, fmt.Errorf("stab: supervisor needs a graph and a protocol")
	}
	if cfg.MaxRounds < 0 || cfg.MaxRetries < 0 || cfg.CheckpointEvery < 0 || cfg.FixedRounds < 0 {
		return nil, fmt.Errorf("stab: negative supervisor budget (maxRounds=%d maxRetries=%d checkpointEvery=%d fixedRounds=%d)",
			cfg.MaxRounds, cfg.MaxRetries, cfg.CheckpointEvery, cfg.FixedRounds)
	}
	if cfg.FixedRounds > 0 && (cfg.MaxRounds > 0 || cfg.MaxRetries > 0) {
		return nil, fmt.Errorf("stab: FixedRounds is exclusive with MaxRounds/MaxRetries (fixedRounds=%d maxRounds=%d maxRetries=%d)",
			cfg.FixedRounds, cfg.MaxRounds, cfg.MaxRetries)
	}
	if cfg.Deadline < 0 {
		return nil, fmt.Errorf("stab: negative deadline %v", cfg.Deadline)
	}
	if cfg.Init == 0 {
		cfg.Init = core.InitRandom
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	return &Supervisor{cfg: cfg}, nil
}

// Run executes the supervised run. The outcome is one of:
//
//   - success: the network stabilized (legality verified on the correct
//     induced subgraph) within some attempt's budget and deadline, or a
//     fixed-length run reached round FixedRounds;
//   - *beep.RunError (wrapped): a machine panicked; the panic was
//     contained by the engine, the barrier survived, and the error
//     names the vertex, round and phase. Retries do not apply — the
//     same deterministic execution would panic again;
//   - ErrBudget / ErrDeadline (wrapped): every attempt, including
//     MaxRetries budget escalations, was exhausted. The last
//     auto-checkpoint (if any) has been persisted, so a later run can
//     resume instead of restarting.
func (s *Supervisor) Run() (*SupervisorResult, error) {
	cfg := s.cfg
	net, err := beep.NewNetwork(cfg.Graph, cfg.Protocol, cfg.Seed, cfg.Options...)
	if err != nil {
		return nil, fmt.Errorf("stab: %w", err)
	}
	defer net.Close()

	res := &SupervisorResult{}
	if cfg.Resume != nil {
		if err := net.Restore(cfg.Resume); err != nil {
			return nil, fmt.Errorf("stab: resume: %w", err)
		}
		res.Resumed = true
	} else if err := core.ApplyInit(net, cfg.Init); err != nil {
		return nil, fmt.Errorf("stab: %w", err)
	}

	// The file-backed path persists a base + delta chain through the
	// chain writer's tick (a base when the compaction policy asks for
	// one, an O(dirty words) delta otherwise), which also keeps the chain
	// tip LastCheckpoint reports; the file-less path keeps full captures.
	var chain *ckpt.Writer
	if cfg.CheckpointPath != "" {
		chain = ckpt.NewWriter(cfg.CheckpointPath)
		defer chain.Close()
	}
	checkpoint := func() error {
		start := cfg.now()
		kind, nbytes := "full", 0
		var err error
		if chain != nil {
			kind, nbytes, err = chain.Tick(net)
		} else {
			var cp *beep.Checkpoint
			if cp, err = net.Checkpoint(); err == nil {
				res.LastCheckpoint = cp
			}
		}
		if err != nil {
			return fmt.Errorf("stab: auto-checkpoint: %w", err)
		}
		res.Checkpoints++
		if cfg.CheckpointObserver != nil {
			cfg.CheckpointObserver(kind, nbytes, cfg.now().Sub(start))
		}
		return nil
	}

	// canceled implements the cooperative stop path: between rounds, a
	// canceled context checkpoints the execution (when a path is
	// configured, so the run is resumable) and surfaces ErrCanceled with
	// the cancellation cause.
	canceled := func() error {
		if cfg.Ctx == nil || cfg.Ctx.Err() == nil {
			return nil
		}
		cause := context.Cause(cfg.Ctx)
		if cfg.CheckpointPath != "" {
			if cerr := checkpoint(); cerr != nil {
				return fmt.Errorf("%w at round %d on %s: %v (cancel checkpoint failed: %v)",
					ErrCanceled, net.Round(), net.Graph().Name(), cause, cerr)
			}
		}
		return fmt.Errorf("%w at round %d on %s: %v", ErrCanceled, net.Round(), net.Graph().Name(), cause)
	}

	// The one round loop serves both modes: a stabilization run stops
	// at the first legal round (legality is tested before the first
	// round and after every round, like core.Stabilize); a fixed-length
	// run stops at round FixedRounds and only then reads legality.
	var probe core.State
	done := func() (bool, error) {
		if cfg.FixedRounds > 0 {
			return net.Round() >= cfg.FixedRounds, nil
		}
		if err := probe.Refresh(net); err != nil {
			return false, fmt.Errorf("stab: %w", err)
		}
		return probe.Stabilized(), nil
	}
	// finish reports the final configuration; MIS is populated only
	// when it is legal, which a stabilization run always is.
	finish := func() (*SupervisorResult, error) {
		if chain != nil {
			res.LastCheckpoint = chain.Tip() // the sealed chain tip
		}
		if err := probe.Refresh(net); err != nil {
			return nil, fmt.Errorf("stab: %w", err)
		}
		res.Rounds = net.Round()
		if probe.Stabilized() {
			if err := probe.VerifyMIS(); err != nil {
				return nil, fmt.Errorf("stab: stabilized illegally: %w", err)
			}
			res.Stabilized = true
			res.MIS = probe.MISMask()
			res.MISSize = graph.CountTrue(res.MIS)
		}
		return res, nil
	}

	// Cancel-before-start still checkpoints the (initialized or
	// restored) round-zero state, so even a run that never stepped
	// resumes deterministically.
	if err := canceled(); err != nil {
		return nil, err
	}
	// A resumed or already-legal configuration (or a resumed run at or
	// past its fixed target) costs zero rounds.
	res.Attempts = 1
	if ok, err := done(); err != nil {
		return nil, err
	} else if ok {
		return finish()
	}

	budget := cfg.MaxRounds
	if budget <= 0 {
		budget = core.DefaultMaxRounds(cfg.Graph.N())
	}
	deadline := cfg.Deadline
	for attempt := 0; ; attempt++ {
		res.Attempts = attempt + 1
		start := cfg.now()
		for r := 0; cfg.FixedRounds > 0 || r < budget; r++ {
			if err := canceled(); err != nil {
				return nil, err
			}
			if err := net.TryStep(); err != nil {
				var rerr *beep.RunError
				if errors.As(err, &rerr) {
					return nil, fmt.Errorf("stab: contained machine panic (attempt %d): %w", attempt+1, rerr)
				}
				return nil, fmt.Errorf("stab: %w", err)
			}
			if cfg.CheckpointEvery > 0 && net.Round()%cfg.CheckpointEvery == 0 {
				if err := checkpoint(); err != nil {
					return nil, err
				}
			}
			ok, err := done()
			if err != nil {
				return nil, err
			}
			if ok {
				return finish()
			}
			if deadline > 0 && cfg.now().Sub(start) > deadline {
				if attempt >= cfg.MaxRetries {
					return nil, fmt.Errorf("%w: attempt %d ran %v (budget %v) at round %d on %s",
						ErrDeadline, attempt+1, cfg.now().Sub(start), deadline, net.Round(), net.Graph().Name())
				}
				break // escalate
			}
		}
		if attempt >= cfg.MaxRetries {
			return nil, fmt.Errorf("%w: %d attempt(s), final budget %d rounds, round %d on %s",
				ErrBudget, attempt+1, budget, net.Round(), net.Graph().Name())
		}
		// Escalate: extend the SAME execution with twice the budget (and
		// twice the wall-clock) — deterministic replay of a failed
		// attempt cannot succeed, continuation can.
		budget *= 2
		deadline *= 2
	}
}
