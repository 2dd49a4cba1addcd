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
// protocol to stabilization, wrapped with the crash-safety machinery a
// long robustness campaign needs — wall-clock deadlines, round-budget
// watchdogs, contained machine panics, bounded retries with budget
// escalation, and integrity-checked auto-checkpointing.
type SupervisorConfig struct {
	Graph    *graph.Graph
	Protocol beep.Protocol
	Seed     uint64
	// Init selects the initial configuration (default InitRandom, the
	// self-stabilization regime). Ignored when Resume is set: a resumed
	// run continues from the checkpointed state.
	Init   core.InitMode
	Engine beep.Engine
	// Options are extra network options (noise, sleep, adversaries).
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

	// MaxRounds is the round budget of the FIRST attempt; 0 selects the
	// default budget for the graph. Attempts that exhaust it are
	// extended (not restarted) with an escalated budget — re-running
	// the same seed from the same configuration would deterministically
	// fail again, whereas more rounds can succeed.
	MaxRounds int
	// MaxRetries bounds the number of budget escalations after the
	// first attempt (default 0: one attempt).
	MaxRetries int
	// EscalateFactor multiplies the round budget (and the deadline) on
	// each retry; values < 1 (including 0) default to 2.
	EscalateFactor float64
	// RetryBackoff, when > 0, sleeps before each escalated attempt,
	// doubling per retry: backoff, 2·backoff, 4·backoff, … capped at
	// MaxRetryBackoff. On shared machines a failed attempt often means
	// contention, and hammering retries back-to-back makes it worse.
	RetryBackoff time.Duration
	// MaxRetryBackoff caps the doubling (0 defaults to 16·RetryBackoff).
	MaxRetryBackoff time.Duration
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

	// now overrides the clock in tests; sleep overrides the retry
	// backoff sleep.
	now   func() time.Time
	sleep func(time.Duration)
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
	if cfg.RetryBackoff < 0 || cfg.MaxRetryBackoff < 0 {
		return nil, fmt.Errorf("stab: negative retry backoff (retryBackoff=%v maxRetryBackoff=%v)",
			cfg.RetryBackoff, cfg.MaxRetryBackoff)
	}
	if cfg.MaxRetryBackoff == 0 {
		cfg.MaxRetryBackoff = 16 * cfg.RetryBackoff
	}
	if cfg.EscalateFactor < 1 {
		cfg.EscalateFactor = 2
	}
	if cfg.Init == 0 {
		cfg.Init = core.InitRandom
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	return &Supervisor{cfg: cfg}, nil
}

// ReadCheckpointFile loads and validates a checkpoint written by a
// supervised run (or WriteCheckpointFile): the base snapshot — v3
// binary or v2 JSON, auto-detected — plus any delta chain in the
// <path>.delta sidecar, every link hash-verified before use.
func ReadCheckpointFile(path string) (*beep.Checkpoint, error) {
	cp, _, err := ckpt.Load(path)
	if err != nil {
		return nil, fmt.Errorf("stab: read checkpoint: %w", err)
	}
	return cp, nil
}

// WriteCheckpointFile atomically persists a full checkpoint as a fresh
// chain base (v3 binary snapshot), truncating any delta sidecar so a
// stale chain can never pair with the new base.
func WriteCheckpointFile(path string, c *beep.Checkpoint) error {
	w := ckpt.NewWriter(path)
	defer w.Close()
	if _, err := w.WriteBase(c); err != nil {
		return fmt.Errorf("stab: write checkpoint: %w", err)
	}
	return nil
}

// Run executes the supervised run. The outcome is one of:
//
//   - success: the network stabilized (legality verified on the correct
//     induced subgraph) within some attempt's budget and deadline;
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
	net, err := beep.NewNetwork(cfg.Graph, cfg.Protocol, cfg.Seed,
		append([]beep.Option{beep.WithEngine(engineOrDefault(cfg.Engine))}, cfg.Options...)...)
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

	var probe core.State
	excludeAdversaries(&probe, net)
	stabilized := func() (bool, error) {
		if err := probe.Refresh(net); err != nil {
			return false, err
		}
		return probe.Stabilized(), nil
	}

	budget := cfg.MaxRounds
	if budget <= 0 {
		budget = defaultBudget(cfg.Graph.N())
	}
	deadline := cfg.Deadline

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
	// sealLast reports the chain tip, sealed, as the last checkpoint.
	sealLast := func() {
		if chain != nil {
			res.LastCheckpoint = chain.Tip()
		}
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

	finish := func() (*SupervisorResult, error) {
		sealLast()
		if err := probe.Refresh(net); err != nil {
			return nil, err
		}
		if err := probe.VerifyMIS(); err != nil {
			return nil, fmt.Errorf("stab: stabilized illegally: %w", err)
		}
		res.Rounds = net.Round()
		res.Stabilized = true
		res.MIS = probe.MISMask()
		res.MISSize = 0
		for _, in := range res.MIS {
			if in {
				res.MISSize++
			}
		}
		return res, nil
	}

	// Cancel-before-start still checkpoints the (initialized or
	// restored) round-zero state, so even a run that never stepped
	// resumes deterministically.
	if err := canceled(); err != nil {
		return nil, err
	}

	if cfg.FixedRounds > 0 {
		return s.runFixed(net, res, &probe, checkpoint, canceled, sealLast)
	}

	// A resumed or already-legal configuration costs zero rounds.
	if ok, err := stabilized(); err == nil && ok {
		res.Attempts = 1
		return finish()
	}

	for attempt := 0; ; attempt++ {
		res.Attempts = attempt + 1
		start := cfg.now()
		for r := 0; r < budget; r++ {
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
			ok, err := stabilized()
			if err != nil {
				return nil, fmt.Errorf("stab: %w", err)
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
		// Back off before the escalated attempt (capped exponential),
		// then re-check cancellation: a cancel that landed during the
		// sleep must not start another attempt.
		if cfg.RetryBackoff > 0 {
			s.retrySleep(retryBackoffDelay(cfg.RetryBackoff, cfg.MaxRetryBackoff, attempt))
			if err := canceled(); err != nil {
				return nil, err
			}
		}
		// Escalate: extend the SAME execution with a larger budget (and
		// proportionally more wall-clock) — deterministic replay of a
		// failed attempt cannot succeed, continuation can.
		budget = int(float64(budget) * cfg.EscalateFactor)
		if budget < 1 {
			budget = 1
		}
		deadline = time.Duration(float64(deadline) * cfg.EscalateFactor)
	}
}

// runFixed executes a fixed-length run: exactly to round
// cfg.FixedRounds, with cancellation, deadline and auto-checkpointing
// but no stabilization stop and no budget escalation. The result
// reports whether the final configuration happens to be legal; MIS is
// populated only then.
func (s *Supervisor) runFixed(net *beep.Network, res *SupervisorResult, probe *core.State,
	checkpoint func() error, canceled func() error, sealLast func()) (*SupervisorResult, error) {
	cfg := s.cfg
	res.Attempts = 1
	start := cfg.now()
	for net.Round() < cfg.FixedRounds {
		if err := canceled(); err != nil {
			return nil, err
		}
		if err := net.TryStep(); err != nil {
			var rerr *beep.RunError
			if errors.As(err, &rerr) {
				return nil, fmt.Errorf("stab: contained machine panic (fixed run): %w", rerr)
			}
			return nil, fmt.Errorf("stab: %w", err)
		}
		if cfg.CheckpointEvery > 0 && net.Round()%cfg.CheckpointEvery == 0 {
			if err := checkpoint(); err != nil {
				return nil, err
			}
		}
		if cfg.Deadline > 0 && cfg.now().Sub(start) > cfg.Deadline {
			return nil, fmt.Errorf("%w: fixed run at round %d of %d on %s",
				ErrDeadline, net.Round(), cfg.FixedRounds, net.Graph().Name())
		}
	}
	sealLast()
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
		for _, in := range res.MIS {
			if in {
				res.MISSize++
			}
		}
	}
	return res, nil
}

// retryBackoffDelay is the capped-exponential schedule: base << attempt
// bounded by max (attempt counts completed attempts, so the first retry
// waits base).
func retryBackoffDelay(base, max time.Duration, attempt int) time.Duration {
	d := base
	for i := 0; i < attempt; i++ {
		d *= 2
		if d >= max {
			return max
		}
	}
	if d > max {
		return max
	}
	return d
}

// retrySleep waits out a backoff delay, honoring the injected test hook
// and waking early on context cancellation.
func (s *Supervisor) retrySleep(d time.Duration) {
	if s.cfg.sleep != nil {
		s.cfg.sleep(d)
		return
	}
	if s.cfg.Ctx != nil {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-t.C:
		case <-s.cfg.Ctx.Done():
		}
		return
	}
	time.Sleep(d)
}

// engineOrDefault maps the zero Engine to Sequential.
func engineOrDefault(e beep.Engine) beep.Engine {
	if e == 0 {
		return beep.Sequential
	}
	return e
}
