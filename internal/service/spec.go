package service

import (
	"fmt"
	"time"

	"repro/internal/beep"
	"repro/internal/core"
	"repro/internal/famspec"
	"repro/internal/graph"
	"repro/internal/rng"
)

// famSeedSalt matches the beepmis CLI's graph-seed derivation, so a job
// spec and the equivalent command line build the identical topology.
const famSeedSalt = 0x9e37

// Spec bounds: admission control rejects out-of-range requests with a
// 400 before any memory is committed, so one misbehaving client cannot
// ask the daemon to materialize an absurd run.
const (
	// MaxSpecRounds bounds both fixed-length runs and stabilization
	// budgets.
	MaxSpecRounds = 50_000_000
	// MaxRoundDelay bounds the per-round pacing delay.
	MaxRoundDelay = 5 * time.Second
	// MaxSpecRetries bounds budget escalations.
	MaxSpecRetries = 16
)

// JobSpec is the client-supplied description of one simulation job: the
// graph, the protocol and the supervision envelope. It is persisted
// verbatim in the job directory, and every field is deterministic given
// the spec — two jobs with equal specs execute bit-identical runs,
// which is the property the crash-recovery proof rests on.
type JobSpec struct {
	// Name is an optional display label.
	Name string `json:"name,omitempty"`
	// Tenant attributes the job to a client for queue accounting;
	// empty means "default".
	Tenant string `json:"tenant,omitempty"`

	// Family is a graph family spec ("gnp:256:0.05", "grid:32:32", …;
	// see famspec.Help). The graph is derived deterministically from
	// Family and Seed.
	Family string `json:"family"`
	// Alg names the protocol (core.ProtocolNames); default
	// "alg1-known-delta".
	Alg string `json:"alg,omitempty"`
	// Init is the initial configuration: fresh | random (default) |
	// adversarial | zero.
	Init string `json:"init,omitempty"`
	// Seed is the root random seed.
	Seed uint64 `json:"seed"`
	// Noise applies symmetric listening noise (loss = false-positive =
	// Noise).
	Noise float64 `json:"noise,omitempty"`

	// Rounds > 0 runs the execution to exactly that round (the fixed-
	// length mode benchmark and observation workloads use); 0 runs to
	// stabilization under MaxRounds/MaxRetries.
	Rounds int `json:"rounds,omitempty"`
	// MaxRounds is the stabilization round budget of the first attempt
	// (0 = generous default for the graph).
	MaxRounds int `json:"maxRounds,omitempty"`
	// MaxRetries bounds budget escalations after the first attempt.
	MaxRetries int `json:"maxRetries,omitempty"`
	// DeadlineMS bounds each attempt's wall-clock time in milliseconds
	// (0 = none).
	DeadlineMS int `json:"deadlineMs,omitempty"`
	// CheckpointEvery auto-checkpoints every K rounds into the job
	// directory; 0 selects the daemon default. Lower is tighter
	// recovery, higher is less I/O.
	CheckpointEvery int `json:"checkpointEvery,omitempty"`
	// RoundDelayMS throttles the run to at most one round per this many
	// milliseconds — pacing for live observation and demos; it shapes
	// wall-clock only, never the trace.
	RoundDelayMS int `json:"roundDelayMs,omitempty"`
}

// Validate normalizes defaults and rejects malformed or out-of-bound
// specs. The graph family is resolved lazily at run time (building a
// large graph is the job's work, not admission's); everything else is
// checked here so a bad spec fails with a 400 instead of a failed job.
func (s *JobSpec) Validate() error {
	if s.Tenant == "" {
		s.Tenant = "default"
	}
	if s.Alg == "" {
		s.Alg = "alg1-known-delta"
	}
	if s.Family == "" {
		return fmt.Errorf("spec: family is required (e.g. %q)", "gnp:256:0.05")
	}
	if _, err := core.ProtocolByName(s.Alg); err != nil {
		return fmt.Errorf("spec: %w", err)
	}
	if _, err := core.InitByName(s.Init); err != nil {
		return fmt.Errorf("spec: %w", err)
	}
	if s.Noise < 0 || s.Noise >= 1 {
		return fmt.Errorf("spec: noise %v out of range [0, 1)", s.Noise)
	}
	if s.Rounds < 0 || s.Rounds > MaxSpecRounds {
		return fmt.Errorf("spec: rounds %d out of range [0, %d]", s.Rounds, MaxSpecRounds)
	}
	if s.MaxRounds < 0 || s.MaxRounds > MaxSpecRounds {
		return fmt.Errorf("spec: maxRounds %d out of range [0, %d]", s.MaxRounds, MaxSpecRounds)
	}
	if s.Rounds > 0 && (s.MaxRounds > 0 || s.MaxRetries > 0) {
		return fmt.Errorf("spec: rounds (fixed-length) is exclusive with maxRounds/maxRetries")
	}
	if s.MaxRetries < 0 || s.MaxRetries > MaxSpecRetries {
		return fmt.Errorf("spec: maxRetries %d out of range [0, %d]", s.MaxRetries, MaxSpecRetries)
	}
	if s.DeadlineMS < 0 {
		return fmt.Errorf("spec: negative deadlineMs %d", s.DeadlineMS)
	}
	if s.CheckpointEvery < 0 {
		return fmt.Errorf("spec: negative checkpointEvery %d", s.CheckpointEvery)
	}
	if d := time.Duration(s.RoundDelayMS) * time.Millisecond; d < 0 || d > MaxRoundDelay {
		return fmt.Errorf("spec: roundDelayMs %d out of range [0, %d]", s.RoundDelayMS, MaxRoundDelay/time.Millisecond)
	}
	return nil
}

// resolve builds the run ingredients from the validated spec.
func (s *JobSpec) resolve() (*graph.Graph, beep.Protocol, core.InitMode, error) {
	g, err := famspec.Parse(s.Family, rng.New(s.Seed^famSeedSalt))
	if err != nil {
		return nil, nil, 0, fmt.Errorf("graph: %w", err)
	}
	proto, err := core.ProtocolByName(s.Alg)
	if err != nil {
		return nil, nil, 0, err
	}
	init, err := core.InitByName(s.Init)
	if err != nil {
		return nil, nil, 0, err
	}
	return g, proto, init, nil
}
