package stab

import (
	"fmt"
	"path/filepath"

	"repro/internal/beep"
	"repro/internal/ckpt"
	"repro/internal/graph"
	"repro/internal/rng"
)

// This file is the chaos kill–resume harness: it executes one scenario
// (optionally noisy, adversarial and churning) to completion recording
// every round's digest (beep.RoundDigest, the fingerprint beepd's round
// events and the distributed engine carry too), then repeatedly "kills"
// the same execution at randomized rounds, resumes each kill from the
// last auto-checkpoint (after a binary snapshot encode/decode roundtrip
// or a chain load, exactly what a crashed process would read back from
// disk), and asserts that every resumed round reproduces the reference
// digest bit-exactly. Any divergence — a field missing from the
// checkpoint, an RNG stream restored out of phase, an adversary
// forgotten — shows up as a digest mismatch at a specific round.

// ChaosChurn schedules one live-rewire event inside a chaos scenario:
// the event is applied immediately after round AfterRound completes,
// expressed against the graph as evolved by the preceding events.
type ChaosChurn struct {
	AfterRound int
	Event      graph.ChurnEvent
}

// ChaosScenario describes one execution to subject to kill–resume.
type ChaosScenario struct {
	Name     string
	Graph    *graph.Graph
	Protocol beep.Protocol
	Seed     uint64
	// Options configure every pass's network (stripe count, noise,
	// sleep, forced delta delivery, …). The harness appends its own
	// trace observer after them.
	Options []beep.Option
	// AdvPolicy/AdvVertices install adversaries at construction time
	// of a fresh pass only: resumed passes rely on Restore to reinstall
	// them — deliberately, so the harness catches checkpoints that
	// forget adversary state.
	AdvPolicy   beep.AdversaryPolicy
	AdvVertices []int
	// Churn is the (possibly empty) schedule of live rewires.
	Churn []ChaosChurn
	// Rounds is the fixed execution length; stabilization is irrelevant
	// here, trace equivalence is the property under test.
	Rounds int
	// ChainDir, when set, routes every crash pass's checkpoints through
	// an on-disk base + delta chain (internal/ckpt) in this directory,
	// and resumes from ckpt.Load — the incremental format under the same
	// kill–resume pressure as full snapshots. Empty takes full captures
	// and resumes from a binary snapshot encode/decode roundtrip.
	ChainDir string
}

// ChaosReport summarizes a kill–resume campaign over one scenario.
type ChaosReport struct {
	Scenario string
	// Kills is the number of kill points exercised; Resumes counts the
	// ones that resumed with bit-exact trace equivalence (a passing
	// campaign has Resumes == Kills).
	Kills   int
	Resumes int
	// MinKillRound/MaxKillRound bound the sampled kill rounds.
	MinKillRound int
	MaxKillRound int
	// ZeroCheckpointResumes counts kills that resumed from the round-0
	// checkpoint (kill before the first cadence multiple).
	ZeroCheckpointResumes int
	// DeltaResumes counts resumes whose loaded chain carried at least
	// one delta link (only in ChainDir mode) — proof the campaign
	// actually exercised incremental restore, not just bases.
	DeltaResumes int
}

// chaosPass parameterizes one execution of the scenario.
type chaosPass struct {
	// resume, when non-nil, restores this checkpoint instead of
	// initializing fresh.
	resume *beep.Checkpoint
	// stopAfter kills the run after this round completes (0: run all
	// Rounds).
	stopAfter int
	// ckEvery auto-checkpoints every K rounds, plus once at round 0
	// (0 disables).
	ckEvery int
	// chainPath, when set, persists the checkpoints as an on-disk
	// base + delta chain at this path instead of only in memory.
	chainPath string
}

// chaosTrace is the outcome of one pass: per-round hashes (index r holds
// round r's hash; rounds before a resumed pass's start are zero) and the
// last checkpoint taken (nil if none).
type chaosTrace struct {
	hashes []uint64
	lastCP *beep.Checkpoint
}

// replayGraph re-derives the scenario's graph as of the end of round
// upTo by replaying the churn schedule, mirroring exactly what the live
// pass does. It returns the graph and the index of the first unapplied
// event.
func replayGraph(s *ChaosScenario, upTo int) (*graph.Graph, int, error) {
	cur := s.Graph
	next := 0
	for next < len(s.Churn) && s.Churn[next].AfterRound <= upTo {
		g2, _, err := graph.ApplyEdits(cur, s.Churn[next].Event.Edits)
		if err != nil {
			return nil, 0, fmt.Errorf("stab: chaos replay event %d (%s): %w",
				next, s.Churn[next].Event.Label, err)
		}
		cur = g2
		next++
	}
	return cur, next, nil
}

// runPass executes the scenario once under the pass parameters.
func runPass(s *ChaosScenario, p chaosPass) (*chaosTrace, error) {
	if s.Rounds <= 0 {
		return nil, fmt.Errorf("stab: chaos scenario %q has no rounds", s.Name)
	}
	tr := &chaosTrace{hashes: make([]uint64, s.Rounds+1)}

	start := 0
	cur := s.Graph
	nextChurn := 0
	if p.resume != nil {
		start = p.resume.Round
		var err error
		if cur, nextChurn, err = replayGraph(s, start); err != nil {
			return nil, err
		}
	}

	opts := append(append([]beep.Option(nil), s.Options...),
		beep.WithObserver(func(round int, sent, heard []beep.Signal) {
			if round >= 0 && round < len(tr.hashes) {
				tr.hashes[round] = beep.RoundDigest(round, 0, len(sent), sent, heard)
			}
		}))
	// A fresh pass installs adversaries explicitly; a resumed pass must
	// get them back from the checkpoint alone.
	if p.resume == nil && len(s.AdvVertices) > 0 {
		opts = append(opts, beep.WithAdversaries(s.AdvPolicy, s.AdvVertices))
	}

	net, err := beep.NewNetwork(cur, s.Protocol, s.Seed, opts...)
	if err != nil {
		return nil, fmt.Errorf("stab: chaos %q: %w", s.Name, err)
	}
	defer net.Close()

	if p.resume != nil {
		if err := net.Restore(p.resume); err != nil {
			return nil, fmt.Errorf("stab: chaos %q resume: %w", s.Name, err)
		}
	} else {
		net.RandomizeAll()
	}

	var chain *ckpt.Writer
	if p.chainPath != "" {
		chain = ckpt.NewWriter(p.chainPath)
		defer chain.Close()
	}
	checkpoint := func() error {
		var err error
		if chain != nil {
			_, _, err = chain.Tick(net)
		} else {
			tr.lastCP, err = net.Checkpoint()
		}
		if err != nil {
			return fmt.Errorf("stab: chaos %q checkpoint: %w", s.Name, err)
		}
		return nil
	}
	// Round-0 checkpoint: a kill before the first cadence multiple must
	// still be resumable without re-randomizing (which would diverge).
	if p.ckEvery > 0 && p.resume == nil {
		if err := checkpoint(); err != nil {
			return nil, err
		}
	}

	stop := s.Rounds
	if p.stopAfter > 0 && p.stopAfter < stop {
		stop = p.stopAfter
	}
	for r := start + 1; r <= stop; r++ {
		if err := net.TryStep(); err != nil {
			return nil, fmt.Errorf("stab: chaos %q round %d: %w", s.Name, r, err)
		}
		// Churn strikes after the round completes, then the checkpoint
		// (if due) captures the post-churn state so resume rebuilds the
		// same topology.
		for nextChurn < len(s.Churn) && s.Churn[nextChurn].AfterRound == r {
			ev := s.Churn[nextChurn]
			g2, mapping, err := graph.ApplyEdits(cur, ev.Event.Edits)
			if err != nil {
				return nil, fmt.Errorf("stab: chaos %q event %d (%s): %w",
					s.Name, nextChurn, ev.Event.Label, err)
			}
			if err := net.Rewire(g2, mapping[:cur.N()]); err != nil {
				return nil, fmt.Errorf("stab: chaos %q event %d (%s): %w",
					s.Name, nextChurn, ev.Event.Label, err)
			}
			cur = g2
			nextChurn++
		}
		if p.ckEvery > 0 && r%p.ckEvery == 0 {
			if err := checkpoint(); err != nil {
				return nil, err
			}
		}
	}
	if chain != nil {
		tr.lastCP = chain.Tip()
	}
	return tr, nil
}

// RunChaos runs a full kill–resume campaign: one uninterrupted reference
// pass, then kills kill points sampled by src (uniform over the run,
// with churn-adjacent rounds double-weighted — the rounds where resume
// is most likely to go wrong). Each kill uses a fresh random checkpoint
// cadence in [1,8], reads the last checkpoint back through its on-disk
// format, restores it into a brand-new network, finishes the run, and
// compares every resumed round's digest against the reference. The
// first divergence aborts the campaign with an error naming the round.
func RunChaos(s ChaosScenario, kills int, src *rng.Source) (*ChaosReport, error) {
	if kills <= 0 {
		return nil, fmt.Errorf("stab: chaos campaign needs kills > 0")
	}
	if src == nil {
		return nil, fmt.Errorf("stab: chaos campaign needs a random source")
	}
	ref, err := runPass(&s, chaosPass{})
	if err != nil {
		return nil, err
	}

	// Kill-round candidates: every interior round once, churn-adjacent
	// rounds (the event round and its two neighbors) once more.
	var candidates []int
	for r := 1; r < s.Rounds; r++ {
		candidates = append(candidates, r)
	}
	for _, c := range s.Churn {
		for _, r := range []int{c.AfterRound - 1, c.AfterRound, c.AfterRound + 1} {
			if r >= 1 && r < s.Rounds {
				candidates = append(candidates, r)
			}
		}
	}
	if len(candidates) == 0 {
		return nil, fmt.Errorf("stab: chaos scenario %q too short to kill", s.Name)
	}

	rep := &ChaosReport{Scenario: s.Name, MinKillRound: s.Rounds}
	for k := 0; k < kills; k++ {
		kill := candidates[src.Intn(len(candidates))]
		ckEvery := 1 + src.Intn(8)
		if kill < rep.MinKillRound {
			rep.MinKillRound = kill
		}
		if kill > rep.MaxKillRound {
			rep.MaxKillRound = kill
		}
		rep.Kills++

		var chainPath string
		if s.ChainDir != "" {
			chainPath = filepath.Join(s.ChainDir, fmt.Sprintf("chain-k%d.ckpt", k))
		}
		crash, err := runPass(&s, chaosPass{stopAfter: kill, ckEvery: ckEvery, chainPath: chainPath})
		if err != nil {
			return rep, err
		}
		if crash.lastCP == nil {
			return rep, fmt.Errorf("stab: chaos %q kill@%d ck=%d: no checkpoint taken", s.Name, kill, ckEvery)
		}
		// The crash pass must itself match the reference up to the kill:
		// a checkpointing side effect on the execution would be a bug.
		for r := 1; r <= kill; r++ {
			if crash.hashes[r] != ref.hashes[r] {
				return rep, fmt.Errorf("stab: chaos %q kill@%d ck=%d: checkpointing perturbed round %d", s.Name, kill, ckEvery, r)
			}
		}

		// Serialize/deserialize roundtrip: resume from what a crashed
		// process would actually read back. Chain mode assembles base +
		// deltas from disk; full-capture mode round-trips a binary snapshot.
		var cp *beep.Checkpoint
		if chainPath != "" {
			loaded, info, err := ckpt.Load(chainPath)
			if err != nil {
				return rep, fmt.Errorf("stab: chaos %q kill@%d: %w", s.Name, kill, err)
			}
			if info.Deltas > 0 {
				rep.DeltaResumes++
			}
			cp = loaded
		} else {
			b, err := beep.EncodeSnapshot(crash.lastCP)
			if err == nil {
				cp, err = beep.DecodeSnapshot(b)
			}
			if err != nil {
				return rep, fmt.Errorf("stab: chaos %q kill@%d: %w", s.Name, kill, err)
			}
		}
		if cp.Round == 0 {
			rep.ZeroCheckpointResumes++
		}

		resumed, err := runPass(&s, chaosPass{resume: cp})
		if err != nil {
			return rep, err
		}
		for r := cp.Round + 1; r <= s.Rounds; r++ {
			if resumed.hashes[r] != ref.hashes[r] {
				return rep, fmt.Errorf("stab: chaos %q kill@%d resume@%d (ck=%d): trace diverged at round %d",
					s.Name, kill, cp.Round, ckEvery, r)
			}
		}
		rep.Resumes++
	}
	return rep, nil
}
