package stab

import (
	"fmt"

	"repro/internal/beep"
	"repro/internal/core"
	"repro/internal/graph"
)

// ChurnConfig describes a topology-churn storm: the network stabilizes,
// then each scheduled event is applied through a live Rewire and the
// harness measures how the protocol re-stabilizes from the surviving
// state — the "from any configuration" regime of Theorem 2.1 with the
// configuration produced by churn instead of an adversary's pen.
type ChurnConfig struct {
	Graph    *graph.Graph
	Protocol beep.Protocol
	Seed     uint64
	// Schedule is the event sequence, each expressed against the graph
	// as evolved by the preceding events (as the generators in package
	// graph produce them).
	Schedule []graph.ChurnEvent
	// RecoveryBudget bounds re-stabilization after each event (and the
	// initial warmup); 0 uses the core default budget for the graph.
	RecoveryBudget int
	// Dwell is the number of extra rounds to run after each recovery
	// before the next event hits (default 0): a storm with Dwell 0 is
	// back-to-back churn.
	Dwell int
	// Options are extra network options — engine, noise, sleep,
	// adversaries. Adversarial vertices are masked out of the legality
	// predicate and tracked through renumbering by the network itself.
	Options []beep.Option
}

// ChurnEventResult reports one churn event.
type ChurnEventResult struct {
	// Label is the generator's tag for the event.
	Label string
	// Survivors and Joiners count the vertices carried over and freshly
	// powered on by the event.
	Survivors int
	Joiners   int
	// Recovered reports whether the network re-stabilized within the
	// budget; RecoveryRounds is the rounds it took (or the whole budget
	// when it did not).
	Recovered      bool
	RecoveryRounds int
	// Adjustment is the superstabilization-style adjustment measure:
	// the number of surviving correct vertices *not* incident to the
	// topology change whose MIS membership nevertheless differs between
	// the pre-event and post-recovery legal configurations. A perfectly
	// local protocol would keep it at 0; it is only meaningful (and only
	// computed) when the event recovered.
	Adjustment int
}

// ChurnResult reports a full storm.
type ChurnResult struct {
	// InitialRounds is the warmup stabilization time from the random
	// initial configuration.
	InitialRounds int
	// Events has one entry per scheduled event, in order.
	Events []ChurnEventResult
	// Recovered counts the events that re-stabilized within budget.
	Recovered int
	// ObservedRounds and Availability summarize the post-warmup run:
	// the fraction of stepped rounds spent in a legal configuration.
	ObservedRounds int
	Availability   float64
	// FinalN is the vertex count after the last event.
	FinalN int
}

// MeasureChurn runs the storm. Every recovery is verified (the masked
// MIS must be legal on the correct induced subgraph); an event whose
// budget expires is recorded as unrecovered and the storm continues
// from whatever state the network is in — exactly what a deployment
// would do.
func MeasureChurn(cfg ChurnConfig) (*ChurnResult, error) {
	if cfg.Graph == nil || cfg.Protocol == nil {
		return nil, fmt.Errorf("stab: nil graph or protocol")
	}
	if len(cfg.Schedule) == 0 {
		return nil, fmt.Errorf("stab: empty churn schedule")
	}
	budget := cfg.RecoveryBudget
	if budget <= 0 {
		budget = core.DefaultMaxRounds(cfg.Graph.N())
	}

	net, err := beep.NewNetwork(cfg.Graph, cfg.Protocol, cfg.Seed, cfg.Options...)
	if err != nil {
		return nil, fmt.Errorf("stab: %w", err)
	}
	defer net.Close()
	net.RandomizeAll()

	// Refresh re-captures the adversary mask whenever a Rewire moves the
	// network's adversary epoch, so every verdict is on the correct
	// induced subgraph of the current topology.
	var probe core.State
	res := &ChurnResult{}
	legal := 0
	// stabilize steps until legality (counting legal rounds), verifying
	// the masked MIS on success.
	stabilize := func() (int, bool, error) {
		for r := 1; r <= budget; r++ {
			net.Step()
			res.ObservedRounds++
			if err := probe.Refresh(net); err != nil {
				return r, false, err
			}
			if probe.Stabilized() {
				legal++
				if err := probe.VerifyMIS(); err != nil {
					return r, false, fmt.Errorf("stab: stabilized illegally after churn: %w", err)
				}
				return r, true, nil
			}
		}
		return budget, false, nil
	}

	warm, ok, err := stabilize()
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("%w: warmup, %d rounds on %s", ErrNoRecovery, warm, cfg.Graph.Name())
	}
	res.InitialRounds = warm
	// Warmup rounds are not part of the observed window.
	res.ObservedRounds, legal = 0, 0

	cur := cfg.Graph
	for ei, ev := range cfg.Schedule {
		// Pre-event legal configuration (masked).
		preMIS := probe.MISMask()

		g2, mapping, err := graph.ApplyEdits(cur, ev.Edits)
		if err != nil {
			return nil, fmt.Errorf("stab: event %d (%s): %w", ei, ev.Label, err)
		}
		affOld := affectedByEdits(cur, ev.Edits)
		if err := net.Rewire(g2, mapping[:cur.N()]); err != nil {
			return nil, fmt.Errorf("stab: event %d (%s): %w", ei, ev.Label, err)
		}

		er := ChurnEventResult{Label: ev.Label}
		affNew := make([]bool, g2.N())
		survivor := make([]bool, g2.N())
		for old, w := range mapping[:cur.N()] {
			if w < 0 {
				continue
			}
			survivor[w] = true
			er.Survivors++
			if affOld[old] {
				affNew[w] = true
			}
		}
		for v := 0; v < g2.N(); v++ {
			if survivor[v] {
				continue
			}
			er.Joiners++
			affNew[v] = true
			for _, u := range g2.Neighbors(v) {
				affNew[u] = true
			}
		}

		rounds, ok, err := stabilize()
		if err != nil {
			return nil, fmt.Errorf("stab: event %d (%s): %w", ei, ev.Label, err)
		}
		er.RecoveryRounds, er.Recovered = rounds, ok
		if ok {
			res.Recovered++
			postMIS := probe.MISMask()
			for old, w := range mapping[:cur.N()] {
				if w < 0 || affNew[w] || probe.Excluded(w) {
					continue
				}
				if preMIS[old] != postMIS[w] {
					er.Adjustment++
				}
			}
			for r := 0; r < cfg.Dwell; r++ {
				net.Step()
				res.ObservedRounds++
				if err := probe.Refresh(net); err != nil {
					return nil, err
				}
				if probe.Stabilized() {
					legal++
				}
			}
		}
		res.Events = append(res.Events, er)
		cur = g2
	}
	if res.ObservedRounds > 0 {
		res.Availability = float64(legal) / float64(res.ObservedRounds)
	}
	res.FinalN = cur.N()
	return res, nil
}

// affectedByEdits marks the pre-event vertices incident to a batch of
// edits: endpoints of added/removed edges and the closed neighborhood of
// removed vertices. Edit endpoints referring to in-batch joiners (ids ≥
// g.N()) are outside the pre-event id space and are handled by the
// joiner-side marking in MeasureChurn.
func affectedByEdits(g *graph.Graph, edits []graph.Edit) []bool {
	aff := make([]bool, g.N())
	mark := func(v int) {
		if v >= 0 && v < g.N() {
			aff[v] = true
		}
	}
	for _, e := range edits {
		switch e.Kind {
		case graph.EditAddEdge, graph.EditDelEdge:
			mark(e.U)
			mark(e.V)
		case graph.EditDelVertex:
			mark(e.U)
			if e.U >= 0 && e.U < g.N() {
				for _, u := range g.Neighbors(e.U) {
					mark(int(u))
				}
			}
		}
	}
	return aff
}
