package exp

import (
	"fmt"

	"repro/internal/beep"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/stab"
)

// chaosCombos builds the E17 fault-family axis: three regimes the chaos
// test matrix uses (noisy listening, adversarial beepers, and live
// topology churn carrying an adversary through the renumbering), plus
// its fault-free churn on a graph wide enough for several stripes.
func chaosCombos(cfg Config, rounds int) []stab.ChaosScenario {
	proto := func() beep.Protocol {
		return core.NewAlg1(core.KnownMaxDegreeExact(core.DefaultC1KnownDelta))
	}
	noise := stab.ChaosScenario{
		Name:     "noise",
		Graph:    graph.GNPAvgDegree(32, 4, rng.New(cellSeed(cfg.Seed, 17, 1))),
		Protocol: proto(),
		Seed:     cellSeed(cfg.Seed, 17, 2),
		Options:  []beep.Option{beep.WithNoise(beep.Noise{PLoss: 0.05, PFalse: 0.02}), beep.WithSleep(beep.Sleep{P: 0.02})},
		Rounds:   rounds,
	}
	adv := stab.ChaosScenario{
		Name:        "adversaries",
		Graph:       graph.GNPAvgDegree(32, 4, rng.New(cellSeed(cfg.Seed, 17, 3))),
		Protocol:    proto(),
		Seed:        cellSeed(cfg.Seed, 17, 4),
		AdvPolicy:   beep.AdvBabbler,
		AdvVertices: []int{1, 5, 9},
		Rounds:      rounds,
	}
	churn := stab.ChaosScenario{
		Name:        "churn",
		Graph:       graph.Cycle(20),
		Protocol:    proto(),
		Seed:        cellSeed(cfg.Seed, 17, 5),
		AdvPolicy:   beep.AdvBabbler,
		AdvVertices: []int{2},
		Rounds:      rounds,
		Churn: []stab.ChaosChurn{
			{AfterRound: rounds / 4, Event: graph.ChurnEvent{Label: "grow", Edits: []graph.Edit{
				{Kind: graph.EditDelEdge, U: 0, V: 1},
				{Kind: graph.EditAddVertex},
				{Kind: graph.EditAddEdge, U: 20, V: 0},
				{Kind: graph.EditAddEdge, U: 20, V: 1},
			}}},
			{AfterRound: rounds / 2, Event: graph.ChurnEvent{Label: "crash", Edits: []graph.Edit{
				{Kind: graph.EditDelVertex, U: 5},
			}}},
		},
	}
	// Stripes are 64-vertex-aligned, so the graphs above have one
	// stripe whatever WithWorkers asks for; at n = 160, k = 3 lays out
	// three and runs them on the worker pool.
	wide := stab.ChaosScenario{
		Name:     "wide-quiet-churn",
		Graph:    graph.GNPAvgDegree(160, 4, rng.New(cellSeed(cfg.Seed, 17, 7))),
		Protocol: proto(),
		Seed:     cellSeed(cfg.Seed, 17, 8),
		Rounds:   rounds,
		Churn: []stab.ChaosChurn{
			{AfterRound: rounds / 3, Event: graph.ChurnEvent{Label: "crash", Edits: []graph.Edit{
				{Kind: graph.EditDelVertex, U: 3},
			}}},
			{AfterRound: 2 * rounds / 3, Event: graph.ChurnEvent{Label: "join", Edits: []graph.Edit{
				{Kind: graph.EditAddVertex},
				{Kind: graph.EditAddEdge, U: 159, V: 0},
				{Kind: graph.EditAddEdge, U: 159, V: 80},
			}}},
		},
	}
	return []stab.ChaosScenario{noise, adv, churn, wide}
}

// RunE17 validates the crash-safety machinery itself: every scenario ×
// stripe count is killed at randomized rounds and resumed from
// its last integrity-checked auto-checkpoint, and every resumed round
// must reproduce the uninterrupted execution's trace hash bit-exactly.
// Unlike E1–E16 this measures no property of the paper's algorithm —
// it certifies that the measurements of a killed-and-resumed campaign
// are byte-identical to an uninterrupted one's, which is what makes the
// -resume workflow of the drivers trustworthy.
func RunE17(cfg Config) error {
	kills := cfg.trials(8, 25)
	rounds := 60

	tab := &Table{
		Title:   fmt.Sprintf("E17: chaos kill–resume certification (%d kills per combo, %d-round executions)", kills, rounds),
		Columns: []string{"scenario", "n", "k", "kills", "bit-exact", "kill-rounds", "round0-resumes"},
		Notes: []string{
			"k: the stripe count requested with beep.WithWorkers; stripes are 64-vertex-aligned, so only a graph of more than 128 vertices runs k = 3 as three stripes on the worker pool",
			"each kill: run to a random round, auto-checkpoint every K∈[1,8] rounds, serialize/deserialize the last checkpoint, resume in a fresh network, compare per-round trace hashes",
			"bit-exact must equal kills: a single divergence means some state (RNG phase, adversary table, churn mapping) is missing from the checkpoint",
			"round0-resumes: kills that fell before the first checkpoint cadence and resumed from the round-0 snapshot",
		},
	}

	combo := 0
	for _, base := range chaosCombos(cfg, rounds) {
		for _, k := range []int{1, 3} {
			combo++
			s := base
			s.Options = append(append([]beep.Option(nil), base.Options...), beep.WithWorkers(k))
			rep, err := stab.RunChaos(s, kills, rng.New(cellSeed(cfg.Seed, 17, 6, uint64(combo))))
			if err != nil {
				return fmt.Errorf("E17 %s/k=%d: %w", base.Name, k, err)
			}
			tab.AddRow(base.Name, I(base.Graph.N()), I(k), I(rep.Kills), I(rep.Resumes),
				fmt.Sprintf("[%d,%d]", rep.MinKillRound, rep.MaxKillRound), I(rep.ZeroCheckpointResumes))
			if rep.Resumes != rep.Kills {
				tab.Notes = append(tab.Notes, fmt.Sprintf(
					"WARNING: %s/k=%d resumed bit-exact only %d of %d kills", base.Name, k, rep.Resumes, rep.Kills))
			}
		}
	}
	return cfg.Render(tab)
}
