package exp

import (
	"errors"
	"fmt"

	"repro/internal/beep"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rng"
)

// RunE9 probes robustness beyond the paper's model: listening noise
// (per-round, per-vertex false negatives and false positives on the
// beep channel; the paper assumes reliable beeps).
//
// Two notions of correctness are reported:
//
//   - strict: the paper's legality S_t = V, where every MIS member's
//     neighbors sit exactly at ℓmax. A single dropped beep anywhere
//     breaks it for a round, so it cannot persist under noise by
//     definition.
//   - functional: the prominent set {v : ℓ(v) <= 0} is a valid MIS of
//     the graph. This is what the level hysteresis actually protects —
//     evicting a committed member needs ~ℓmax consecutive phantom
//     beeps (probability ε^ℓmax).
func RunE9(cfg Config) error {
	trials := cfg.trials(3, 10)
	n := 256
	if cfg.Full {
		n = 1024
	}
	const window = 1000
	budget := 100000

	tab := &Table{
		Title:   fmt.Sprintf("E9: listening noise ε (false± per channel per round), Algorithm 1 known Δ, gnp-avg8 n=%d", n),
		Columns: []string{"ε", "func-stab", "rounds(func)", "strict-frac", "func-frac", "member-flips"},
		Notes: []string{
			"func-stab: trials whose prominent set became a valid MIS within the budget",
			fmt.Sprintf("strict-frac / func-frac: fraction of a %d-round window (after functional stabilization) satisfying each condition", window),
			"member-flips: vertices whose committed (prominent) status flipped at least once during the window",
			"strict legality cannot persist under noise by definition; functional membership is hysteresis-protected",
		},
	}

	for _, eps := range []float64{0, 0.001, 0.01, 0.05, 0.1, 0.2} {
		funcStab := 0
		var rounds, strictFrac, funcFrac, flips []float64
		for trial := 0; trial < trials; trial++ {
			g := graph.GNPAvgDegree(n, 8, rng.New(cellSeed(cfg.Seed, 9, uint64(eps*1e6), uint64(trial), 1)))
			proto := core.NewAlg1(core.KnownMaxDegreeExact(core.DefaultC1KnownDelta))
			net, err := beep.NewNetwork(g, proto, cellSeed(cfg.Seed, 9, uint64(eps*1e6), uint64(trial), 2),
				beep.WithNoise(beep.Noise{PLoss: eps, PFalse: eps}))
			if err != nil {
				return fmt.Errorf("E9 ε=%v: %w", eps, err)
			}
			net.RandomizeAll()

			var probe core.State
			functionalMIS := func() ([]bool, bool) {
				if probe.Refresh(net) != nil {
					return nil, false
				}
				mask := make([]bool, n)
				for v := 0; v < n; v++ {
					mask[v] = probe.Prominent(v)
				}
				return mask, g.VerifyMIS(mask) == nil
			}
			strictNow := func() bool {
				return probe.Refresh(net) == nil && probe.Stabilized()
			}

			stop := func() bool {
				_, ok := functionalMIS()
				return ok
			}
			r, ok := net.Run(budget, stop)
			if !ok {
				net.Close()
				continue
			}
			funcStab++
			rounds = append(rounds, float64(r))

			ref, _ := functionalMIS()
			flipped := make([]bool, n)
			strictRounds, funcRounds := 0, 0
			for w := 0; w < window; w++ {
				net.Step()
				if strictNow() {
					strictRounds++
				}
				mask, ok := functionalMIS()
				if ok {
					funcRounds++
				}
				for v := range mask {
					if mask[v] != ref[v] {
						flipped[v] = true
					}
				}
			}
			net.Close()
			strictFrac = append(strictFrac, float64(strictRounds)/window)
			funcFrac = append(funcFrac, float64(funcRounds)/window)
			flips = append(flips, float64(graph.CountTrue(flipped)))
		}
		tab.AddRow(fmt.Sprintf("%.3g", eps),
			fmt.Sprintf("%d/%d", funcStab, trials),
			F(Summarize(rounds).Mean),
			fmt.Sprintf("%.3f", Summarize(strictFrac).Mean),
			fmt.Sprintf("%.3f", Summarize(funcFrac).Mean),
			F(Summarize(flips).Mean))
	}
	return cfg.Render(tab)
}

// RunE10 evaluates the repository's heuristic answer to the paper's
// open question (Section 8): removing all topology knowledge via
// collision-triggered cap doubling (core.AdaptiveAlg1). It compares
// rounds against the known-Δ oracle variant and reports how much
// "knowledge" the heuristic discovers (final caps vs the oracle cap).
func RunE10(cfg Config) error {
	trials := cfg.trials(5, 20)

	tab := &Table{
		Title:   "E10: zero-knowledge adaptive caps vs known-Δ oracle (arbitrary initial states, mean)",
		Columns: []string{"family", "n", "oracle-rounds", "adaptive-rounds", "ratio", "oracle-ℓmax", "adaptive-ℓmax(mean)", "ok"},
		Notes: []string{
			"adaptive: collision-triggered doubling from ℓmax=4, no topology knowledge at all (open problem, Section 8)",
			"adaptive-ℓmax(mean): mean final cap across vertices — how much 'knowledge' the heuristic discovered",
			"no w.h.p. guarantee is claimed for the heuristic; ok counts runs stabilizing within the default budget",
		},
	}

	for _, fam := range denseFamilies() {
		for _, size := range compareSizes(cfg) {
			var oracleRounds, adaptiveRounds, finalCaps []float64
			oracleCap := 0
			okCount := 0
			for trial := 0; trial < trials; trial++ {
				g := fam.build(size, rng.New(cellSeed(cfg.Seed, 10, uint64(size), uint64(trial), 1)))
				seed := cellSeed(cfg.Seed, 10, uint64(size), uint64(trial), 2)

				cap := core.KnownMaxDegreeExact(core.DefaultC1KnownDelta)
				oracleCap = cap(0, g)
				ores, err := core.Run(core.RunConfig{
					Graph: g, Protocol: core.NewAlg1(cap), Seed: seed, Init: core.InitRandom,
				})
				if err != nil {
					return fmt.Errorf("E10 oracle %s n=%d: %w", fam.name, size, err)
				}
				oracleRounds = append(oracleRounds, float64(ores.Rounds))

				// The adaptive run keeps its probe to read the final caps.
				net, err := beep.NewNetwork(g, core.NewAdaptiveAlg1(), seed^0xad)
				if err != nil {
					return err
				}
				net.RandomizeAll()
				var probe core.State
				r, err := core.Stabilize(net, &probe, 200000)
				switch {
				case errors.Is(err, core.ErrNotStabilized):
					// Not ok: no guarantee backs the heuristic's budget.
				case err != nil:
					net.Close()
					return fmt.Errorf("E10 adaptive %s n=%d: %w", fam.name, size, err)
				default:
					okCount++
					adaptiveRounds = append(adaptiveRounds, float64(r))
					capSum := 0
					for v := 0; v < net.N(); v++ {
						capSum += probe.Cap(v)
					}
					if net.N() > 0 {
						finalCaps = append(finalCaps, float64(capSum)/float64(net.N()))
					}
				}
				net.Close()
			}
			om, am := Summarize(oracleRounds).Mean, Summarize(adaptiveRounds).Mean
			ratio := 0.0
			if om > 0 {
				ratio = am / om
			}
			tab.AddRow(fam.name, I(size), F(om), F(am), F(ratio), I(oracleCap),
				F(Summarize(finalCaps).Mean), fmt.Sprintf("%d/%d", okCount, trials))
		}
	}
	return cfg.Render(tab)
}
