package exp

import (
	"fmt"
	"sort"

	"repro/internal/beep"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/stab"
)

// churnStorm names one schedule generator for the E15 sweep.
type churnStorm struct {
	name string
	gen  func(g *graph.Graph, src *rng.Source) ([]graph.ChurnEvent, error)
}

// churnStorms builds the event-type axis of E15, scaled to n.
func churnStorms(n int) []churnStorm {
	atLeast := func(x, lo int) int {
		if x < lo {
			return lo
		}
		return x
	}
	return []churnStorm{
		{"flap", func(g *graph.Graph, src *rng.Source) ([]graph.ChurnEvent, error) {
			return graph.FlapSchedule(g, 3, atLeast(n/8, 4), src)
		}},
		{"growth", func(g *graph.Graph, src *rng.Source) ([]graph.ChurnEvent, error) {
			return graph.GrowthSchedule(g, 3, atLeast(n/32, 2), 2, src)
		}},
		{"crash", func(g *graph.Graph, src *rng.Source) ([]graph.ChurnEvent, error) {
			return graph.CrashSchedule(g, 3, atLeast(n/16, 2), src)
		}},
		{"partition-heal", func(g *graph.Graph, src *rng.Source) ([]graph.ChurnEvent, error) {
			return graph.PartitionHealSchedule(g, 1, src)
		}},
	}
}

// RunE15 measures recovery from topology churn: the network stabilizes,
// then a storm of edit events (edge flaps, joins, crashes, a partition
// that heals) hits it through live rewiring, and the harness records the
// rounds back to a legal configuration after every event. The paper's
// "from any arbitrary configuration" guarantee (Theorem 2.1) predicts
// re-stabilization within the same O(log n) regime as a cold start —
// churn merely selects which arbitrary configuration the system restarts
// from — so every event must recover inside the O(log n)-scaled budget,
// and the superstabilization-style adjustment measure shows how local
// the repair is.
func RunE15(cfg Config) error {
	trials := cfg.trials(2, 6)
	sizes := cfg.sizes()
	n := sizes[len(sizes)/2]
	budget := 400 * (int(Log2(float64(n))) + 2) // O(log n)-scaled recovery budget

	tab := &Table{
		Title:   fmt.Sprintf("E15: re-stabilization under topology churn (n≈%d, budget %d rounds, mean over trials)", n, budget),
		Columns: []string{"family", "storm", "events", "recovered", "init-stab", "recovery(mean)", "recovery(max)", "adjust(mean)", "avail"},
		Notes: []string{
			"recovery: rounds from a live Rewire (survivors keep state, joiners arrive arbitrary) back to a verified legal configuration",
			fmt.Sprintf("budget is O(log n)-scaled (%d rounds); 'recovered' must equal 'events' for Theorem 2.1's regime to hold", budget),
			"adjust: surviving vertices NOT incident to the change whose MIS membership changed anyway (superstabilization adjustment measure)",
			"avail: fraction of post-warmup rounds in a legal configuration (includes a 50-round dwell after each recovery)",
		},
	}

	families := []familyGen{standardFamilies()[0], standardFamilies()[3], standardFamilies()[5]}
	for _, fam := range families {
		for _, storm := range churnStorms(n) {
			var initial, recovery, adjust, avail []float64
			events, recovered := 0, 0
			for trial := 0; trial < trials; trial++ {
				g := fam.build(n, rng.New(cellSeed(cfg.Seed, 15, uint64(trial), 1)))
				sched, err := storm.gen(g, rng.New(cellSeed(cfg.Seed, 15, uint64(trial), 2)))
				if err != nil {
					return fmt.Errorf("E15 %s/%s: schedule: %w", fam.name, storm.name, err)
				}
				res, err := stab.MeasureChurn(stab.ChurnConfig{
					Graph:          g,
					Protocol:       core.NewAlg1(core.KnownMaxDegreeExact(core.DefaultC1KnownDelta)),
					Seed:           cellSeed(cfg.Seed, 15, uint64(trial), 3),
					Schedule:       sched,
					RecoveryBudget: budget,
					Dwell:          50,
				})
				if err != nil {
					return fmt.Errorf("E15 %s/%s: %w", fam.name, storm.name, err)
				}
				initial = append(initial, float64(res.InitialRounds))
				avail = append(avail, res.Availability)
				events += len(res.Events)
				recovered += res.Recovered
				for _, ev := range res.Events {
					recovery = append(recovery, float64(ev.RecoveryRounds))
					if ev.Recovered {
						adjust = append(adjust, float64(ev.Adjustment))
					}
				}
			}
			rs := Summarize(recovery)
			tab.AddRow(fam.name, storm.name, I(events), I(recovered),
				F(Summarize(initial).Mean), F(rs.Mean), F(rs.Max),
				F(Summarize(adjust).Mean), fmt.Sprintf("%.3f", Summarize(avail).Mean))
			if recovered != events {
				tab.Notes = append(tab.Notes,
					fmt.Sprintf("WARNING: %s/%s recovered only %d of %d events within the budget", fam.name, storm.name, recovered, events))
			}
		}
	}
	return cfg.Render(tab)
}

// topDegree returns the k highest-degree vertices of g.
func topDegree(g *graph.Graph, k int) []int {
	order := make([]int, g.N())
	for v := range order {
		order[v] = v
	}
	sort.Slice(order, func(i, j int) bool {
		di, dj := g.Degree(order[i]), g.Degree(order[j])
		if di != dj {
			return di > dj
		}
		return order[i] < order[j]
	})
	if k > len(order) {
		k = len(order)
	}
	return order[:k]
}

// randomVerts returns k distinct uniformly chosen vertices.
func randomVerts(n, k int, src *rng.Source) []int {
	perm := src.Perm(n)
	if k > n {
		k = n
	}
	return perm[:k]
}

// RunE16 measures MIS quality on the correct induced subgraph as a
// function of adversary count, placement, and policy. Jammers deny their
// neighbors every silent round, so a correct vertex whose correct
// neighborhood cannot dominate it may never stabilize — the guarantee
// quantifies over cooperating vertices only — while mute adversaries are
// observationally absent and cost nothing. The run therefore measures
// the stable fraction of correct vertices at a fixed horizon rather than
// waiting for stabilization that may never come.
func RunE16(cfg Config) error {
	trials := cfg.trials(2, 6)
	sizes := cfg.sizes()
	n := sizes[len(sizes)/2]
	horizon := 60 * (int(Log2(float64(n))) + 2)

	tab := &Table{
		Title:   fmt.Sprintf("E16: correct-subgraph MIS quality under adversarial beepers (n=%d, horizon %d rounds)", n, horizon),
		Columns: []string{"family", "policy", "k", "placement", "stable-frac", "legal-runs", "stab-rounds(mean)"},
		Notes: []string{
			"stable-frac: fraction of correct (non-adversarial) vertices in S_t at the horizon, mean over trials",
			"legal-runs: trials whose correct subgraph reached a verified legal configuration within the horizon",
			"jammers starve neighbors of silent rounds: expect stable-frac to drop with k and with hub placement;",
			"mute adversaries are observationally absent: expect stable-frac 1 and all runs legal at the same k",
		},
	}

	families := []familyGen{standardFamilies()[3], standardFamilies()[4]} // gnp-avg8, star
	ks := []int{1, atLeastInt(n/32, 2), atLeastInt(n/8, 4)}
	policies := []beep.AdversaryPolicy{beep.AdvJammer, beep.AdvMute}
	for _, fam := range families {
		for _, policy := range policies {
			for _, k := range ks {
				for _, placement := range []string{"random", "hubs"} {
					var fracs, stabRounds []float64
					legal := 0
					for trial := 0; trial < trials; trial++ {
						g := fam.build(n, rng.New(cellSeed(cfg.Seed, 16, uint64(k), uint64(trial), 1)))
						var verts []int
						if placement == "hubs" {
							verts = topDegree(g, k)
						} else {
							verts = randomVerts(g.N(), k, rng.New(cellSeed(cfg.Seed, 16, uint64(k), uint64(trial), 2)))
						}
						frac, stab, rounds, err := adversaryQualityRun(g, policy, verts,
							cellSeed(cfg.Seed, 16, uint64(k), uint64(trial), 3), horizon)
						if err != nil {
							return fmt.Errorf("E16 %s/%s k=%d %s: %w", fam.name, policy, k, placement, err)
						}
						fracs = append(fracs, frac)
						if stab {
							legal++
							stabRounds = append(stabRounds, float64(rounds))
						}
					}
					mean := "-"
					if len(stabRounds) > 0 {
						mean = F(Summarize(stabRounds).Mean)
					}
					tab.AddRow(fam.name, policy.String(), I(k), placement,
						fmt.Sprintf("%.3f", Summarize(fracs).Mean), I(legal), mean)
				}
			}
		}
	}
	return cfg.Render(tab)
}

// adversaryQualityRun executes one instance with the given adversaries
// and returns the horizon-end stable fraction of correct vertices,
// whether (and when) the correct subgraph reached a verified legal
// configuration.
func adversaryQualityRun(g *graph.Graph, policy beep.AdversaryPolicy, verts []int, seed uint64, horizon int) (float64, bool, int, error) {
	net, err := beep.NewNetwork(g, core.NewAlg1(core.KnownMaxDegreeExact(core.DefaultC1KnownDelta)), seed,
		beep.WithAdversaries(policy, verts))
	if err != nil {
		return 0, false, 0, err
	}
	defer net.Close()
	net.RandomizeAll()

	var probe core.State // Refresh masks the adversaries out of legality
	correct := net.N() - net.AdversaryCount()
	stabilized, stabRound := false, 0
	for r := 0; r < horizon; r++ {
		net.Step()
		if err := probe.Refresh(net); err != nil {
			return 0, false, 0, err
		}
		if !stabilized && probe.Stabilized() {
			if err := probe.VerifyMIS(); err != nil {
				return 0, false, 0, fmt.Errorf("legal configuration fails masked verification: %w", err)
			}
			stabilized, stabRound = true, net.Round()
		}
	}
	stableCorrect := probe.StableCount() - net.AdversaryCount() // excluded are vacuously stable
	frac := 0.0
	if correct > 0 {
		frac = float64(stableCorrect) / float64(correct)
	}
	return frac, stabilized, stabRound, nil
}

// atLeastInt clamps x from below.
func atLeastInt(x, lo int) int {
	if x < lo {
		return lo
	}
	return x
}
