package exp

import (
	"fmt"
	"time"

	"repro/internal/beep"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rng"
)

// RunE21 measures the activity decay that the pipeline's frontier
// gating (DESIGN §11) converts into wall-clock: once most vertices
// reach their stable behavior, the round-to-round frontier — vertices
// whose state or signal can still change — collapses to the
// neighborhoods of the few still-contending vertices. The experiment
// traces per-round active counts through beep.WithStatsObserver and
// times the identical whole run (same seed, bit-identical trace).
//
//   - work-frac: Σ active / (n · rounds) — the fraction of the per-vertex
//     work of an ungated round that the pipeline actually performs over
//     the whole run.
//   - tail-frac: the same ratio over the second half of the run, where
//     decay has set in; this bounds the long-run speedup.
//   - ms: wall-clock of the whole run (min over trials).
func RunE21(cfg Config) error {
	trials := cfg.trials(2, 3)
	sizes := []int{4096, 65536}
	if cfg.Full {
		sizes = append(sizes, 1_000_000)
	}

	tab := &Table{
		Title:   "E21: activity decay and the frontier-gated round (randomized start)",
		Columns: []string{"family", "n", "rounds", "work-frac", "tail-frac", "ms"},
		Notes: []string{
			"work-frac: fraction of per-vertex work the gated pipeline performs over the whole run (Σ active / n·rounds)",
			"tail-frac: same ratio over the run's second half, once activity has decayed",
			"timing is the min over trials of whole fixed-length runs (the stabilization round count of trial's own trace)",
		},
	}

	fams := []familyGen{
		{name: "cycle", build: func(n int, _ *rng.Source) *graph.Graph { return graph.Cycle(n) }},
		{name: "torus", build: func(n int, _ *rng.Source) *graph.Graph { return torusOf(n) }},
		{name: "gnp-avg8", build: func(n int, src *rng.Source) *graph.Graph { return graph.GNPAvgDegree(n, 8, src) }},
	}

	for _, fam := range fams {
		for _, n := range sizes {
			var rounds, workFrac, tailFrac []float64
			best := 0.0
			for trial := 0; trial < trials; trial++ {
				g := fam.build(n, rng.New(cellSeed(cfg.Seed, 21, uint64(n), uint64(trial), 1)))
				seed := cellSeed(cfg.Seed, 21, uint64(n), uint64(trial), 2)

				// Pass 1: run to stabilization, tracing the per-round
				// active counts.
				var active []int
				net, err := beep.NewNetwork(g, core.NewAlg1(core.KnownMaxDegreeExact(core.DefaultC1KnownDelta)), seed,
					beep.WithStatsObserver(func(_, act, _ int) { active = append(active, act) }))
				if err != nil {
					return err
				}
				net.RandomizeAll()
				r, err := core.Stabilize(net, nil, 1_000_000)
				net.Close()
				if err != nil {
					return fmt.Errorf("E21 %s n=%d: %w", fam.name, n, err)
				}
				sum, tailSum := 0, 0
				for i, a := range active[:r] {
					sum += a
					if i >= r/2 {
						tailSum += a
					}
				}
				rounds = append(rounds, float64(r))
				workFrac = append(workFrac, float64(sum)/float64(n*r))
				tailFrac = append(tailFrac, float64(tailSum)/float64(n*(r-r/2)))

				// Pass 2: time the same fixed-length run. The probe is
				// out of the loop, so the timing is pure round cost.
				ms, err := timeFixedRun(g, seed, r)
				if err != nil {
					return fmt.Errorf("E21 %s n=%d: %w", fam.name, n, err)
				}
				if trial == 0 || ms < best {
					best = ms
				}
			}
			tab.AddRow(fam.name, I(n), F(Summarize(rounds).Mean),
				F(Summarize(workFrac).Mean), F(Summarize(tailFrac).Mean), F(best))
		}
	}
	return cfg.Render(tab)
}

// timeFixedRun times `rounds` rounds from a randomized start and returns
// milliseconds.
func timeFixedRun(g *graph.Graph, seed uint64, rounds int) (float64, error) {
	proto := core.NewAlg1(core.KnownMaxDegreeExact(core.DefaultC1KnownDelta))
	net, err := beep.NewNetwork(g, proto, seed)
	if err != nil {
		return 0, err
	}
	defer net.Close()
	net.RandomizeAll()
	start := time.Now()
	for i := 0; i < rounds; i++ {
		if err := net.TryStep(); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start).Nanoseconds()) / 1e6, nil
}
