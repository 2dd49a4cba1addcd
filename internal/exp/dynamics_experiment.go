package exp

import (
	"fmt"

	"repro/internal/beep"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/trace"
)

// RunE11 renders the convergence dynamics behind the headline numbers:
// per-round |S_t| (stabilized vertices), |PM_t| (prominent vertices)
// and the beeping load, for each initial configuration on one instance
// — the full-version figure a brief announcement has no space for. It
// also prints the topology metadata of the sweep families so the other
// tables can be read in context.
func RunE11(cfg Config) error {
	n := 256
	if cfg.Full {
		n = 1024
	}

	// Topology metadata for the standard sweep at this size.
	meta := &Table{
		Title:   fmt.Sprintf("E11a: sweep-family topology metadata at n≈%d", n),
		Columns: []string{"family", "n", "m", "Δ", "avg-deg", "diam≈", "triangles", "connected"},
		Notes:   []string{"diam≈ is the double-sweep BFS lower bound (exact for trees/cycles in practice)"},
	}
	for _, fam := range standardFamilies() {
		g := fam.build(n, rng.New(cellSeed(cfg.Seed, 11, 1)))
		meta.AddRow(fam.name, I(g.N()), I(g.M()), I(g.MaxDegree()),
			F(g.AverageDegree()), I(g.DiameterApprox()), I(g.TriangleCount()),
			fmt.Sprintf("%v", g.IsConnected()))
	}
	if err := cfg.Render(meta); err != nil {
		return err
	}

	// Convergence curves per init mode on one gnp instance.
	series := &Series{
		Title:  fmt.Sprintf("E11b: convergence dynamics, Algorithm 1 known Δ, gnp-avg8 n=%d (sampled rounds)", n),
		XLabel: "round",
		YLabel: "count",
	}
	sampleAt := []int{0, 1, 2, 4, 8, 12, 16, 24, 32, 48, 64, 96, 128}
	for _, init := range []core.InitMode{core.InitFresh, core.InitRandom, core.InitAdversarial, core.InitZero} {
		g := graph.GNPAvgDegree(n, 8, rng.New(cellSeed(cfg.Seed, 11, 2)))
		proto := core.NewAlg1(core.KnownMaxDegreeExact(core.DefaultC1KnownDelta))
		var probe core.State
		var rec *trace.Recorder
		net, err := beep.NewNetwork(g, proto, cellSeed(cfg.Seed, 11, uint64(init), 3),
			beep.WithObserver(func(round int, sent, heard []beep.Signal) {
				rec.Observer()(round, sent, heard)
			}))
		if err != nil {
			return err
		}
		rec = trace.NewRecorder(net, &probe)
		if err := core.ApplyInit(net, init); err != nil {
			net.Close()
			return err
		}
		if _, err := core.Stabilize(net, &probe, 100000); err != nil {
			net.Close()
			return fmt.Errorf("E11 init=%v: %w", init, err)
		}
		stats := rec.Stats()
		net.Close()
		for _, r := range sampleAt {
			if r >= len(stats) {
				break
			}
			series.Add("stable/"+init.String(), float64(r), float64(stats[r].Stable))
		}
		// Always include the terminal point.
		last := stats[len(stats)-1]
		series.Add("stable/"+init.String(), float64(last.Round), float64(last.Stable))
		series.Add("beeping/"+init.String(), float64(len(stats)), float64(last.Beeping))
	}
	return cfg.Render(series)
}
