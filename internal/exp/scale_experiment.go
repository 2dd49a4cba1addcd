package exp

import (
	"fmt"
	"time"

	"repro/internal/beep"
	"repro/internal/core"
	"repro/internal/graph"
)

// RunE19 measures how far one process scales when graph memory — not
// kernel arithmetic — is the constraint (ROADMAP open item 2): the same
// torus instance is run through the flat kernels on each of the three
// graph backends, recording the two numbers that decide feasibility at
// n = 10⁸:
//
//   - ns/vertex/round — per-vertex cost of one simulated round from a
//     randomized (convergence-phase) configuration. Flat scaling means
//     this column is constant down each backend's rows.
//   - bytes/vertex — adjacency storage. The int32 CSR pays
//     4·(n+1+2m)/n, the delta-varint compact backend ~1–2 bytes per
//     edge endpoint, and the implicit backend zero: its neighborhoods
//     are synthesized on the fly from the closed-form torus rule.
//
// All three backends present the identical canonical view of the same
// torus, so executions are bit-for-bit trace-equivalent (pinned by
// TestEngineTraceEquivalenceBackends); E19 only times them. Quick mode
// sweeps n = 10⁴…10⁶; --full extends the implicit backend to n = 10⁸
// and caps the materialized backends at n = 10⁷ (above that, holding
// the rows is the problem E19 exists to demonstrate — see
// BENCH_scale.json for the container numbers).
func RunE19(cfg Config) error {
	trials := cfg.trials(1, 3)

	type size struct {
		n, rows, cols int
		fullOnly      bool
		implicitOnly  bool
	}
	sizes := []size{
		{n: 10_000, rows: 100, cols: 100},
		{n: 100_000, rows: 250, cols: 400},
		{n: 1_000_000, rows: 1000, cols: 1000},
		{n: 10_000_000, rows: 2500, cols: 4000, fullOnly: true},
		{n: 100_000_000, rows: 10_000, cols: 10_000, fullOnly: true, implicitOnly: true},
	}

	tab := &Table{
		Title:   "E19: backend scaling on the torus — ns/vertex/round and bytes/vertex (flat kernels, randomized start, min over trials)",
		Columns: []string{"n", "backend", "bytes/vertex", "build-ms", "round-ms", "ns/vertex/round"},
		Notes: []string{
			"backends present the identical canonical torus: executions are bit-identical, only cost differs",
			"bytes/vertex counts adjacency storage only (graph.BytesOf); implicit = 0 is exact, not rounded",
			"build-ms: constructing the backend from the implicit generator (csr: Materialize, compact: Compress)",
			"flat scaling = constant ns/vertex/round down a backend's rows; the implicit column extends to n=10⁸ with --full",
		},
	}

	type backend struct {
		name  string
		build func(t graph.Topology) graph.Topology
	}
	backends := []backend{
		{name: "implicit", build: func(t graph.Topology) graph.Topology { return t }},
		{name: "compact", build: func(t graph.Topology) graph.Topology { return graph.Compress(t) }},
		{name: "csr", build: func(t graph.Topology) graph.Topology { return graph.Materialize(t) }},
	}

	for _, sz := range sizes {
		if sz.fullOnly && !cfg.Full {
			continue
		}
		base := graph.ImplicitTorus(sz.rows, sz.cols)
		for _, bk := range backends {
			if sz.implicitOnly && bk.name != "implicit" {
				continue
			}
			buildStart := time.Now()
			t := bk.build(base)
			buildMS := float64(time.Since(buildStart).Nanoseconds()) / 1e6
			roundMS, err := minRoundMS(t, cfg.Seed, trials)
			if err != nil {
				return fmt.Errorf("E19 %s n=%d: %w", bk.name, sz.n, err)
			}
			tab.AddRow(I(sz.n), bk.name,
				F(float64(graph.BytesOf(t))/float64(sz.n)),
				F(buildMS), F(roundMS),
				F(roundMS*1e6/float64(sz.n)))
		}
	}
	return cfg.Render(tab)
}

// minRoundMS times flat-engine rounds from a randomized configuration
// and returns the fastest per-round millisecond cost over the trials.
// The minimum is the right summary for a cost measurement: noise (GC,
// scheduling) only ever adds time.
func minRoundMS(t graph.Topology, seed uint64, trials int) (float64, error) {
	// warmup matches the root benchmark's measurement window
	// (RandomizeAll + 1 warm Step + 2 AllocsPerRun rounds precede its
	// timed region), so E19's ns/vertex/round rows are comparable with
	// BENCH.json columns at the same n.
	const (
		warmup = 3
		timed  = 4
	)
	best := 0.0
	for trial := 0; trial < trials; trial++ {
		proto := core.NewAlg1(core.KnownMaxDegreeExact(core.DefaultC1KnownDelta))
		net, err := beep.NewNetwork(t, proto, cellSeed(seed, 19, uint64(trial)))
		if err != nil {
			return 0, err
		}
		net.RandomizeAll()
		for i := 0; i < warmup; i++ {
			net.Step()
		}
		start := time.Now()
		for i := 0; i < timed; i++ {
			net.Step()
		}
		ms := float64(time.Since(start).Nanoseconds()) / 1e6 / timed
		if trial == 0 || ms < best {
			best = ms
		}
		net.Close()
	}
	return best, nil
}
