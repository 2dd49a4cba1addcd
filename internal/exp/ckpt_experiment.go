package exp

import (
	"fmt"
	"time"

	"repro/internal/beep"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rng"
)

// RunE22 measures what incremental checkpoints (DESIGN §12) buy each
// durability consumer: the per-tick cost of a checkpoint — state walk
// plus serialization — of the v3 binary full snapshot against the v3
// incremental delta, swept over the two knobs an operator actually
// turns:
//
//   - cadence: rounds between checkpoint ticks. Shorter cadences give
//     tighter recovery points and fewer dirty words per tick — the
//     delta's cost shrinks with the cadence while the full snapshot
//     stays O(n).
//   - corruption: transient faults injected right after the baseline
//     (the self-stabilization workload). More corruption dirties more
//     words, pushing the delta toward full-snapshot cost; the
//     dirty-frac column shows where the chain writer's compaction
//     policy (internal/ckpt, ≥½ dirty) would write a base instead.
//
// Each cell starts from the same stabilized torus configuration
// (restored from a held base snapshot, then re-baselined), corrupts k
// distinct random states, advances `cadence` rounds on the flat-kernel
// pipeline, and times each codec's capture+encode. Sizes are
// per-cell costs, not chain totals; timings are min over trials.
func RunE22(cfg Config) error {
	trials := cfg.trials(2, 3)
	sizes := []int{4096, 65536}
	if cfg.Full {
		sizes = append(sizes, 1_000_000)
	}
	cadences := []int{4, 32}
	corrupts := []int{1, 16, 256}

	tab := &Table{
		Title:   "E22: checkpoint cost vs cadence vs corruption (flat kernels, stabilized torus start)",
		Columns: []string{"n", "cadence", "corrupt", "dirty-frac", "bin-KB", "delta-KB", "bin-us", "delta-us", "speedup"},
		Notes: []string{
			"per-tick checkpoint cost: state walk + serialization, min over trials; sizes are per-cell, not chain totals",
			"dirty-frac: slab words dirtied since the baseline / total words — what the delta pays for, and what the chain writer's ≥1/2 compaction policy inspects",
			"bin: v3 binary full snapshot (O(n) regardless of dirt); delta: v3 incremental (cost tracks dirty-frac)",
			"speedup: bin-us / delta-us — the factor the delta path takes off a full snapshot's per-tick cost",
			"chain replay equals the full snapshot bit-exactly (internal/ckpt round-trip suites, E17 chaos matrices)",
		},
	}

	for _, n := range sizes {
		g := torusOf(n)
		seed := cellSeed(cfg.Seed, 22, uint64(n), 0, 1)
		net, base, err := stableCkptBaseline(g, seed)
		if err != nil {
			return fmt.Errorf("E22 n=%d: %w", n, err)
		}
		totalWords := (n + 63) / 64
		faults := rng.New(cellSeed(cfg.Seed, 22, uint64(n), 0, 2))
		for _, cadence := range cadences {
			for _, corrupt := range corrupts {
				var dirtyFrac, binKB, deltaKB []float64
				bestBin, bestDelta := 0.0, 0.0
				for trial := 0; trial < trials; trial++ {
					// Same stabilized start for every cell: restore the
					// held base (marks everything dirty), then re-arm the
					// dirty baseline with a fresh capture.
					if err := net.Restore(base); err != nil {
						net.Close()
						return fmt.Errorf("E22 n=%d restore: %w", n, err)
					}
					if _, err := net.Checkpoint(); err != nil {
						net.Close()
						return fmt.Errorf("E22 n=%d rebaseline: %w", n, err)
					}
					if err := net.Corrupt(faults.Perm(n)[:corrupt]); err != nil {
						net.Close()
						return fmt.Errorf("E22 n=%d corrupt: %w", n, err)
					}
					for r := 0; r < cadence; r++ {
						if err := net.TryStep(); err != nil {
							net.Close()
							return fmt.Errorf("E22 n=%d step: %w", n, err)
						}
					}
					dirtyFrac = append(dirtyFrac, float64(net.DirtyWords())/float64(totalWords))

					// Delta first: CheckpointDelta consumes (and re-arms)
					// the dirty baseline the full captures would reset.
					start := time.Now()
					d, err := net.CheckpointDelta(1)
					if err != nil {
						net.Close()
						return fmt.Errorf("E22 n=%d delta: %w", n, err)
					}
					dEnc, err := beep.EncodeDelta(d)
					if err != nil {
						net.Close()
						return fmt.Errorf("E22 n=%d delta encode: %w", n, err)
					}
					deltaUS := float64(time.Since(start)) / float64(time.Microsecond)

					start = time.Now()
					cp, err := net.Checkpoint()
					if err != nil {
						net.Close()
						return fmt.Errorf("E22 n=%d snapshot: %w", n, err)
					}
					bEnc, err := beep.EncodeSnapshot(cp)
					if err != nil {
						net.Close()
						return fmt.Errorf("E22 n=%d binary encode: %w", n, err)
					}
					binUS := float64(time.Since(start)) / float64(time.Microsecond)

					binKB = append(binKB, float64(len(bEnc))/1024)
					deltaKB = append(deltaKB, float64(len(dEnc))/1024)
					if trial == 0 || binUS < bestBin {
						bestBin = binUS
					}
					if trial == 0 || deltaUS < bestDelta {
						bestDelta = deltaUS
					}
				}
				tab.AddRow(I(n), I(cadence), I(corrupt),
					F(Summarize(dirtyFrac).Mean),
					F(Summarize(binKB).Mean), F(Summarize(deltaKB).Mean),
					F(bestBin), F(bestDelta), F(bestBin/bestDelta))
			}
		}
		net.Close()
	}
	return cfg.Render(tab)
}

// stableCkptBaseline builds a flat-kernel network, runs it to
// stabilization, and returns it together with its base snapshot (which
// also arms the dirty-word baseline).
func stableCkptBaseline(g *graph.Graph, seed uint64) (*beep.Network, *beep.Checkpoint, error) {
	proto := core.NewAlg1(core.KnownMaxDegreeExact(core.DefaultC1KnownDelta))
	net, err := beep.NewNetwork(g, proto, seed)
	if err != nil {
		return nil, nil, err
	}
	net.RandomizeAll()
	var probe core.State
	if _, ok := net.Run(1_000_000, func() bool {
		return probe.Refresh(net) == nil && probe.Stabilized()
	}); !ok {
		net.Close()
		return nil, nil, fmt.Errorf("no stabilization within 10^6 rounds")
	}
	base, err := net.Checkpoint()
	if err != nil {
		net.Close()
		return nil, nil, err
	}
	return net, base, nil
}
