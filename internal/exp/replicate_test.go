package exp

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/beep"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rng"
)

// TestRunReplicatedMatchesFreshRuns is the contract of the reseed
// amortization: every trial of a replication pool must produce exactly
// the result a freshly constructed core.Run with the same seed would
// produce. If Reseed left any state behind (machine levels, stream
// positions, round counters), this comparison breaks.
func TestRunReplicatedMatchesFreshRuns(t *testing.T) {
	g := graph.GNPAvgDegree(96, 6, rng.New(11))
	proto := core.NewAlg1(core.KnownMaxDegreeExact(core.DefaultC1KnownDelta))
	const trials = 6
	cfg := ReplicatedConfig{
		Graph:    g,
		Protocol: proto,
		Seed:     42,
		Trials:   trials,
		Init:     core.InitRandom,
	}
	res, err := RunReplicated(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < trials; trial++ {
		fresh, err := core.Run(core.RunConfig{
			Graph:    g,
			Protocol: proto,
			Seed:     cfg.seedFor(trial),
			Init:     core.InitRandom,
		})
		if err != nil {
			t.Fatalf("fresh trial %d: %v", trial, err)
		}
		if res.Rounds[trial] != fresh.Rounds || res.MISSize[trial] != fresh.MISSize {
			t.Fatalf("trial %d diverged: replicated (rounds=%d, mis=%d) vs fresh (rounds=%d, mis=%d)",
				trial, res.Rounds[trial], res.MISSize[trial], fresh.Rounds, fresh.MISSize)
		}
	}
}

// TestRunReplicatedWorkerIndependence checks that results are a pure
// function of the seeds, not of the scheduling: 1 worker and 4 workers
// must fill identical trial-indexed slots.
func TestRunReplicatedWorkerIndependence(t *testing.T) {
	g := graph.GNPAvgDegree(80, 5, rng.New(7))
	base := ReplicatedConfig{
		Graph:    g,
		Protocol: core.NewAlg1(core.KnownMaxDegreeExact(core.DefaultC1KnownDelta)),
		Seed:     9,
		Trials:   8,
		Init:     core.InitAdversarial,
	}
	one := base
	one.Workers = 1
	four := base
	four.Workers = 4
	r1, err := RunReplicated(one)
	if err != nil {
		t.Fatal(err)
	}
	r4, err := RunReplicated(four)
	if err != nil {
		t.Fatal(err)
	}
	for trial := range r1.Rounds {
		if r1.Rounds[trial] != r4.Rounds[trial] || r1.MISSize[trial] != r4.MISSize[trial] {
			t.Fatalf("trial %d depends on worker count: 1w (rounds=%d, mis=%d) vs 4w (rounds=%d, mis=%d)",
				trial, r1.Rounds[trial], r1.MISSize[trial], r4.Rounds[trial], r4.MISSize[trial])
		}
	}
}

// TestRunReplicatedRelabel runs replication pools through the
// cache-aware relabelings: every trial must stabilize, and the
// pulled-back MIS must verify against the ORIGINAL topology (runReplica
// enforces this per trial). It also checks the relabeled pools match a
// fresh run on the relabeled graph — relabeling composes with the
// reseed amortization, it does not interfere with it — and that a
// multi-stripe network accepts the relabeled pool.
func TestRunReplicatedRelabel(t *testing.T) {
	g := graph.GNPAvgDegree(96, 6, rng.New(23))
	proto := core.NewAlg1(core.KnownMaxDegreeExact(core.DefaultC1KnownDelta))
	for _, tc := range []struct {
		name string
		ord  graph.Ordering
		opts []beep.Option
	}{
		{"bfs", graph.OrderBFS, nil},
		{"degree", graph.OrderDegree, nil},
		{"bfs-flatparallel", graph.OrderBFS, []beep.Option{beep.WithWorkers(3)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := ReplicatedConfig{
				Graph:    g,
				Protocol: proto,
				Seed:     77,
				Trials:   4,
				Init:     core.InitRandom,
				Relabel:  tc.ord,
				Options:  tc.opts,
			}
			res, err := RunReplicated(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rl := graph.Relabel(g, tc.ord)
			for trial := 0; trial < cfg.Trials; trial++ {
				fresh, err := core.Run(core.RunConfig{
					Graph:    rl.Graph,
					Protocol: proto,
					Seed:     cfg.seedFor(trial),
					Init:     core.InitRandom,
				})
				if err != nil {
					t.Fatalf("fresh relabeled trial %d: %v", trial, err)
				}
				if res.Rounds[trial] != fresh.Rounds || res.MISSize[trial] != fresh.MISSize {
					t.Fatalf("trial %d diverged from fresh relabeled run: (rounds=%d, mis=%d) vs (rounds=%d, mis=%d)",
						trial, res.Rounds[trial], res.MISSize[trial], fresh.Rounds, fresh.MISSize)
				}
			}
		})
	}
}

// TestRunReplicatedBudgetError checks that a trial exhausting its round
// budget surfaces core.ErrNotStabilized instead of recording garbage.
func TestRunReplicatedBudgetError(t *testing.T) {
	g := graph.GNPAvgDegree(64, 6, rng.New(3))
	_, err := RunReplicated(ReplicatedConfig{
		Graph:     g,
		Protocol:  core.NewAlg1(core.KnownMaxDegreeExact(core.DefaultC1KnownDelta)),
		Seed:      5,
		Trials:    4,
		Init:      core.InitAdversarial,
		MaxRounds: 1,
	})
	if !errors.Is(err, core.ErrNotStabilized) {
		t.Fatalf("want ErrNotStabilized, got %v", err)
	}
}

// TestRunReplicatedValidation covers the config guards.
func TestRunReplicatedValidation(t *testing.T) {
	g := graph.Cycle(8)
	proto := core.NewAlg1(core.KnownMaxDegreeExact(core.DefaultC1KnownDelta))
	cases := []ReplicatedConfig{
		{Protocol: proto, Trials: 1},
		{Graph: g, Trials: 1},
		{Graph: g, Protocol: proto, Trials: 0},
	}
	for i, cfg := range cases {
		if _, err := RunReplicated(cfg); err == nil {
			t.Fatalf("case %d: want error, got nil", i)
		}
	}
}

// TestRunE18Smoke executes the tail experiment end to end at smoke
// scale.
func TestRunE18Smoke(t *testing.T) {
	var sb strings.Builder
	cfg := smokeConfig(&sb)
	cfg.Trials = 3
	if err := RunE18(cfg); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"E18", "p99", "cycle", "adversarial"} {
		if !strings.Contains(out, want) {
			t.Fatalf("E18 output missing %q:\n%s", want, out)
		}
	}
}
