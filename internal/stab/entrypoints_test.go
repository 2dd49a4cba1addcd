package stab_test

import (
	"testing"

	"repro"
	"repro/internal/beep"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/stab"
)

// recordMIS is a fault that corrupts nothing and records the MIS of the
// network it is applied to: MeasureRecovery applies it right after the
// first stabilization.
type recordMIS struct{ mis []bool }

func (f *recordMIS) Name() string { return "record-mis" }

func (f *recordMIS) Apply(net *beep.Network, _ *rng.Source) error {
	st, err := core.Snapshot(net)
	if err != nil {
		return err
	}
	f.mis = st.MISMask()
	return nil
}

// TestSupervisorPlainRunMatchesCoreRun runs the golden execution (the
// graph, protocol, seed and random initial configuration core's
// TestGoldenExecution pins) through every run-to-legal entry point and
// requires each to report core.Run's rounds and MIS: all of them stop
// by the one core.Stabilize rule. RunReplicated reports MIS sizes only.
func TestSupervisorPlainRunMatchesCoreRun(t *testing.T) {
	const seed = 7
	g := graph.GNPAvgDegree(64, 6, rng.New(42))
	proto := func() beep.Protocol { return core.NewAlg1(core.KnownMaxDegreeExact(core.DefaultC1KnownDelta)) }
	ref, err := core.Run(core.RunConfig{Graph: g, Protocol: proto(), Seed: seed, Init: core.InitRandom})
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		rounds, misSize int
		mis             []bool // nil when the entry point reports sizes only
	}
	supervised := func(t *testing.T, cfg stab.SupervisorConfig) outcome {
		cfg.Graph, cfg.Protocol, cfg.Seed = g, proto(), seed
		sup, err := stab.NewSupervisor(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sup.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Attempts != 1 || res.Resumed || !res.Stabilized {
			t.Fatalf("attempts=%d resumed=%v stabilized=%v, want 1/false/true", res.Attempts, res.Resumed, res.Stabilized)
		}
		return outcome{res.Rounds, res.MISSize, res.MIS}
	}
	for _, e := range []struct {
		name string
		run  func(t *testing.T) outcome
	}{
		{"Instance.RunUntilStabilized", func(t *testing.T) outcome {
			var edges [][2]int
			for v := 0; v < g.N(); v++ {
				for _, u := range g.Neighbors(v) {
					if int(u) > v {
						edges = append(edges, [2]int{v, int(u)})
					}
				}
			}
			pg, err := repro.NewGraph(g.N(), edges)
			if err != nil {
				t.Fatal(err)
			}
			inst, err := repro.NewInstance(pg, repro.WithSeed(seed))
			if err != nil {
				t.Fatal(err)
			}
			defer inst.Close()
			rounds, err := inst.RunUntilStabilized(0)
			if err != nil {
				t.Fatal(err)
			}
			vs, err := inst.MIS()
			if err != nil {
				t.Fatal(err)
			}
			mis := make([]bool, g.N())
			for _, v := range vs {
				mis[v] = true
			}
			return outcome{rounds, len(vs), mis}
		}},
		{"Supervisor", func(t *testing.T) outcome {
			return supervised(t, stab.SupervisorConfig{})
		}},
		{"Supervisor.FixedRounds", func(t *testing.T) outcome {
			return supervised(t, stab.SupervisorConfig{FixedRounds: ref.Rounds})
		}},
		{"MeasureRecovery", func(t *testing.T) outcome {
			rec := &recordMIS{}
			res, err := stab.MeasureRecovery(stab.RecoveryConfig{Graph: g, Protocol: proto(), Seed: seed, Fault: rec})
			if err != nil {
				t.Fatal(err)
			}
			if res.RecoveryRounds[0] != 0 || res.Changed[0] != 0 {
				t.Fatalf("a fault that corrupts nothing cost %d rounds and changed %d vertices", res.RecoveryRounds[0], res.Changed[0])
			}
			return outcome{res.InitialRounds, graph.CountTrue(rec.mis), rec.mis}
		}},
		{"RunReplicated", func(t *testing.T) outcome {
			res, err := exp.RunReplicated(exp.ReplicatedConfig{
				Graph: g, Protocol: proto(), SeedFn: func(int) uint64 { return seed },
				Trials: 1, Init: core.InitRandom, Workers: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			return outcome{res.Rounds[0], res.MISSize[0], nil}
		}},
	} {
		t.Run(e.name, func(t *testing.T) {
			got := e.run(t)
			if got.rounds != ref.Rounds || got.misSize != ref.MISSize {
				t.Fatalf("rounds=%d |MIS|=%d, core.Run has %d and %d", got.rounds, got.misSize, ref.Rounds, ref.MISSize)
			}
			for v := range got.mis {
				if got.mis[v] != ref.MIS[v] {
					t.Fatalf("MIS differs from core.Run's at vertex %d", v)
				}
			}
		})
	}
}
