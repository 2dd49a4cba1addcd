package stab

import (
	"reflect"
	"testing"

	"repro/internal/beep"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rng"
)

func TestMeasureChurnFlapStorm(t *testing.T) {
	g := graph.GNPAvgDegree(48, 5, rng.New(41))
	sched, err := graph.FlapSchedule(g, 5, 10, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	cfg := ChurnConfig{
		Graph:    g,
		Protocol: alg1(),
		Seed:     17,
		Schedule: sched,
		Dwell:    50,
	}
	res, err := MeasureChurn(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Events) != 5 {
		t.Fatalf("recorded %d events, want 5", len(res.Events))
	}
	if res.Recovered != 5 {
		t.Fatalf("recovered %d/5 flap events", res.Recovered)
	}
	if res.InitialRounds <= 0 {
		t.Fatalf("InitialRounds = %d", res.InitialRounds)
	}
	for i, ev := range res.Events {
		if !ev.Recovered || ev.RecoveryRounds <= 0 {
			t.Fatalf("event %d (%s): recovered=%v rounds=%d", i, ev.Label, ev.Recovered, ev.RecoveryRounds)
		}
		// Flapping edges never changes the vertex set.
		if ev.Survivors != g.N() || ev.Joiners != 0 {
			t.Fatalf("event %d: survivors=%d joiners=%d on an edge-only storm", i, ev.Survivors, ev.Joiners)
		}
		if ev.Adjustment < 0 || ev.Adjustment > g.N() {
			t.Fatalf("event %d: adjustment %d out of range", i, ev.Adjustment)
		}
	}
	if res.Availability <= 0 || res.Availability > 1 {
		t.Fatalf("availability %v out of (0,1]", res.Availability)
	}
	if res.FinalN != g.N() {
		t.Fatalf("FinalN = %d, want %d", res.FinalN, g.N())
	}
	if res.ObservedRounds <= 0 {
		t.Fatalf("ObservedRounds = %d", res.ObservedRounds)
	}

	// The storm is a deterministic function of its configuration.
	res2, err := MeasureChurn(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, res2) {
		t.Fatalf("same configuration produced different storms:\n%+v\n%+v", res, res2)
	}
}

func TestMeasureChurnGrowth(t *testing.T) {
	g := graph.Cycle(24)
	sched, err := graph.GrowthSchedule(g, 3, 4, 2, rng.New(51))
	if err != nil {
		t.Fatal(err)
	}
	res, err := MeasureChurn(ChurnConfig{
		Graph:    g,
		Protocol: alg1(),
		Seed:     23,
		Schedule: sched,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Recovered != 3 {
		t.Fatalf("recovered %d/3 growth events", res.Recovered)
	}
	n := 24
	for i, ev := range res.Events {
		if ev.Survivors != n || ev.Joiners != 4 {
			t.Fatalf("event %d: survivors=%d joiners=%d, want %d survivors and 4 joiners", i, ev.Survivors, ev.Joiners, n)
		}
		n += 4
	}
	if res.FinalN != 24+3*4 {
		t.Fatalf("FinalN = %d, want %d", res.FinalN, 24+3*4)
	}
}

func TestMeasureChurnCrash(t *testing.T) {
	g := graph.GNPAvgDegree(40, 6, rng.New(61))
	sched, err := graph.CrashSchedule(g, 3, 5, rng.New(62))
	if err != nil {
		t.Fatal(err)
	}
	res, err := MeasureChurn(ChurnConfig{
		Graph:    g,
		Protocol: alg1(),
		Seed:     29,
		Schedule: sched,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Recovered != 3 {
		t.Fatalf("recovered %d/3 crash events", res.Recovered)
	}
	if res.FinalN != 40-3*5 {
		t.Fatalf("FinalN = %d, want %d", res.FinalN, 40-3*5)
	}
	for i, ev := range res.Events {
		if ev.Joiners != 0 {
			t.Fatalf("event %d: %d joiners in a pure-crash storm", i, ev.Joiners)
		}
	}
}

// TestMeasureChurnWithMuteAdversaries runs a flap storm with two mute
// (crashed-silent) vertices installed: the correct induced subgraph must
// still re-stabilize after every event, since a mute vertex is
// observationally identical to an absent one, and the adjustment measure
// must never count the excluded vertices.
func TestMeasureChurnWithMuteAdversaries(t *testing.T) {
	g := graph.GNPAvgDegree(36, 5, rng.New(71))
	sched, err := graph.FlapSchedule(g, 3, 6, rng.New(72))
	if err != nil {
		t.Fatal(err)
	}
	res, err := MeasureChurn(ChurnConfig{
		Graph:    g,
		Protocol: alg1(),
		Seed:     31,
		Schedule: sched,
		Options:  []beep.Option{beep.WithAdversaries(beep.AdvMute, []int{0, 7})},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Recovered != 3 {
		t.Fatalf("recovered %d/3 events with mute adversaries", res.Recovered)
	}
}

func TestMeasureChurnValidation(t *testing.T) {
	g := graph.Path(4)
	if _, err := MeasureChurn(ChurnConfig{Protocol: alg1(), Schedule: []graph.ChurnEvent{{}}}); err == nil {
		t.Fatal("nil graph accepted")
	}
	if _, err := MeasureChurn(ChurnConfig{Graph: g, Schedule: []graph.ChurnEvent{{}}}); err == nil {
		t.Fatal("nil protocol accepted")
	}
	if _, err := MeasureChurn(ChurnConfig{Graph: g, Protocol: alg1()}); err == nil {
		t.Fatal("empty schedule accepted")
	}
	// An event whose edits don't fit the evolved graph must surface.
	bad := []graph.ChurnEvent{{Label: "bad", Edits: []graph.Edit{{Kind: graph.EditDelVertex, U: 99}}}}
	if _, err := MeasureChurn(ChurnConfig{Graph: g, Protocol: alg1(), Seed: 1, Schedule: bad}); err == nil {
		t.Fatal("invalid event accepted")
	}
}

// TestClosureNoiselessAfterChurn is the closure half of the churn story:
// once the network has re-stabilized after a partition-and-heal cycle,
// the fault-free execution must hold the same legal configuration
// forever.
func TestClosureNoiselessAfterChurn(t *testing.T) {
	g := graph.GNPAvgDegree(32, 5, rng.New(81))
	sched, err := graph.PartitionHealSchedule(g, 1, rng.New(82))
	if err != nil {
		t.Fatal(err)
	}
	net, err := beep.NewNetwork(g, alg1(), 37)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	net.RandomizeAll()
	if _, err := core.Stabilize(net, nil, 0); err != nil {
		t.Fatal(err)
	}
	cur := g
	for _, ev := range sched {
		g2, mapping, err := graph.ApplyEdits(cur, ev.Edits)
		if err != nil {
			t.Fatal(err)
		}
		if err := net.Rewire(g2, mapping[:cur.N()]); err != nil {
			t.Fatal(err)
		}
		if _, err := core.Stabilize(net, nil, 0); err != nil {
			t.Fatalf("no recovery after %s: %v", ev.Label, err)
		}
		cur = g2
	}
	if err := CheckClosure(net, 300); err != nil {
		t.Fatalf("closure lost after churn: %v", err)
	}
}
