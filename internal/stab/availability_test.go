package stab

import (
	"testing"

	"repro/internal/beep"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rng"
)

func TestMeasureAvailabilityBasics(t *testing.T) {
	g := graph.GNPAvgDegree(80, 6, rng.New(3))
	res, err := MeasureAvailability(AvailabilityConfig{
		Graph:    g,
		Protocol: alg1(),
		Seed:     5,
		Fault:    RandomFault{K: 4},
		Period:   100,
		Window:   1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Injections != 10 {
		t.Fatalf("injections %d, want 10", res.Injections)
	}
	if res.Availability <= 0 || res.Availability > 1 {
		t.Fatalf("availability %v out of (0,1]", res.Availability)
	}
	// With sparse small faults and a long period, the system should be
	// legal most of the time.
	if res.Availability < 0.5 {
		t.Fatalf("availability %v suspiciously low", res.Availability)
	}
	if res.MeanRecovery <= 0 {
		t.Fatalf("mean recovery %v", res.MeanRecovery)
	}
	if res.LongestOutage <= 0 || res.LongestOutage >= 1000 {
		t.Fatalf("longest outage %d", res.LongestOutage)
	}
}

func TestMeasureAvailabilityHighPressure(t *testing.T) {
	// Faults every other round: availability should be visibly lower
	// than with a relaxed period on the same instance.
	g := graph.Cycle(60)
	relaxed, err := MeasureAvailability(AvailabilityConfig{
		Graph: g, Protocol: alg1(), Seed: 7,
		Fault: RandomFault{K: 6}, Period: 200, Window: 2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	pressured, err := MeasureAvailability(AvailabilityConfig{
		Graph: g, Protocol: alg1(), Seed: 7,
		Fault: RandomFault{K: 6}, Period: 5, Window: 2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if pressured.Availability >= relaxed.Availability {
		t.Fatalf("pressure did not reduce availability: %v vs %v",
			pressured.Availability, relaxed.Availability)
	}
}

func TestMeasureAvailabilityValidation(t *testing.T) {
	if _, err := MeasureAvailability(AvailabilityConfig{}); err == nil {
		t.Fatal("nil config accepted")
	}
	g := graph.Path(5)
	if _, err := MeasureAvailability(AvailabilityConfig{Graph: g, Protocol: alg1(), Period: 0}); err == nil {
		t.Fatal("zero period accepted")
	}
}

func TestMeasureAvailabilityNoFaultIsPerfect(t *testing.T) {
	g := graph.Cycle(40)
	res, err := MeasureAvailability(AvailabilityConfig{
		Graph: g, Protocol: alg1(), Seed: 9,
		Fault: nil, Period: 50, Window: 400,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Availability != 1 {
		t.Fatalf("fault-free availability %v, want 1 (closure)", res.Availability)
	}
	if res.LongestOutage != 0 || res.Injections != 0 {
		t.Fatalf("fault-free outage %d injections %d", res.LongestOutage, res.Injections)
	}
}

// nopFault satisfies Fault without touching any state, for boundary
// accounting tests.
type nopFault struct{}

func (nopFault) Name() string                           { return "nop" }
func (nopFault) Apply(*beep.Network, *rng.Source) error { return nil }

// totalFault pins every vertex to claimed membership, guaranteeing an
// illegal configuration on any graph with at least one edge.
type totalFault struct{}

func (totalFault) Name() string { return "total" }
func (totalFault) Apply(net *beep.Network, _ *rng.Source) error {
	return ClaimAllFault{K: net.N()}.Apply(net, rng.New(1))
}

// TestMeasureAvailabilityBoundaryAccounting pins the outage bookkeeping
// at the window edges. A no-op "fault" every other round (including one
// on the final observed round) recovers in exactly one round each time:
// availability 1, zero outage, mean recovery 1.
func TestMeasureAvailabilityBoundaryAccounting(t *testing.T) {
	res, err := MeasureAvailability(AvailabilityConfig{
		Graph: graph.Cycle(20), Protocol: alg1(), Seed: 3,
		Fault: nopFault{}, Period: 2, Window: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Injections != 3 {
		t.Fatalf("injections %d, want 3 (rounds 0, 2, 4)", res.Injections)
	}
	if res.Availability != 1 {
		t.Fatalf("availability %v, want 1 for a no-op fault", res.Availability)
	}
	if res.LongestOutage != 0 {
		t.Fatalf("longest outage %d, want 0", res.LongestOutage)
	}
	if res.MeanRecovery != 1 {
		t.Fatalf("mean recovery %v, want 1", res.MeanRecovery)
	}
}

// TestMeasureAvailabilityZeroRecoveries pins the other edge: a fault
// storm so dense the system is never legal inside the window. With zero
// completed recoveries MeanRecovery must stay 0 (not NaN), availability
// 0, and the single outage must span the whole window.
func TestMeasureAvailabilityZeroRecoveries(t *testing.T) {
	res, err := MeasureAvailability(AvailabilityConfig{
		Graph: graph.Complete(10), Protocol: alg1(), Seed: 5,
		Fault: totalFault{}, Period: 1, Window: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Availability != 0 {
		t.Fatalf("availability %v, want 0", res.Availability)
	}
	if res.MeanRecovery != 0 {
		t.Fatalf("mean recovery %v, want 0 with no completed recoveries", res.MeanRecovery)
	}
	if res.LongestOutage != 6 {
		t.Fatalf("longest outage %d, want the whole window (6)", res.LongestOutage)
	}
	if res.Injections != 6 {
		t.Fatalf("injections %d, want 6", res.Injections)
	}
}

// TestMeasureAvailabilityUnderNoiseAndSleep combines transient state
// corruption with persistent channel faults: the storm must still run
// to completion and report sane numbers, with availability strictly
// below the fault-free ideal (false beeps alone keep knocking MIS
// members out).
func TestMeasureAvailabilityUnderNoiseAndSleep(t *testing.T) {
	res, err := MeasureAvailability(AvailabilityConfig{
		Graph:    graph.GNPAvgDegree(40, 5, rng.New(15)),
		Protocol: alg1(),
		Seed:     17,
		Fault:    RandomFault{K: 3},
		Period:   150,
		Window:   1500,
		Options:  []beep.Option{beep.WithNoise(beep.Noise{PLoss: 0.02, PFalse: 0.005}), beep.WithSleep(beep.Sleep{P: 0.02})},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Availability <= 0 || res.Availability >= 1 {
		t.Fatalf("noisy availability %v, want strictly inside (0,1)", res.Availability)
	}
	if res.MeanRecovery <= 0 {
		t.Fatalf("mean recovery %v", res.MeanRecovery)
	}
}

func TestMeasureAvailabilityWithAlg2(t *testing.T) {
	g := graph.GNPAvgDegree(60, 6, rng.New(11))
	res, err := MeasureAvailability(AvailabilityConfig{
		Graph:    g,
		Protocol: core.NewAlg2(core.NeighborhoodMaxDegree(core.DefaultC1TwoHop)),
		Seed:     13,
		Fault:    MISFault{K: 2},
		Period:   80,
		Window:   800,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Availability <= 0 {
		t.Fatalf("availability %v", res.Availability)
	}
}
