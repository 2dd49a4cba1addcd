package core

import (
	"fmt"
	"testing"

	"repro/internal/beep"
	"repro/internal/graph"
	"repro/internal/rng"
)

// TestReseedMatchesFreshNetwork is the property promised by
// beep.Network.Reseed: after polluting a network with a full execution
// under a different seed, Reseed(s) must make the subsequent execution
// bit-identical to a freshly constructed network with seed s — signal
// traces and final levels alike. The property is checked on every
// protocol, on the reference loop and the pipeline at one and three
// stripes, and with every auxiliary random stream active (noise, sleep, adversaries), so
// a stream that Reseed forgot to re-derive fails loudly.
func TestReseedMatchesFreshNetwork(t *testing.T) {
	// 160 vertices: the three-stripe variants lay out three 64-aligned
	// stripes (a graph of at most 128 vertices would run them on fewer).
	g := graph.GNPAvgDegree(160, 5, rng.New(21))
	protos := []struct {
		name  string
		proto beep.Protocol
	}{
		{"alg1", NewAlg1(KnownMaxDegreeExact(DefaultC1KnownDelta))},
		{"alg2", NewAlg2(NeighborhoodMaxDegree(DefaultC1TwoHop))},
		{"adaptive", NewAdaptiveAlg1()},
	}
	faults := []beep.Option{
		beep.WithNoise(beep.Noise{PLoss: 0.05, PFalse: 0.02}),
		beep.WithSleep(beep.Sleep{P: 0.1}),
		beep.WithAdversaries(beep.AdvBabbler, []int{3, 17, 100, 150}),
	}
	variants := []struct {
		name string
		opts []beep.Option
	}{
		{"sequential", nil},
		{"sequential-ref", []beep.Option{beep.WithFlatKernels(false)}},
		{"sequential-faulty", faults},
		// flat: the flat-kernel pipeline over three stripes.
		{"flat", []beep.Option{beep.WithWorkers(3)}},
		{"flat-faulty", append([]beep.Option{beep.WithWorkers(3)}, faults...)},
	}
	const pollute, rounds = 37, 80
	const seedA, seedB = 1001, 2002

	type record struct {
		trace  [][2][]beep.Signal
		levels []int
	}
	// build returns a network whose observer appends into *trace, so the
	// recording buffer can be swapped between the pollution phase and the
	// measured phase.
	build := func(t *testing.T, proto beep.Protocol, seed uint64, extra []beep.Option, trace *[][2][]beep.Signal) *beep.Network {
		t.Helper()
		opts := append([]beep.Option{
			beep.WithObserver(func(_ int, sent, heard []beep.Signal) {
				s := append([]beep.Signal(nil), sent...)
				h := append([]beep.Signal(nil), heard...)
				*trace = append(*trace, [2][]beep.Signal{s, h})
			})}, extra...)
		net, err := beep.NewNetwork(g, proto, seed, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return net
	}
	collect := func(t *testing.T, net *beep.Network, rounds int, trace *[][2][]beep.Signal) record {
		t.Helper()
		*trace = nil
		net.RandomizeAll()
		for r := 0; r < rounds; r++ {
			net.Step()
		}
		rec := record{trace: *trace}
		for v := 0; v < net.N(); v++ {
			rec.levels = append(rec.levels, net.Machine(v).(Leveled).Level())
		}
		return rec
	}

	for _, p := range protos {
		for _, vr := range variants {
			t.Run(fmt.Sprintf("%s/%s", p.name, vr.name), func(t *testing.T) {
				var reTrace [][2][]beep.Signal
				reused := build(t, p.proto, seedA, vr.opts, &reTrace)
				defer reused.Close()
				collect(t, reused, pollute, &reTrace) // pollute every stream and slab
				if err := reused.Reseed(seedB); err != nil {
					t.Fatal(err)
				}
				got := collect(t, reused, rounds, &reTrace)

				var frTrace [][2][]beep.Signal
				fresh := build(t, p.proto, seedB, vr.opts, &frTrace)
				defer fresh.Close()
				want := collect(t, fresh, rounds, &frTrace)

				for r := range want.trace {
					for v := range want.trace[r][0] {
						if got.trace[r][0][v] != want.trace[r][0][v] || got.trace[r][1][v] != want.trace[r][1][v] {
							t.Fatalf("round %d vertex %d diverged: reused (sent=%v heard=%v) vs fresh (sent=%v heard=%v)",
								r+1, v, got.trace[r][0][v], got.trace[r][1][v], want.trace[r][0][v], want.trace[r][1][v])
						}
					}
				}
				for v := range want.levels {
					if got.levels[v] != want.levels[v] {
						t.Fatalf("final level of vertex %d diverged: reused %d vs fresh %d", v, got.levels[v], want.levels[v])
					}
				}
			})
		}
	}
}
