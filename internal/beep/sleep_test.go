package beep

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

func TestSleepValidation(t *testing.T) {
	for _, bad := range []Sleep{{P: -0.1}, {P: 1}, {P: 1.5}} {
		if _, err := NewNetwork(graph.Path(2), counterProtocol{}, 1, WithSleep(bad)); err == nil {
			t.Errorf("sleep %+v accepted", bad)
		}
	}
	if _, err := NewNetwork(graph.Path(2), counterProtocol{}, 1, WithSleep(Sleep{P: 0.5})); err != nil {
		t.Fatal(err)
	}
}

func TestSleepZeroIsTransparent(t *testing.T) {
	g := graph.GNP(30, 0.1, rng.New(7))
	run := func(opts ...Option) []Signal {
		var last []Signal
		net, err := NewNetwork(g, probeProtocol{}, 5, append(opts,
			WithObserver(func(_ int, sent, _ []Signal) {
				last = append(last[:0], sent...)
			}))...)
		if err != nil {
			t.Fatal(err)
		}
		defer net.Close()
		for i := 0; i < 25; i++ {
			net.Step()
		}
		return append([]Signal(nil), last...)
	}
	a := run()
	b := run(WithSleep(Sleep{}))
	for v := range a {
		if a[v] != b[v] {
			t.Fatal("zero sleep changed the execution")
		}
	}
}

func TestSleepRateAndSemantics(t *testing.T) {
	// alwaysBeep machines: a silent vertex in a round must be asleep,
	// and its Update must be skipped (round counter freezes).
	g := graph.Empty(300)
	silentRounds := 0
	const rounds = 200
	net, err := NewNetwork(g, alwaysBeepProtocol{}, 3, WithSleep(Sleep{P: 0.3}),
		WithObserver(func(_ int, sent, _ []Signal) {
			for _, s := range sent {
				if s == Silent {
					silentRounds++
				}
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	for i := 0; i < rounds; i++ {
		net.Step()
	}
	rate := float64(silentRounds) / float64(300*rounds)
	if math.Abs(rate-0.3) > 0.02 {
		t.Fatalf("sleep rate %v, want ~0.3", rate)
	}
}

func TestSleepSkipsUpdate(t *testing.T) {
	g := graph.Empty(200)
	net, err := NewNetwork(g, counterProtocol{}, 5, WithSleep(Sleep{P: 0.5}))
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	const rounds = 100
	for i := 0; i < rounds; i++ {
		net.Step()
	}
	// counterMachine increments `round` only when Update runs; with
	// P=0.5 the counters should sit near rounds/2, far from rounds.
	total := 0
	for v := 0; v < net.N(); v++ {
		total += net.Machine(v).(*counterMachine).round
	}
	mean := float64(total) / float64(net.N())
	if math.Abs(mean-rounds/2) > 5 {
		t.Fatalf("mean updates %v, want ~%d (updates not skipped?)", mean, rounds/2)
	}
}

// TestSleepDeterministicAcrossEngines pins the sleep pass of the round
// pipeline: with sleepers drawn every round, every flat-kernel
// configuration must reproduce the reference loop's (sent, heard)
// trace, because the sleep draws are made sequentially before the
// stripes run and sleeping vertices are skipped by the kernels.
func TestSleepDeterministicAcrossEngines(t *testing.T) {
	g := graph.GNP(160, 0.03, rng.New(9))
	sleep := WithSleep(Sleep{P: 0.2})
	const seed, rounds = 11, 30
	ref := signalTrace(t, g, rwProtocol{}, seed, rounds, sleep)
	if sameSignals(ref, signalTrace(t, g, rwProtocol{}, seed, rounds)) {
		t.Fatal("sleep left the reference trace unchanged; the test would check nothing")
	}
	samePipelineTraces(t, g, seed, rounds, ref, sleep)
}

func TestSleepCheckpointResume(t *testing.T) {
	g := graph.GNP(30, 0.15, rng.New(13))
	mk := func(seed uint64) *Network {
		net, err := NewNetwork(g, codecProtocol{}, seed, WithSleep(Sleep{P: 0.25}))
		if err != nil {
			t.Fatal(err)
		}
		return net
	}
	ref := mk(7)
	defer ref.Close()
	full := traceOf(t, ref, 40)

	a := mk(7)
	defer a.Close()
	_ = traceOf(t, a, 20)
	cp, err := a.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	b := mk(42)
	defer b.Close()
	if err := b.Restore(cp); err != nil {
		t.Fatal(err)
	}
	tail := traceOf(t, b, 20)
	for r := 0; r < 20; r++ {
		for v := range tail[r] {
			if tail[r][v] != full[20+r][v] {
				t.Fatalf("sleep-resumed trace diverged at round %d vertex %d", 21+r, v)
			}
		}
	}
}
