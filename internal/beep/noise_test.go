package beep

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

func TestNoiseValidation(t *testing.T) {
	for _, bad := range []Noise{
		{PLoss: -0.1}, {PLoss: 1.1}, {PFalse: -0.1}, {PFalse: 2},
	} {
		if _, err := NewNetwork(graph.Path(2), counterProtocol{}, 1, WithNoise(bad)); err == nil {
			t.Errorf("noise %+v accepted", bad)
		}
	}
	if _, err := NewNetwork(graph.Path(2), counterProtocol{}, 1, WithNoise(Noise{PLoss: 0.5, PFalse: 0.5})); err != nil {
		t.Fatal(err)
	}
}

func TestNoiseZeroIsNoiseless(t *testing.T) {
	g := graph.GNP(40, 0.1, nil2src(7))
	run := func(opts ...Option) []Signal {
		var last []Signal
		net, err := NewNetwork(g, probeProtocol{}, 5, append(opts,
			WithObserver(func(_ int, _, heard []Signal) {
				last = append(last[:0], heard...)
			}))...)
		if err != nil {
			t.Fatal(err)
		}
		defer net.Close()
		for i := 0; i < 30; i++ {
			net.Step()
		}
		return append([]Signal(nil), last...)
	}
	clean := run()
	zeroNoise := run(WithNoise(Noise{}))
	for v := range clean {
		if clean[v] != zeroNoise[v] {
			t.Fatal("zero noise changed the execution")
		}
	}
}

func TestNoiseFalsePositiveRate(t *testing.T) {
	// On an empty graph nothing is ever genuinely heard, so the heard
	// rate equals the false-positive rate.
	g := graph.Empty(200)
	heardRounds := 0
	const rounds = 500
	pFalse := 0.1
	net, err := NewNetwork(g, counterProtocol{}, 3,
		WithNoise(Noise{PFalse: pFalse}),
		WithObserver(func(_ int, _, heard []Signal) {
			for _, h := range heard {
				if h.Has(Chan1) {
					heardRounds++
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
	total := float64(200 * rounds)
	rate := float64(heardRounds) / total
	if math.Abs(rate-pFalse) > 0.01 {
		t.Fatalf("false positive rate %v, want ~%v", rate, pFalse)
	}
}

func TestNoiseLossRate(t *testing.T) {
	// On a complete graph with the always-beeping counter machines in
	// round 1, everyone genuinely hears; losses show as silence.
	g := graph.Complete(100)
	lost := 0
	net, err := NewNetwork(g, alwaysBeepProtocol{}, 3,
		WithNoise(Noise{PLoss: 0.2}),
		WithObserver(func(_ int, _, heard []Signal) {
			for _, h := range heard {
				if !h.Has(Chan1) {
					lost++
				}
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	const rounds = 200
	for i := 0; i < rounds; i++ {
		net.Step()
	}
	rate := float64(lost) / float64(100*rounds)
	if math.Abs(rate-0.2) > 0.02 {
		t.Fatalf("loss rate %v, want ~0.2", rate)
	}
}

// TestNoiseDeterministicAcrossEngines pins the noise pass of the round
// pipeline: under listening noise every flat-kernel configuration —
// one and three stripes, with and without forced delta delivery —
// must reproduce the reference loop's (sent, heard) trace, because the
// noise stream is consumed in vertex order whatever the stripe count.
func TestNoiseDeterministicAcrossEngines(t *testing.T) {
	g := graph.GNP(50, 0.1, nil2src(9))
	noise := WithNoise(Noise{PLoss: 0.1, PFalse: 0.05})
	const seed, rounds = 11, 40
	ref := signalTrace(t, g, rwProtocol{}, seed, rounds, noise)
	if sameSignals(ref, signalTrace(t, g, rwProtocol{}, seed, rounds)) {
		t.Fatal("noise left the reference trace unchanged; the test would check nothing")
	}
	for _, c := range pipelineConfigs {
		opts := append([]Option{noise}, c.opts...)
		sameTrace(t, c.name, signalTrace(t, g, rwKernelProtocol{}, seed, rounds, opts...), ref)
	}
}

// sameSignals reports whether two traces are equal slot for slot.
func sameSignals(a, b [][]Signal) bool {
	if len(a) != len(b) {
		return false
	}
	for r := range a {
		if len(a[r]) != len(b[r]) {
			return false
		}
		for i := range a[r] {
			if a[r][i] != b[r][i] {
				return false
			}
		}
	}
	return true
}

// alwaysBeepProtocol beeps on channel 1 every round.
type alwaysBeepProtocol struct{}

func (alwaysBeepProtocol) Channels() int { return 1 }
func (alwaysBeepProtocol) NewMachine(int, graph.Topology) Machine {
	return &alwaysBeepMachine{}
}

type alwaysBeepMachine struct{}

func (*alwaysBeepMachine) Emit(*rng.Source) Signal { return Chan1 }
func (*alwaysBeepMachine) Update(_, _ Signal)      {}
func (*alwaysBeepMachine) Randomize(*rng.Source)   {}

// nil2src builds an rng source for test graph generation.
func nil2src(seed uint64) *rng.Source { return rng.New(seed) }
