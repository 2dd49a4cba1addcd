package beep

import (
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// xoverProtocol is a do-nothing protocol used to build networks whose
// sent arrays the delivery tests fill by hand.
type xoverProtocol struct{ channels int }

func (p xoverProtocol) Channels() int                          { return p.channels }
func (p xoverProtocol) NewMachine(int, graph.Topology) Machine { return xoverMachine{} }

type xoverMachine struct{}

func (xoverMachine) Emit(*rng.Source) Signal { return Silent }
func (xoverMachine) Update(_, _ Signal)      {}
func (xoverMachine) Randomize(*rng.Source)   {}

// deliverScatter computes heard via the pipeline's scatter (pack →
// scatter → compose over one stripe), regardless of the cost model.
func deliverScatter(n *Network) []Signal {
	packAll(n)
	n.scatterStripe(&n.stripes[0])
	n.composeHeardRange(0, n.N())
	return append([]Signal(nil), n.heard...)
}

// packAll lays out one stripe and packs the sender bitsets from sent.
func packAll(n *Network) {
	N := n.N()
	n.stripes = []stripe{{lo: 0, hi: N}}
	for c := 0; c < n.channels; c++ {
		n.sendBits[c] = make([]uint64, (N+63)>>6)
	}
	for wi := range n.sendBits[0] {
		v0, v1 := packWord(n.sent, wi, 0, N, n.channels == 2)
		n.sendBits[0][wi] = v0
		if n.channels == 2 {
			n.sendBits[1][wi] = v1
		}
	}
}

// deliverGather computes heard via the gather (reference early-exit
// neighbor scan), regardless of the cost model.
func deliverGather(n *Network) []Signal {
	n.deliverRange(0, n.N(), n.rowBuf)
	return append([]Signal(nil), n.heard...)
}

// TestDeliverCrossoverBoundary pins two properties of the sparse/dense
// delivery crossover:
//
//  1. The cost model (deliveryWantsGather) flips exactly where
//     GatherCrossoverFactor says it must: at senders × (avgDeg+1) ==
//     GatherCrossoverFactor × N the scatter path is still taken (the
//     comparison is strict), one more sender selects gather.
//  2. Both paths produce bit-identical heard signals at and around the
//     boundary (and at the extremes), on one- and two-channel networks
//     — the crossover is a pure cost decision, invisible to traces.
func TestDeliverCrossoverBoundary(t *testing.T) {
	// Cycle(240): avgDeg = 2, so the model compares senders×3 against
	// 2×240 = 480 — senders = 160 sits exactly ON the boundary.
	const N = 240
	boundary := GatherCrossoverFactor * N / (2 + 1) // 160
	if deliveryWantsGather(boundary, 2, N) {
		t.Fatalf("cost model not strict: %d senders on the boundary chose gather", boundary)
	}
	if !deliveryWantsGather(boundary+1, 2, N) {
		t.Fatalf("cost model did not flip one sender past the boundary")
	}

	g := graph.Cycle(N)
	src := rng.New(91)
	for _, channels := range []int{1, 2} {
		for _, senders := range []int{0, 1, boundary - 1, boundary, boundary + 1, N} {
			t.Run(fmt.Sprintf("ch%d/senders%d", channels, senders), func(t *testing.T) {
				net, err := NewNetwork(g, xoverProtocol{channels: channels}, 1)
				if err != nil {
					t.Fatal(err)
				}
				defer net.Close()
				// A random sender set of the requested size, with random
				// channel choices on two-channel networks.
				for v := range net.sent {
					net.sent[v] = Silent
				}
				for _, v := range src.Perm(N)[:senders] {
					sig := Chan1
					if channels == 2 && src.Coin() {
						sig = Chan2
					}
					net.sent[v] = sig
				}
				sc := deliverScatter(net)
				ga := deliverGather(net)
				for v := range sc {
					if sc[v] != ga[v] {
						t.Fatalf("paths diverge at vertex %d: scatter %v, gather %v", v, sc[v], ga[v])
					}
				}
			})
		}
	}
}

// BenchmarkDeliverCrossover measures both delivery paths across sender
// fractions on an avg-degree-8 G(n,p) graph — the measurement behind
// the GatherCrossoverFactor default. The crossover model predicts
// scatter wins below senders ≈ 2N/9 (fraction ≈ 0.22 here) and gather
// above; the recorded curves should cross near that fraction.
func BenchmarkDeliverCrossover(b *testing.B) {
	const N = 1 << 16
	g := graph.GNPAvgDegree(N, 8, rng.New(5))
	src := rng.New(17)
	for _, fracPct := range []int{1, 5, 10, 22, 40, 80} {
		senders := N * fracPct / 100
		net, err := NewNetwork(g, xoverProtocol{channels: 1}, 1)
		if err != nil {
			b.Fatal(err)
		}
		for v := range net.sent {
			net.sent[v] = Silent
		}
		for _, v := range src.Perm(N)[:senders] {
			net.sent[v] = Chan1
		}
		b.Run(fmt.Sprintf("scatter/frac%02d", fracPct), func(b *testing.B) {
			b.ReportAllocs()
			packAll(net)
			for i := 0; i < b.N; i++ {
				net.scatterStripe(&net.stripes[0])
				net.composeHeardRange(0, N)
			}
		})
		b.Run(fmt.Sprintf("gather/frac%02d", fracPct), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				net.deliverRange(0, N, net.rowBuf)
			}
		})
		net.Close()
	}
}
