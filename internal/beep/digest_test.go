package beep

import (
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// digestTrace records the whole-network RoundDigest of every round.
func digestTrace(t *testing.T, g graph.Topology, seed uint64, rounds int, opts ...Option) []uint64 {
	t.Helper()
	var ds []uint64
	opts = append(opts, WithObserver(func(round int, sent, heard []Signal) {
		ds = append(ds, RoundDigest(round, 0, len(sent), sent, heard))
	}))
	net, err := NewNetwork(g, rwKernelProtocol{}, seed, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	net.RandomizeAll()
	for r := 0; r < rounds; r++ {
		net.Step()
	}
	return ds
}

// TestRoundDigestEngines pins the digest's engine independence: the
// reference loop, one stripe, three stripes and forced delta delivery
// observe the same digest every round. 180 vertices are three
// 64-aligned stripes, so WithWorkers(3) really runs the worker pool.
func TestRoundDigestEngines(t *testing.T) {
	g := graph.GNPAvgDegree(180, 6, rng.New(4))
	const seed, rounds = 5, 24
	ref := digestTrace(t, g, seed, rounds, WithFlatKernels(false))
	for _, c := range []struct {
		name    string
		stripes int
		opts    []Option
	}{
		{"workers-1", 1, []Option{WithWorkers(1)}},
		{"workers-3", 3, []Option{WithWorkers(3)}},
		{"forced-delta", 1, []Option{WithForcedDelta()}},
	} {
		net, err := NewNetwork(g, rwKernelProtocol{}, seed, c.opts...)
		if err != nil {
			t.Fatal(err)
		}
		stripes := len(net.stripes)
		net.Close()
		if stripes != c.stripes {
			t.Fatalf("%s laid out %d stripes, want %d", c.name, stripes, c.stripes)
		}
		got := digestTrace(t, g, seed, rounds, c.opts...)
		if len(got) != len(ref) {
			t.Fatalf("%s observed %d rounds, reference %d", c.name, len(got), len(ref))
		}
		for r := range ref {
			if got[r] != ref[r] {
				t.Fatalf("%s: round %d digest %#x, reference loop %#x", c.name, r+1, got[r], ref[r])
			}
		}
	}
}

// randomSignals draws a two-channel round: every vertex sends and hears
// one of the four signals, a third of them silent on both.
func randomSignals(src *rng.Source, n int) (sent, heard []Signal) {
	sent, heard = make([]Signal, n), make([]Signal, n)
	for v := range sent {
		if src.Intn(3) > 0 {
			sent[v], heard[v] = Signal(src.Intn(4)), Signal(src.Intn(4))
		}
	}
	return sent, heard
}

// TestRoundDigestShares pins additivity: the shares of any split of
// [0, n) — cuts off the 64-vertex grid and one-vertex ranges included —
// sum to the whole-network digest.
func TestRoundDigestShares(t *testing.T) {
	src := rng.New(17)
	for _, n := range []int{1, 2, 63, 64, 65, 200, 1000} {
		sent, heard := randomSignals(src, n)
		for round := 1; round <= 4; round++ {
			whole := RoundDigest(round, 0, n, sent, heard)
			for trial := 0; trial < 20; trial++ {
				// Random cuts, plus a one-vertex range at a random vertex.
				cut := make([]bool, n+1)
				for i := src.Intn(n + 1); i > 0; i-- {
					cut[src.Intn(n+1)] = true
				}
				v := src.Intn(n)
				cut[v], cut[v+1] = true, true
				var sum uint64
				for lo := 0; lo < n; {
					hi := lo + 1
					for hi < n && !cut[hi] {
						hi++
					}
					sum += RoundDigest(round, lo, n, sent[lo:hi], heard[lo:hi])
					lo = hi
				}
				if sum != whole {
					t.Fatalf("n=%d round %d trial %d: shares sum to %#x, whole network %#x", n, round, trial, sum, whole)
				}
			}
		}
	}
}

// TestRoundDigestSensitivity changes one vertex's sent or heard signal
// to every other value and requires the digest to move.
func TestRoundDigestSensitivity(t *testing.T) {
	const n = 300
	src := rng.New(23)
	sent, heard := randomSignals(src, n)
	const round = 7
	base := RoundDigest(round, 0, n, sent, heard)
	for i := 0; i < 50; i++ {
		v := src.Intn(n)
		for _, arr := range [][]Signal{sent, heard} {
			old := arr[v]
			for s := Signal(0); s < 4; s++ {
				if s == old {
					continue
				}
				arr[v] = s
				if RoundDigest(round, 0, n, sent, heard) == base {
					t.Fatalf("vertex %d: signal %v → %v left the digest at %#x", v, old, s, base)
				}
			}
			arr[v] = old
		}
	}
}

// TestRoundDigestSilentRounds pins the (round, n) term: an all-silent
// round digests to a nonzero value, distinct for every round and every
// vertex count.
func TestRoundDigestSilentRounds(t *testing.T) {
	seen := make(map[uint64]string)
	for _, n := range []int{1, 2, 64, 65, 4096} {
		silent := make([]Signal, n)
		for round := 1; round <= 50; round++ {
			d := RoundDigest(round, 0, n, silent, silent)
			key := fmt.Sprintf("n=%d round=%d", n, round)
			if d == 0 {
				t.Fatalf("%s: all-silent round digests to 0", key)
			}
			if prev, dup := seen[d]; dup {
				t.Fatalf("%s digests to %#x, like %s", key, d, prev)
			}
			seen[d] = key
			// Only the share starting at vertex 0 carries the term.
			if tail := RoundDigest(round, 1, n, silent[1:], silent[1:]); tail != 0 {
				t.Fatalf("%s: silent share [1, n) is %#x, want 0", key, tail)
			}
		}
	}
}

// TestRoundDigestAllocs pins that digesting a round allocates nothing:
// beepd and the chaos harness digest every round.
func TestRoundDigestAllocs(t *testing.T) {
	sent, heard := randomSignals(rng.New(3), 4096)
	var sink uint64
	if allocs := testing.AllocsPerRun(100, func() {
		sink += RoundDigest(9, 0, len(sent), sent, heard)
	}); allocs != 0 {
		t.Fatalf("RoundDigest allocates %v times per round, want 0", allocs)
	}
	_ = sink
}
