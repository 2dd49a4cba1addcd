package beep

import (
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// TestPartitionEquivalence pins the partition determinism contract: k
// networks each stepping only its own vertex range, with the sender
// word deltas merged between emit and update exactly as a coordinator
// would, reproduce the reference loop signal for signal. The ranges are
// deliberately unaligned so the masked pack + OR-merge of shared edge
// words is exercised, and a mid-run ResetSparse (the restore path)
// re-establishes the base case on both sides of the exchange.
func TestPartitionEquivalence(t *testing.T) {
	g := graph.GNPAvgDegree(100, 5, rng.New(3))
	const rounds, resetAt = 12, 6
	ref := signalTrace(t, g, rwProtocol{}, 9, rounds)

	// Partitioned: one full network per range (as distributed workers
	// hold), stepped range-locally with a manual delta merge.
	ranges := [][2]int{{0, 37}, {37, 70}, {70, 100}}
	parts := make([]*Partition, len(ranges))
	for i, r := range ranges {
		net, err := NewNetwork(g, rwKernelProtocol{}, 9)
		if err != nil {
			t.Fatal(err)
		}
		defer net.Close()
		net.RandomizeAll()
		p, err := net.Partition(r[0], r[1])
		if err != nil {
			t.Fatal(err)
		}
		parts[i] = p
	}

	words := (g.N() + 63) / 64
	cur := make([][]uint64, len(parts)) // per-partition uploaded words
	for i := range cur {
		cur[i] = make([]uint64, words)
	}
	merged := make([]uint64, words)
	for r := 0; r < rounds; r++ {
		if r == resetAt {
			for i, p := range parts {
				p.ResetSparse()
				clear(cur[i])
			}
			clear(merged)
		}
		for i, p := range parts {
			if _, err := p.EmitLocalSparse(); err != nil {
				t.Fatalf("round %d: emit: %v", r+1, err)
			}
			wis, vals := p.SparseUpload(0)
			for j, wi := range wis {
				cur[i][wi] = vals[j]
			}
		}
		// Coordinator merge: OR each word over its owners (masked pack
		// keeps foreign bits zero, so shared edge words OR cleanly) and
		// download every word whose merged value moved.
		for wi := range merged {
			var m uint64
			for i := range parts {
				m |= cur[i][wi]
			}
			if m != merged[wi] {
				merged[wi] = m
				for _, p := range parts {
					p.ApplyDeltaWord(0, wi, m)
				}
			}
		}
		for _, p := range parts {
			if _, err := p.UpdateLocalSparse(); err != nil {
				t.Fatalf("round %d: update: %v", r+1, err)
			}
		}
		for _, p := range parts {
			lo, hi := p.Range()
			sent, heard := p.Signals()
			for v := lo; v < hi; v++ {
				if sent[v] != ref[r][v] {
					t.Fatalf("round %d vertex %d: partitioned sent %v, reference %v", r+1, v, sent[v], ref[r][v])
				}
				if heard[v] != ref[r][g.N()+v] {
					t.Fatalf("round %d vertex %d: partitioned heard %v, reference %v", r+1, v, heard[v], ref[r][g.N()+v])
				}
			}
		}
	}
}

// TestPartitionValidation pins the construction-time rejections: bad
// ranges, protocols without flat kernels, and the shared-sequential-
// randomness features (noise, sleep, adversaries) that ranges cannot
// split.
func TestPartitionValidation(t *testing.T) {
	g := graph.Cycle(64)

	flat := func(opts ...Option) *Network {
		t.Helper()
		net, err := NewNetwork(g, flatPanicProtocol{round: -1}, 1, opts...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(net.Close)
		return net
	}

	for _, bad := range [][2]int{{-1, 10}, {10, 5}, {0, 65}} {
		if _, err := flat().Partition(bad[0], bad[1]); err == nil {
			t.Fatalf("range [%d, %d) accepted", bad[0], bad[1])
		}
	}

	// No flat kernels: Partition runs the pipeline's kernels only.
	seqNet, err := NewNetwork(g, panicProtocol{vertex: -1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer seqNet.Close()
	if _, err := seqNet.Partition(0, 10); err == nil || !strings.Contains(err.Error(), "flat kernels") {
		t.Fatalf("protocol without flat kernels accepted: %v", err)
	}

	if _, err := flat(WithNoise(Noise{PLoss: 0.2})).Partition(0, 10); err == nil {
		t.Fatal("noisy network accepted")
	}
	if _, err := flat(WithSleep(Sleep{P: 0.1})).Partition(0, 10); err == nil {
		t.Fatal("sleepy network accepted")
	}

	closed := flat()
	closed.Close()
	if _, err := closed.Partition(0, 10); err == nil {
		t.Fatal("closed network accepted")
	}
}

// TestPartitionPanicContainment pins the poisoning contract: a kernel
// panic inside a range pass surfaces as *RunError and poisons the
// network for every later call, like the engines.
func TestPartitionPanicContainment(t *testing.T) {
	g := graph.Cycle(64)
	net, err := NewNetwork(g, flatPanicProtocol{round: 0, phase: "emit"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	p, err := net.Partition(0, 32)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.EmitLocalSparse(); err == nil {
		t.Fatal("injected panic not surfaced")
	} else if rerr, ok := err.(*RunError); !ok || rerr.Phase != "emit" {
		t.Fatalf("emit fault surfaced as %T (%v), want *RunError{Phase: emit}", err, err)
	}
	if _, err := p.UpdateLocalSparse(); err == nil {
		t.Fatal("poisoned network still updating")
	}
	if _, _, err := net.ExportRangeState(0, 32); err == nil {
		t.Fatal("poisoned network still exporting state")
	}
}
