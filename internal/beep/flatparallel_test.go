package beep

import (
	"testing"

	"repro/internal/graph"
)

// TestWithWorkersValidation covers the WithWorkers option contract:
// negative counts are a construction error, zero means "pick for me",
// explicit counts are honored by FlatParallel (up to the 64-vertex
// stripe granularity) and ignored by Sequential.
func TestWithWorkersValidation(t *testing.T) {
	g := graph.Cycle(200)

	if _, err := NewNetwork(g, xoverProtocol{channels: 1}, 1, WithWorkers(-1)); err == nil {
		t.Fatal("negative WithWorkers accepted")
	}

	// Sequential: one inline stripe regardless of the requested count,
	// and none on the reference loop.
	net, err := NewNetwork(g, rwKernelProtocol{}, 1, WithWorkers(8))
	if err != nil {
		t.Fatal(err)
	}
	if net.workers != nil || len(net.stripes) != 1 {
		t.Fatalf("sequential engine built %d stripes, pool %v", len(net.stripes), net.workers != nil)
	}
	net.Close()
	net, err = NewNetwork(g, rwKernelProtocol{}, 1, WithFlatKernels(false))
	if err != nil {
		t.Fatal(err)
	}
	if net.flatOps != nil || len(net.stripes) != 0 || net.workers != nil {
		t.Fatal("WithFlatKernels(false) built pipeline state")
	}
	net.Close()

	// FlatParallel: the stripe count never exceeds the request, a pool
	// runs them when there are several, and every stripe boundary except
	// the last is 64-aligned — the word-disjointness contract of the
	// scatter and compose phases.
	for _, want := range []int{1, 2, 3, 999} {
		net, err := NewNetwork(g, rwKernelProtocol{}, 1, WithEngine(FlatParallel), WithWorkers(want))
		if err != nil {
			t.Fatalf("w%d: %v", want, err)
		}
		if got := len(net.stripes); got > want || got < 1 {
			t.Fatalf("w%d: %d stripes", want, got)
		}
		if (net.workers != nil) != (len(net.stripes) > 1) {
			t.Fatalf("w%d: pool %v for %d stripes", want, net.workers != nil, len(net.stripes))
		}
		for i, st := range net.stripes {
			if st.lo&63 != 0 {
				t.Fatalf("stripe %d starts at unaligned vertex %d", i, st.lo)
			}
			if i < len(net.stripes)-1 && st.hi&63 != 0 {
				t.Fatalf("stripe %d ends at unaligned vertex %d", i, st.hi)
			}
		}
		net.Close()
	}

	// FlatParallel needs kernels and refuses the reference loop.
	if _, err := NewNetwork(g, rwProtocol{}, 1, WithEngine(FlatParallel)); err == nil {
		t.Fatal("FlatParallel accepted a kernel-less protocol")
	}
	if _, err := NewNetwork(g, rwKernelProtocol{}, 1, WithEngine(FlatParallel), WithFlatKernels(false)); err == nil {
		t.Fatal("FlatParallel accepted WithFlatKernels(false)")
	}
}
