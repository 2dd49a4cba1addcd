package beep

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/graph"
)

// TestWithWorkersValidation pins the construction rules of the one
// parallelism knob, WithWorkers(k): k < 1 is refused; k > 1 needs flat
// kernels, so it refuses a kernel-less protocol and
// WithFlatKernels(false), which the default single stripe falls back
// from to the reference loop; k is capped at the vertex count, stripe
// boundaries stay 64-aligned (the word-disjointness contract of the
// scatter and compose phases) and a pool runs them exactly when there
// are several. A panicking kernel on a multi-stripe network is
// contained into the same *RunError as on one stripe: Vertex -1 (a
// kernel call has no single owning vertex), the round and the phase.
func TestWithWorkersValidation(t *testing.T) {
	g := graph.Cycle(300)
	for _, tc := range []struct {
		name    string
		proto   Protocol
		opts    []Option
		wantErr string // substring of the construction error; "" = accepted
		stripes int    // stripe count of an accepted network (0: reference loop)
		panics  string // the phase a contained kernel panic names in round 1
	}{
		{name: "zero", proto: rwKernelProtocol{}, opts: []Option{WithWorkers(0)}, wantErr: "WithWorkers(0)"},
		{name: "negative", proto: rwKernelProtocol{}, opts: []Option{WithWorkers(-2)}, wantErr: "WithWorkers(-2)"},
		{name: "k2-kernel-less", proto: rwProtocol{}, opts: []Option{WithWorkers(2)}, wantErr: "requires flat kernels"},
		{name: "k2-reference-loop", proto: rwKernelProtocol{}, opts: []Option{WithWorkers(2), WithFlatKernels(false)}, wantErr: "WithFlatKernels(false)"},
		{name: "default", proto: rwKernelProtocol{}, stripes: 1},
		{name: "default-kernel-less", proto: rwProtocol{}},
		{name: "default-reference-loop", proto: rwKernelProtocol{}, opts: []Option{WithFlatKernels(false)}},
		{name: "k1", proto: rwKernelProtocol{}, opts: []Option{WithWorkers(1)}, stripes: 1},
		{name: "k2", proto: rwKernelProtocol{}, opts: []Option{WithWorkers(2)}, stripes: 2},
		// ⌈300/4⌉ = 75 pads to 128: the aligned layout has only 3 stripes.
		{name: "k4-aligned", proto: rwKernelProtocol{}, opts: []Option{WithWorkers(4)}, stripes: 3},
		// Capped at n = 300, then one 64-vertex word per stripe.
		{name: "k999-capped", proto: rwKernelProtocol{}, opts: []Option{WithWorkers(999)}, stripes: 5},
		{name: "k3-emit-panic", proto: flatPanicProtocol{phase: "emit"}, opts: []Option{WithWorkers(3)}, stripes: 3, panics: "emit"},
		{name: "k3-update-panic", proto: flatPanicProtocol{phase: "update"}, opts: []Option{WithWorkers(3)}, stripes: 3, panics: "update"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net, err := NewNetwork(g, tc.proto, 1, tc.opts...)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("construction error %v, want one naming %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer net.Close()
			if got := len(net.stripes); got != tc.stripes {
				t.Fatalf("%d stripes, want %d", got, tc.stripes)
			}
			if (net.flatOps != nil) != (tc.stripes > 0) {
				t.Fatalf("kernels bound %v with %d stripes", net.flatOps != nil, tc.stripes)
			}
			if (net.workers != nil) != (tc.stripes > 1) {
				t.Fatalf("pool %v for %d stripes", net.workers != nil, tc.stripes)
			}
			for i, st := range net.stripes {
				if st.lo&63 != 0 || (i < len(net.stripes)-1 && st.hi&63 != 0) {
					t.Fatalf("stripe %d = [%d, %d) is not 64-aligned", i, st.lo, st.hi)
				}
			}
			stepErr := net.TryStep()
			if tc.panics == "" {
				if stepErr != nil {
					t.Fatal(stepErr)
				}
				return
			}
			var rerr *RunError
			if !errors.As(stepErr, &rerr) {
				t.Fatalf("got %v, want *RunError", stepErr)
			}
			if rerr.Vertex != -1 || rerr.Round != 1 || rerr.Phase != tc.panics {
				t.Fatalf("RunError = vertex %d round %d phase %q, want -1/1/%q",
					rerr.Vertex, rerr.Round, rerr.Phase, tc.panics)
			}
		})
	}
}
