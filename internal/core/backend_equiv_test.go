package core

import (
	"fmt"
	"testing"

	"repro/internal/beep"
	"repro/internal/graph"
)

// TestEngineTraceEquivalenceBackends asserts that the graph backend is
// invisible to executions: for each family, every Topology backend —
// materialized CSR, implicit generator, and compact varint (default and
// stride-1 sampling) — produces bit-identical (sent, heard) traces and
// the same stabilization round on the reference loop and on the
// flat-kernel pipeline at one and several stripes, against the
// materialized sequential interface-loop reference. This is the
// contract that lets the scale experiments swap in zero-storage
// backends without re-validating any protocol result: the backends
// present the same canonical neighbor rows, so the executed trace is a
// function of (topology, protocol, seed) only.
func TestEngineTraceEquivalenceBackends(t *testing.T) {
	udgtImp, err := graph.ImplicitUnitDiskGridTorus(7, 9, 1.6)
	if err != nil {
		t.Fatal(err)
	}
	families := []struct {
		name     string
		implicit graph.Topology
	}{
		{"grid", graph.ImplicitGrid(6, 6)},
		{"torus", graph.ImplicitTorus(6, 6)},
		{"hypercube", graph.ImplicitHypercube(5)},
		{"udgt", udgtImp},
		// Stripes are 64-vertex-aligned: only a family of more than 128
		// vertices runs the flatparallel-w3 row as three stripes.
		{"torus-wide", graph.ImplicitTorus(12, 12)},
	}
	protos := []struct {
		name  string
		proto beep.Protocol
	}{
		{"alg1", NewAlg1(KnownMaxDegreeExact(DefaultC1KnownDelta))},
		// alg2's NeighborhoodMaxDegree derives per-vertex knowledge via
		// Degree2Of, so this also pins the knowledge-derivation path on
		// synthesizing backends.
		{"alg2", NewAlg2(NeighborhoodMaxDegree(DefaultC1TwoHop))},
	}
	engines := []struct {
		name string
		opts []beep.Option
	}{
		{"reference", []beep.Option{beep.WithFlatKernels(false)}},
		{"sequential+kernels", nil},
		{"flatparallel-w3", []beep.Option{beep.WithWorkers(3)}},
	}
	const seed, maxRounds = 90210, 20000
	for _, fam := range families {
		mat := graph.Materialize(fam.implicit)
		backends := []struct {
			name string
			g    graph.Topology
		}{
			{"materialized", mat},
			{"implicit", fam.implicit},
			{"compact", graph.Compress(mat)},
			{"compact-s1", graph.CompressStride(fam.implicit, 1)},
		}
		for _, p := range protos {
			t.Run(fmt.Sprintf("%s/%s", fam.name, p.name), func(t *testing.T) {
				ref := runEngineTrace(t, mat, p.proto, seed, maxRounds, beep.WithFlatKernels(false))
				if ref.stabilized < 0 {
					t.Fatalf("reference run did not stabilize within %d rounds", maxRounds)
				}
				for _, b := range backends {
					for _, e := range engines {
						got := runEngineTrace(t, b.g, p.proto, seed, maxRounds, e.opts...)
						if got.stabilized != ref.stabilized {
							t.Fatalf("%s/%s stabilized at round %d, reference at %d",
								b.name, e.name, got.stabilized, ref.stabilized)
						}
						for r := range ref.sent {
							for v := range ref.sent[r] {
								if got.sent[r][v] != ref.sent[r][v] || got.heard[r][v] != ref.heard[r][v] {
									t.Fatalf("%s/%s: trace diverged at round %d vertex %d",
										b.name, e.name, r+1, v)
								}
							}
						}
					}
				}
			})
		}
	}
}
