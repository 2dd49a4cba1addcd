package beep

import (
	"math/bits"
	"testing"

	"repro/internal/graph"
)

// rwKernelProtocol is rwProtocol with flat kernels: the same machines
// (so StateCodec survives Rewire) backed by one contiguous slab, whose
// bulk handle implements FlatProtocol and FlatReiniter. Its executions
// must equal rwProtocol's on the reference loop round for round.
type rwKernelProtocol struct{}

func (rwKernelProtocol) Channels() int { return 1 }
func (rwKernelProtocol) NewMachine(int, graph.Topology) Machine {
	return &rwMachine{level: 100}
}
func (rwKernelProtocol) NewMachines(g graph.Topology) ([]Machine, any) {
	slab := &rwSlab{ms: make([]rwMachine, g.N())}
	ms := make([]Machine, g.N())
	for v := range ms {
		slab.ms[v].level = 100
		ms[v] = &slab.ms[v]
	}
	return ms, slab
}

type rwSlab struct{ ms []rwMachine }

// forWords calls fn for the vertices of [lo, hi) inside every word
// marked in mask, reporting the word's mask coordinates.
func forWords(mask []uint64, lo, hi int, fn func(mi, b, start, end int)) {
	for mi, m := range mask {
		for m != 0 {
			b := bits.TrailingZeros64(m)
			m &= m - 1
			start, end := (mi<<6+b)<<6, (mi<<6+b)<<6+64
			if start < lo {
				start = lo
			}
			if end > hi {
				end = hi
			}
			if start < end {
				fn(mi, b, start, end)
			}
		}
	}
}

func (s *rwSlab) Emit(env *FlatEnv, act, drewW []uint64, lo, hi int) {
	forWords(act, lo, hi, func(mi, b, start, end int) {
		for v := start; v < end; v++ {
			if env.Skip != nil && env.Skip.Get(v) {
				continue
			}
			env.Sent[v] = s.ms[v].Emit(env.Srcs[v])
			drewW[mi] |= 1 << uint(b)
		}
	})
}

func (s *rwSlab) Update(env *FlatEnv, upd, changedW []uint64, lo, hi int) {
	forWords(upd, lo, hi, func(mi, b, start, end int) {
		for v := start; v < end; v++ {
			if env.Skip != nil && env.Skip.Get(v) {
				continue
			}
			old := s.ms[v].level
			s.ms[v].Update(env.Sent[v], env.Heard[v])
			if s.ms[v].level != old {
				changedW[mi] |= 1 << uint(b)
			}
		}
	})
}

func (s *rwSlab) ReinitAll(graph.Topology) {
	for v := range s.ms {
		s.ms[v].level = 100
	}
}

// signalTrace records every round's sent and heard arrays as one row.
func signalTrace(t *testing.T, g graph.Topology, proto Protocol, seed uint64, rounds int, opts ...Option) [][]Signal {
	t.Helper()
	var trace [][]Signal
	opts = append(opts, WithObserver(func(_ int, sent, heard []Signal) {
		row := make([]Signal, 0, 2*len(sent))
		row = append(row, sent...)
		row = append(row, heard...)
		trace = append(trace, row)
	}))
	net, err := NewNetwork(g, proto, seed, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	net.RandomizeAll()
	for r := 0; r < rounds; r++ {
		net.Step()
	}
	return trace
}

// sameTrace fails the test at the first differing slot.
func sameTrace(t *testing.T, name string, got, ref [][]Signal) {
	t.Helper()
	if len(got) != len(ref) {
		t.Fatalf("%s recorded %d rounds, reference %d", name, len(got), len(ref))
	}
	for r := range ref {
		for i := range ref[r] {
			if got[r][i] != ref[r][i] {
				t.Fatalf("%s diverged from the reference loop at round %d slot %d", name, r+1, i)
			}
		}
	}
}

// pipelineConfigs are the flat-kernel configurations every beep-level
// equivalence test runs against the reference loop.
var pipelineConfigs = []struct {
	name string
	opts []Option
}{
	{"sequential", nil},
	{"sequential-delta", []Option{WithForcedDelta()}},
	{"flatparallel-w3", []Option{WithWorkers(3)}},
	{"flatparallel-w3-delta", []Option{WithWorkers(3), WithForcedDelta()}},
}
