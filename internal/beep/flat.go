package beep

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/graph"
	"repro/internal/rng"
)

// This file defines the flat-kernel interface: rounds executed over
// structure-of-arrays machine slabs with zero per-vertex virtual
// dispatch. Protocols opt in by returning a bulk-state handle (see
// BatchProtocol) that implements FlatProtocol; the round pipeline
// (pipeline.go) then replaces the per-machine Emit/Update interface
// calls with word-masked kernel calls and the per-edge signal scatter
// with bitset delivery.
//
// The kernels are observationally identical to the reference loop:
// each vertex consumes exactly the draws its Machine.Emit would have
// consumed from its private stream, so traces are bit-for-bit equal
// (enforced by TestEngineTraceEquivalence and
// FuzzFlatEmitDrawEquivalence). Because of that, the Sequential engine
// runs the kernels whenever the protocol provides them.

// FlatEnv is the execution environment the pipeline passes to a
// FlatProtocol's kernels for one phase. The slices alias network
// storage and must not be retained.
type FlatEnv struct {
	// Sent is the per-vertex signal array of the round. Emit must fill
	// Sent[v] for every visited vertex whose Skip bit is clear and leave
	// skipped entries untouched (the engine pre-fills those).
	Sent []Signal
	// Heard is the OR of neighbor signals, valid during Update.
	Heard []Signal
	// Srcs are the private per-vertex random streams. Kernels must
	// consume them exactly as the corresponding Machine.Emit would, so
	// traces stay bit-identical.
	Srcs []*rng.Source
	// Skip marks the vertices the kernels must not touch this round
	// (sleeping or adversarial); nil when every vertex participates.
	Skip *bitset.Set
}

// FlatProtocol is the optional extension implemented by the bulk-state
// handles of protocols that support the flat-kernel pipeline (for the
// paper's protocols these are the contiguous int32 level/cap slabs
// introduced with BatchProtocol).
//
// Both kernels are word-masked: bit wi of mask[wi/64] gates slab word wi
// (vertices [wi*64, wi*64+64)), and a kernel visits exactly the vertices
// of [lo, hi) inside marked words, in ascending order. Emit must behave
// like Machine.Emit on every visited non-skipped vertex, additionally
// setting the word's bit in drewW iff any of its vertices consumed
// randomness; Update likewise applies Machine.Update, setting changedW
// word bits iff state moved. Output bits of unvisited words are never
// set (the engine clears the masks). A full mask is the dense loop.
//
// A call touches only Sent[lo:hi) and the streams and machines of
// vertices in [lo, hi), so disjoint stripes never write shared state.
// Because each vertex consumes randomness only from its own private
// stream, stripes can execute in any order or concurrently without
// perturbing any vertex's draw sequence: that is the whole determinism
// argument of the FlatParallel engine and of Partition.
type FlatProtocol interface {
	// Emit decides the signals of the marked words' vertices.
	Emit(env *FlatEnv, act, drewW []uint64, lo, hi int)
	// Update applies the marked words' state transitions given the
	// round's Sent and Heard signals.
	Update(env *FlatEnv, upd, changedW []uint64, lo, hi int)
}

// FlatReiniter is the optional extension implemented by bulk-state
// handles that can restore their machine cohort to the protocol's
// initial configuration for the current graph, enabling the
// allocation-free Network.Reseed used by replication pools
// (exp.RunReplicated).
type FlatReiniter interface {
	// ReinitAll re-initializes every machine exactly as NewMachines
	// would have built it for g.
	ReinitAll(g graph.Topology)
}

// WithFlatKernels enables or disables the flat-kernel pipeline on the
// Sequential engine (default: enabled when the protocol provides it).
// Disabling forces the reference per-machine loop; the equivalence
// matrices use this to pin the kernels against the reference
// semantics. The FlatParallel engine rejects it.
func WithFlatKernels(enabled bool) Option {
	return func(n *Network) { n.noFlat = !enabled }
}

// Dedicated-stream salts (see NewNetwork): each auxiliary randomness
// consumer derives its stream from the root seed XOR an ASCII salt so
// executions stay reproducible and engine-independent.
const (
	noiseSalt = 0x6e6f697365 // "noise"
	sleepSalt = 0x736c656570 // "sleep"
	advSalt   = 0x61647673   // "advs"
)

// finishFlatSetup resolves the flat configuration after all options
// have been applied: binds the kernels (unless disabled), enforces the
// FlatParallel engine's requirement for them, and lays out the stripes.
func (n *Network) finishFlatSetup(proto Protocol) error {
	switch n.engine {
	case Sequential:
	case FlatParallel:
		if n.noFlat {
			return fmt.Errorf("beep: WithFlatKernels(false) conflicts with the %v engine", n.engine)
		}
	default:
		return fmt.Errorf("beep: unknown engine %v", n.engine)
	}
	n.bindFlatOps()
	if n.flatOps == nil {
		if n.engine == FlatParallel {
			return fmt.Errorf("beep: %v engine requires flat kernels, but %T's bulk state (%T) does not implement FlatProtocol", n.engine, proto, n.bulk)
		}
		if n.forceDelta {
			return fmt.Errorf("beep: WithForcedDelta requires flat kernels, but the reference loop runs %T", proto)
		}
	}
	return nil
}

// bindFlatOps (re)derives the kernel binding and the stripe layout from
// the current bulk-state handle; called at construction and after
// Rewire (which rebuilds the slab, or drops it for non-codec machine
// cohorts). Without kernels the reference loop runs and no stripes
// exist.
func (n *Network) bindFlatOps() {
	n.flatOps = nil
	// Whatever triggered the rebind (construction, Rewire) changed the
	// cohort or topology: the pipeline must restart from an all-active
	// frontier and rebuild its delivery invariants densely, and any
	// dirty-word baseline is void.
	n.sparse.markAll()
	n.dirty.markAll()
	n.dirty.adv = true
	if n.workers != nil {
		n.workers.close()
		n.workers = nil
	}
	n.stripes = nil
	if n.noFlat {
		return
	}
	fp, ok := n.bulk.(FlatProtocol)
	if !ok {
		return
	}
	n.flatOps = fp
	k := 1
	if n.engine == FlatParallel {
		k = n.poolSize()
	}
	n.buildStripes(k)
}

// buildFlatSkip assembles the per-round skip mask (sleeping and
// adversarial vertices) and pre-fills their sent signals with exactly
// the values emitRange would have produced: adversaries transmit their
// policy signal regardless of sleep (adversary-before-sleep semantics),
// sleepers transmit nothing. Returns nil when every vertex
// participates, the common case, so the kernels' fast loops carry no
// per-vertex mask test.
func (n *Network) buildFlatSkip() *bitset.Set {
	sleeping := n.sleep.enabled() && n.asleep != nil
	if n.advCount == 0 && !sleeping {
		return nil
	}
	N := n.N()
	skip := &n.flatSkip
	if skip.Len() != N {
		skip.Resize(N)
	} else {
		skip.Reset()
	}
	if n.advCount > 0 {
		for v, p := range n.adv {
			if p != 0 {
				skip.Set1(v)
				n.sent[v] = n.advSent[v]
			}
		}
	}
	if sleeping {
		for v, z := range n.asleep {
			if z && !(n.adv != nil && n.adv[v] != 0) {
				skip.Set1(v)
				n.sent[v] = Silent
			}
		}
	}
	return skip
}

// zeroSignals is a reusable all-silent block for word-granular clears
// of the heard array.
var zeroSignals [64]Signal

// GatherCrossoverFactor is the scatter/gather crossover of dense
// delivery: the scatter (OR each sender's CSR row into a heard bitset)
// is taken while its estimated cost, senders × (avgDeg + 1), stays at
// or below GatherCrossoverFactor × N; beyond that the per-vertex gather
// scan wins, because it costs at most O(N · channels) probes with early
// exit once every channel has been heard, while the scatter cost keeps
// growing with the number of senders.
//
// The default of 2 ("scatter until it would touch more than ~2 words
// per vertex") was chosen by measurement: BenchmarkDeliverCrossover
// sweeps the sender fraction on an avg-degree-8 G(n,p) graph and the
// scatter/gather cost curves cross within a factor of ~1.5 of this
// setting, with both paths within noise of each other at the boundary
// itself — so the exact constant is uncritical, which is what a
// hard-coded crossover needs to be. Both paths produce the exact same
// heard masks (pinned by TestDeliverCrossoverBoundary), so the choice
// is invisible to traces.
const GatherCrossoverFactor = 2

// deliveryWantsGather applies the scatter/gather crossover cost model.
func deliveryWantsGather(senders, avgDeg, N int) bool {
	return senders*(avgDeg+1) > GatherCrossoverFactor*N
}

// avgDegree returns the integer average degree ⌊2M/N⌋ used by the
// delivery cost models.
func (n *Network) avgDegree() int {
	N := n.N()
	if N == 0 {
		return 0
	}
	return 2 * n.g.M() / N
}

// Reseed resets the network to the exact state NewNetwork(g, proto,
// seed, opts...) would have produced, without reallocating any slab:
// machine states are re-initialized in place (via the bulk handle's
// FlatReiniter), every random stream is re-derived from the new seed,
// and the round counter, failure poison and child-stream allocator are
// cleared. Installed adversary policies and the noise/sleep parameters
// are construction-time configuration and are kept.
//
// Reseed is the amortization primitive of replication sweeps
// (exp.RunReplicated): one network per worker, re-seeded per trial,
// replaces per-trial graph/CSR re-validation and slab allocation.
// Executions after a Reseed are bit-identical to freshly constructed
// ones (property-tested by TestReseedMatchesFreshNetwork).
func (n *Network) Reseed(seed uint64) error {
	if n.closed {
		return fmt.Errorf("beep: Reseed on closed Network")
	}
	ri, ok := n.bulk.(FlatReiniter)
	if !ok {
		return fmt.Errorf("beep: Reseed requires a protocol whose bulk state supports re-initialization; %T's bulk state (%T) does not implement FlatReiniter", n.proto, n.bulk)
	}
	ri.ReinitAll(n.g)
	n.seed = seed
	n.root.Reseed(seed)
	for v := range n.srcs {
		n.root.SplitInto(uint64(v), n.srcs[v])
	}
	n.nextStream = uint64(n.N())
	n.noiseSrc.Reseed(seed ^ noiseSalt)
	n.sleepSrc.Reseed(seed ^ sleepSalt)
	n.advSrc.Reseed(seed ^ advSalt)
	for v := range n.sent {
		n.sent[v] = Silent
		n.heard[v] = Silent
	}
	n.round = 0
	n.failed = nil
	// The sender bitsets still hold the previous execution's bits while
	// sent was just cleared: force the pipeline to restart all-active
	// and rebuild its delivery invariants densely. Every vertex state
	// and stream was rewritten, so the dirty baseline is void too.
	n.sparse.markAll()
	n.dirty.markAll()
	n.dirty.adv = true
	n.advEpoch++ // new execution: legality observers must re-key
	return nil
}
