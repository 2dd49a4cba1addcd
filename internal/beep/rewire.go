package beep

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/rng"
)

// Rewire swaps the network's topology for g2 while it is live — the
// simulator's model of churn: links flap, vertices crash away, fresh
// vertices join, and the protocol must re-stabilize from whatever state
// survives (exactly the regime Theorem 2.1's "from any configuration"
// guarantee covers).
//
// mapping has one entry per *current* vertex: its index in g2, or -1 if
// it leaves the network. graph.ApplyEdits produces such a mapping (its
// first N entries). Vertices of g2 not hit by the mapping are joiners.
//
// Semantics:
//
//   - Surviving vertices keep their complete machine state — including
//     whatever topology knowledge (ℓmax) they were constructed with; a
//     deployed radio does not magically re-learn Δ when a link flaps —
//     through the StateCodec calls of the one capture and install
//     (AppendState from the old machine, DecodeState into the new
//     cohort's), so machines must implement StateCodec. They also keep
//     their private random streams, so the randomness they consume is
//     independent of the renumbering.
//   - Joiners get machines built by the protocol for g2 (fresh
//     knowledge), then a uniformly random state drawn from a fresh
//     child stream — the "arbitrary initial configuration" a newly
//     powered-on radio contributes. Fresh streams never collide with
//     existing ones (they advance the network's child-stream counter).
//   - Adversary policies follow the surviving vertices through the
//     mapping; joiners are always cooperating.
//   - Every stripe count is supported: the stripes and the worker pool
//     are rebuilt for the new vertex count, and because Rewire itself
//     runs sequentially between rounds, executions remain independent
//     of the stripe count.
//
// The operation is atomic: every validation failure leaves the network
// untouched. The round counter continues across the rewire.
func (n *Network) Rewire(g2 *graph.Graph, mapping []int) error {
	if n.closed {
		return fmt.Errorf("beep: Rewire on closed Network")
	}
	if g2 == nil {
		return fmt.Errorf("beep: Rewire with nil graph")
	}
	oldN, newN := n.N(), g2.N()
	if len(mapping) != oldN {
		return fmt.Errorf("beep: Rewire mapping covers %d vertices, network has %d", len(mapping), oldN)
	}
	taken := make([]bool, newN)
	for old, w := range mapping {
		if w < 0 {
			continue
		}
		if w >= newN {
			return fmt.Errorf("beep: Rewire maps vertex %d to %d, new graph has %d vertices", old, w, newN)
		}
		if taken[w] {
			return fmt.Errorf("beep: Rewire maps two vertices to %d", w)
		}
		taken[w] = true
	}

	// Build the machine cohort for the new topology. The batch path
	// keeps the bulk-state handle (and with it the fast level-export
	// path) valid across the rewire.
	machines := make([]Machine, newN)
	var bulk any
	if bp, ok := n.proto.(BatchProtocol); ok {
		ms, b := bp.NewMachines(g2)
		if len(ms) != newN {
			return fmt.Errorf("beep: BatchProtocol %T built %d machines for %d vertices", n.proto, len(ms), newN)
		}
		copy(machines, ms)
		bulk = b
	} else {
		for v := 0; v < newN; v++ {
			machines[v] = n.proto.NewMachine(v, g2)
		}
	}

	// Transfer the survivors. Everything below mutates only freshly
	// allocated storage (or the new cohort), so an encode/decode
	// failure still leaves the live network untouched.
	srcs := make([]*rng.Source, newN)
	var adv2 []uint8
	if n.adv != nil {
		adv2 = make([]uint8, newN)
	}
	var state []int64
	for old, w := range mapping {
		if w < 0 {
			continue
		}
		srcs[w] = n.srcs[old]
		if adv2 != nil {
			adv2[w] = n.adv[old]
		}
		var err error
		if state, err = appendState(state[:0], n.machines[old]); err == nil {
			err = decodeState(machines[w], state)
		}
		if err != nil {
			return fmt.Errorf("beep: Rewire state transfer of vertex %d→%d: %w", old, w, err)
		}
	}

	// Joiners: fresh streams, randomized state (drawn sequentially here,
	// so the consumed order is engine-independent).
	joinerStream := n.nextStream
	for v := 0; v < newN; v++ {
		if srcs[v] != nil {
			continue
		}
		srcs[v] = n.root.Split(joinerStream)
		joinerStream++
		machines[v].Randomize(srcs[v])
	}

	// Commit. Churn always rewires onto a materialized graph (ApplyEdits
	// builds one), so the CSR fast path stays live across the rewire.
	n.nextStream = joinerStream
	n.g = g2
	n.csr = g2
	n.gfpOK = false // new topology: the cached fingerprint is stale
	n.rowBuf = nil
	n.machines = machines
	n.srcs = srcs
	n.bulk = bulk
	n.sent = make([]Signal, newN)
	n.heard = make([]Signal, newN)
	n.asleep = nil // re-sized lazily by the next drawSleep
	if adv2 != nil {
		n.setAdversaries(adv2)
	} else {
		n.advEpoch++ // topology changed: observers re-key their masks
	}
	// The slab was rebuilt: re-derive the kernels and rebuild the
	// stripes and the pool for the new vertex count. Stripe boundaries
	// are a function of N, so stale stripes from the pre-churn topology
	// must never survive a Rewire (regression-tested by
	// TestFlatParallelRewireReseedBitExact).
	n.bindFlatOps()
	return nil
}
