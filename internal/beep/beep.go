// Package beep implements the full-duplex beeping communication model of
// Cornejo and Kuhn (DISC 2010), the substrate of the paper: an anonymous
// network with synchronous rounds in which, each round, every vertex may
// transmit a signal (beep) on one or more channels and then learns, per
// channel, only whether at least one neighbor beeped on it.
//
// Properties of the model as implemented here:
//
//   - Full duplex (collision detection): a beeping vertex still listens in
//     the same round. A vertex never hears its own beep, only neighbors'.
//   - Collisions are invisible: hearing is the OR over neighbors, with no
//     count and no sender identity.
//   - Anonymous: protocols receive no vertex identifier; the integer ids
//     used by the simulator are bookkeeping only.
//   - One or two channels (Signal bits), for Algorithm 1 and Algorithm 2
//     of the paper respectively.
//
// Protocols are per-vertex state machines (Machine) created by a Protocol
// factory. A Network executes them through one round pipeline over one
// or more vertex stripes (WithWorkers), or through the per-machine
// reference loop, and every stripe count is trace-equivalent to the
// reference loop for a fixed seed.
package beep

import (
	"repro/internal/graph"
	"repro/internal/rng"
)

// Signal is the set of channels beeped in a round, as a bitmask.
// The zero Signal is silence.
type Signal uint8

const (
	// Silent is the empty signal.
	Silent Signal = 0
	// Chan1 is the first (and in Algorithm 1, only) beeping channel.
	Chan1 Signal = 1 << 0
	// Chan2 is the second beeping channel used by Algorithm 2.
	Chan2 Signal = 1 << 1
)

// Has reports whether s includes channel c.
func (s Signal) Has(c Signal) bool { return s&c != 0 }

// String renders a signal for traces: "-", "1", "2" or "12".
func (s Signal) String() string {
	switch s & (Chan1 | Chan2) {
	case Silent:
		return "-"
	case Chan1:
		return "1"
	case Chan2:
		return "2"
	default:
		return "12"
	}
}

// Machine is the per-vertex state machine of a beeping protocol. A round
// proceeds as Emit on every vertex, signal delivery, then Update on every
// vertex. Machines must not retain or inspect anything about the network
// beyond what Update delivers: that is the anonymity of the model.
type Machine interface {
	// Emit decides the signal to transmit this round, consuming
	// randomness only from src (the vertex's private stream).
	Emit(src *rng.Source) Signal

	// Update applies the state transition given the signal this vertex
	// sent and the OR of the signals its neighbors sent.
	Update(sent, heard Signal)

	// Randomize sets the machine to a uniformly random state of its state
	// space. It models a transient RAM fault (adversarial corruption) and
	// arbitrary initialization: self-stabilizing protocols must converge
	// from any reachable assignment of Randomize.
	Randomize(src *rng.Source)
}

// Protocol creates the machine for each vertex. NewMachine may read the
// graph to derive the vertex's *knowledge* (for example an upper bound on
// its own degree) — exactly the per-vertex topology knowledge the paper's
// variants grant — but the machine itself never sees the graph. The
// graph arrives as the backend-agnostic graph.Topology, so protocols
// instantiate identically on materialized, compact and implicit graphs.
type Protocol interface {
	// NewMachine returns the initial machine for vertex v of g.
	NewMachine(v int, g graph.Topology) Machine
	// Channels returns the number of beeping channels the protocol uses
	// (1 or 2).
	Channels() int
}

// BatchProtocol is an optional Protocol extension for protocols that can
// build all machines of a network in one call. Implementations may back
// the machines with shared flat storage and return an opaque bulk-state
// handle, which the Network exposes via BulkState; analysts (e.g. the
// stabilization detector in internal/core) type-assert the handle to a
// bulk accessor and read whole-network state without per-vertex
// interface dispatch. Machines returned by NewMachines must behave
// exactly like the ones NewMachine would build, so the fast path is
// observationally identical.
type BatchProtocol interface {
	Protocol
	// NewMachines returns one machine per vertex of g (in vertex order)
	// and an optional bulk-state handle (may be nil).
	NewMachines(g graph.Topology) (ms []Machine, bulk any)
}
