package repro

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/beep"
	"repro/internal/core"
	"repro/internal/rng"
)

// Instance is a live, steppable execution of one of the paper's
// algorithms: the round-level API for self-stabilization studies. It
// exposes single-round stepping, legality queries, and transient-fault
// injection. Close releases the worker pool that WithParallelEngine
// starts.
type Instance struct {
	net      *beep.Network
	faultSrc *rng.Source
	// probe is the reused level snapshot behind the legality queries;
	// refreshing it per call keeps the incremental stabilization
	// detector warm, so per-round Stabilized polls are cheap.
	probe core.State
}

// NewInstance builds a steppable execution on g with the given options.
func NewInstance(g *Graph, opts ...Option) (*Instance, error) {
	if g == nil {
		return nil, errors.New("repro: nil graph")
	}
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	proto, err := o.protocol()
	if err != nil {
		return nil, err
	}
	init, err := o.initMode()
	if err != nil {
		return nil, err
	}
	net, err := beep.NewNetwork(g.g, proto, o.seed, o.network()...)
	if err != nil {
		return nil, err
	}
	if err := core.ApplyInit(net, init); err != nil {
		net.Close()
		return nil, err
	}
	return &Instance{net: net, faultSrc: rng.New(o.seed ^ 0xfa17)}, nil
}

// Step executes one synchronous beeping round.
func (i *Instance) Step() { i.net.Step() }

// Rounds returns the number of completed rounds.
func (i *Instance) Rounds() int { return i.net.Round() }

// Stabilized reports whether the network is in a legal configuration:
// the claimed set is a maximal independent set and every vertex is
// stable.
func (i *Instance) Stabilized() (bool, error) {
	if err := i.probe.Refresh(i.net); err != nil {
		return false, err
	}
	return i.probe.Stabilized(), nil
}

// StableVertices returns |S_t|, the number of vertices whose output has
// stabilized — a convergence progress measure.
func (i *Instance) StableVertices() (int, error) {
	if err := i.probe.Refresh(i.net); err != nil {
		return 0, err
	}
	return i.probe.StableCount(), nil
}

// MIS returns the current claimed MIS vertices in ascending order. The
// set is only guaranteed maximal and independent once Stabilized
// reports true.
func (i *Instance) MIS() ([]int, error) {
	if err := i.probe.Refresh(i.net); err != nil {
		return nil, err
	}
	var out []int
	for v, in := range i.probe.MISMask() {
		if in {
			out = append(out, v)
		}
	}
	return out, nil
}

// Level returns the current level ℓ(v) of a vertex, the paper's whole
// per-vertex state. It reads the refreshed legality probe, so a query
// leaves the engine untouched: no vertex is marked active for the next
// round or dirty for the next checkpoint delta.
func (i *Instance) Level(v int) (int, error) {
	if v < 0 || v >= i.net.N() {
		return 0, fmt.Errorf("repro: vertex %d out of range", v)
	}
	if err := i.probe.Refresh(i.net); err != nil {
		return 0, err
	}
	return i.probe.Level(v), nil
}

// InjectFault corrupts the states of k uniformly chosen vertices
// (transient RAM faults). The algorithm will re-stabilize within the
// same asymptotic round bounds.
func (i *Instance) InjectFault(k int) error {
	n := i.net.N()
	if k > n {
		k = n
	}
	if k <= 0 {
		return nil
	}
	perm := i.faultSrc.Perm(n)
	return i.net.Corrupt(perm[:k])
}

// RunUntilStabilized steps until the network is legal or maxRounds
// rounds pass (maxRounds ≤ 0 selects the default budget), verifies the
// MIS, and returns the rounds consumed by this call. An exhausted budget
// returns an error wrapping ErrNotStabilized.
func (i *Instance) RunUntilStabilized(maxRounds int) (int, error) {
	return core.Stabilize(i.net, &i.probe, maxRounds)
}

// Save writes a resumable checkpoint of the execution as a binary
// snapshot (checkpoint format v3): the round counter, every vertex's
// algorithm state, and every random stream, sealed with an integrity
// hash. A later Load on an instance built with the same graph and
// options resumes the exact execution.
func (i *Instance) Save(w io.Writer) error {
	cp, err := i.net.Checkpoint()
	if err != nil {
		return err
	}
	return beep.WriteSnapshot(w, cp)
}

// Load restores a checkpoint written by Save, in either format: the
// binary snapshot of this build or the JSON of builds before it. The
// instance must have been built on the same graph with the same
// algorithm.
func (i *Instance) Load(r io.Reader) error {
	cp, err := beep.ReadSnapshot(r)
	if err != nil {
		return err
	}
	return i.net.Restore(cp)
}

// Close releases the network's worker goroutines; safe to call
// multiple times and required only with WithParallelEngine.
func (i *Instance) Close() { i.net.Close() }
