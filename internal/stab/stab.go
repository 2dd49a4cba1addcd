// Package stab is the self-stabilization harness: it implements the
// paper's fault model (Section 1.1) on top of the beeping simulator —
// transient faults corrupt per-vertex RAM between rounds, after which
// execution is fault-free — and measures recovery.
//
// It provides a catalog of fault injectors (uniform corruption, targeted
// corruption of MIS members, adversarial "everyone claims membership"
// flips), a recovery experiment that stabilizes, injects, and
// re-stabilizes repeatedly, and a closure checker asserting that legal
// configurations persist while no faults occur.
package stab

import (
	"fmt"
	"sync"

	"repro/internal/beep"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rng"
)

// ErrNoRecovery reports that the network failed to re-stabilize after a
// fault within the round budget. It is core.ErrNotStabilized, the
// sentinel of the run-to-legal driver every recovery runs through.
var ErrNoRecovery = core.ErrNotStabilized

// Fault mutates the states of some vertices between rounds.
type Fault interface {
	// Name labels the fault in experiment tables.
	Name() string
	// Apply injects the fault, drawing any randomness from src.
	Apply(net *beep.Network, src *rng.Source) error
}

// RandomFault randomizes the full state of K uniformly chosen vertices:
// the standard transient-fault model.
type RandomFault struct{ K int }

// Name labels the fault.
func (f RandomFault) Name() string { return fmt.Sprintf("random-%d", f.K) }

// Apply corrupts K distinct uniformly random vertices.
func (f RandomFault) Apply(net *beep.Network, src *rng.Source) error {
	return net.Corrupt(pickDistinct(net.N(), f.K, src))
}

// MISFault randomizes the state of up to K current MIS members — the
// most disruptive natural target, since every member anchors the
// stability of its whole neighborhood.
type MISFault struct{ K int }

// Name labels the fault.
func (f MISFault) Name() string { return fmt.Sprintf("mis-%d", f.K) }

// Apply corrupts up to K uniformly chosen current MIS members.
func (f MISFault) Apply(net *beep.Network, src *rng.Source) error {
	st, err := core.Snapshot(net)
	if err != nil {
		return fmt.Errorf("stab: %w", err)
	}
	var members []int
	for v, in := range st.MISMask() {
		if in {
			members = append(members, v)
		}
	}
	if len(members) == 0 {
		return nil
	}
	src.Shuffle(len(members), func(i, j int) { members[i], members[j] = members[j], members[i] })
	k := f.K
	if k > len(members) {
		k = len(members)
	}
	return net.Corrupt(members[:k])
}

// ClaimAllFault sets K uniformly chosen vertices to the "I am in the
// MIS" extreme of their state space (-ℓmax for Algorithm 1, 0 for
// Algorithm 2), manufacturing the maximal mutual inconsistency.
type ClaimAllFault struct{ K int }

// Name labels the fault.
func (f ClaimAllFault) Name() string { return fmt.Sprintf("claim-%d", f.K) }

// Apply flips K distinct vertices to claimed membership.
func (f ClaimAllFault) Apply(net *beep.Network, src *rng.Source) error {
	for _, v := range pickDistinct(net.N(), f.K, src) {
		m, ok := net.Machine(v).(core.Leveled)
		if !ok {
			return fmt.Errorf("stab: machine %T has no levels", net.Machine(v))
		}
		m.SetLevel(-m.Cap())
	}
	return nil
}

// pickBuf pools the index buffers behind pickDistinct so repeated fault
// injections (every Period rounds in an availability storm) allocate
// only the k-sized result, not an n-sized permutation per call.
var pickBuf = sync.Pool{New: func() any { return new([]int) }}

// pickDistinct returns min(k, n) distinct vertices chosen uniformly, by
// a partial Fisher–Yates shuffle: k draws from the source instead of the
// n-1 a full permutation costs, over a pooled buffer. Negative k is
// rejected explicitly (it would previously have sliced a permutation it
// had already paid for).
func pickDistinct(n, k int, src *rng.Source) []int {
	if k < 0 || n <= 0 {
		return nil
	}
	if k > n {
		k = n
	}
	if k == 0 {
		return nil
	}
	bufp := pickBuf.Get().(*[]int)
	buf := *bufp
	if cap(buf) < n {
		buf = make([]int, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = i
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		j := i + src.Intn(n-i)
		buf[i], buf[j] = buf[j], buf[i]
		out[i] = buf[i]
	}
	*bufp = buf
	pickBuf.Put(bufp)
	return out
}

// RecoveryConfig describes a fault-recovery experiment on one instance.
type RecoveryConfig struct {
	Graph    *graph.Graph
	Protocol beep.Protocol
	Seed     uint64
	// Fault is injected after each stabilization.
	Fault Fault
	// Repeats is the number of inject-and-recover cycles (default 1).
	Repeats int
	// MaxRounds bounds each stabilization phase; 0 selects
	// core.DefaultMaxRounds.
	MaxRounds int
}

// RecoveryResult reports a fault-recovery experiment.
type RecoveryResult struct {
	// InitialRounds is the stabilization time from the arbitrary
	// (randomized) initial configuration.
	InitialRounds int
	// RecoveryRounds has one entry per inject-and-recover cycle: the
	// rounds from fault injection back to a legal configuration.
	RecoveryRounds []int
	// Changed counts, per cycle, how many vertices' MIS membership
	// differs between the pre-fault and post-recovery configurations
	// (a locality-of-repair measure).
	Changed []int
}

// MeasureRecovery runs the experiment: stabilize from a random
// configuration, then Repeats times inject the fault and measure rounds
// to re-stabilization, verifying the MIS each time.
func MeasureRecovery(cfg RecoveryConfig) (*RecoveryResult, error) {
	if cfg.Graph == nil || cfg.Protocol == nil {
		return nil, fmt.Errorf("stab: nil graph or protocol")
	}
	repeats := cfg.Repeats
	if repeats <= 0 {
		repeats = 1
	}
	net, err := beep.NewNetwork(cfg.Graph, cfg.Protocol, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("stab: %w", err)
	}
	defer net.Close()
	net.RandomizeAll()

	faultSrc := rng.New(cfg.Seed ^ 0x57ab0f4a17)
	res := &RecoveryResult{}

	var probe core.State
	rounds, err := core.Stabilize(net, &probe, cfg.MaxRounds)
	if err != nil {
		return nil, err
	}
	res.InitialRounds = rounds

	for cycle := 0; cycle < repeats; cycle++ {
		beforeMIS := probe.MISMask()
		if cfg.Fault != nil {
			if err := cfg.Fault.Apply(net, faultSrc); err != nil {
				return nil, err
			}
		}
		rounds, err := core.Stabilize(net, &probe, cfg.MaxRounds)
		if err != nil {
			return nil, fmt.Errorf("cycle %d: %w", cycle, err)
		}
		afterMIS := probe.MISMask()
		changed := 0
		for v := range afterMIS {
			if afterMIS[v] != beforeMIS[v] {
				changed++
			}
		}
		res.RecoveryRounds = append(res.RecoveryRounds, rounds)
		res.Changed = append(res.Changed, changed)
	}
	return res, nil
}

// CheckClosure steps a stabilized network for extra rounds and returns
// an error if legality is ever lost or the MIS changes: the closure half
// of self-stabilization. Legality is asserted on the correct induced
// subgraph when adversaries are installed. Note that closure is only
// guaranteed in the fault-free regime — under listening noise a network
// can legitimately lose legality, which this check will report.
func CheckClosure(net *beep.Network, extraRounds int) error {
	st, err := core.Snapshot(net)
	if err != nil {
		return err
	}
	if !st.Stabilized() {
		return fmt.Errorf("stab: closure check requires a stabilized network")
	}
	ref := st.MISMask()
	mis := make([]bool, len(ref))
	for r := 1; r <= extraRounds; r++ {
		net.Step()
		if err := st.Refresh(net); err != nil {
			return err
		}
		if !st.Stabilized() {
			return fmt.Errorf("stab: legality lost %d rounds after stabilization", r)
		}
		st.FillMISMask(mis)
		for v := range mis {
			if mis[v] != ref[v] {
				return fmt.Errorf("stab: MIS membership of vertex %d changed %d rounds after stabilization", v, r)
			}
		}
	}
	return nil
}
