package beep

import (
	"fmt"
	"sort"
)

// AdversaryPolicy selects how a non-cooperating vertex misuses the
// channel. Adversarial vertices do not run the protocol at all: their
// machines are frozen (never Emit, never Update), and what they
// transmit is dictated by the policy. They model compromised or
// malfunctioning radios — the regime the self-stabilization guarantee
// says nothing about, which is exactly why the harness measures the
// behavior of the *correct* induced subgraph around them (see
// core.State, which masks adversaries out of the legality predicate).
type AdversaryPolicy uint8

const (
	// advNone marks a cooperating vertex in the per-vertex policy array.
	advNone AdversaryPolicy = 0
	// AdvJammer beeps on every channel in every round, the strongest
	// channel-misuse an adversary can mount: its neighbors never observe
	// a silent round and can therefore never commit to MIS membership.
	AdvJammer AdversaryPolicy = iota
	// AdvBabbler beeps a uniformly random signal each round, drawn from
	// the network's dedicated adversary stream (like Noise and Sleep),
	// so babbling executions stay reproducible and engine-independent.
	AdvBabbler
	// AdvMute never beeps and never updates: a crashed-silent vertex.
	// Its correct neighbors simply observe its absence.
	AdvMute
)

// String names the policy for tables and flags.
func (p AdversaryPolicy) String() string {
	switch p {
	case advNone:
		return "none"
	case AdvJammer:
		return "jammer"
	case AdvBabbler:
		return "babbler"
	case AdvMute:
		return "mute"
	default:
		return fmt.Sprintf("adversary(%d)", int(p))
	}
}

// ParseAdversaryPolicy parses the CLI spelling of a policy.
func ParseAdversaryPolicy(s string) (AdversaryPolicy, error) {
	switch s {
	case "jammer":
		return AdvJammer, nil
	case "babbler":
		return AdvBabbler, nil
	case "mute":
		return AdvMute, nil
	default:
		return advNone, fmt.Errorf("beep: unknown adversary policy %q (want jammer | babbler | mute)", s)
	}
}

// advSpec is one pending WithAdversaries request, validated and
// installed by NewNetwork after all options have been applied.
type advSpec struct {
	policy   AdversaryPolicy
	vertices []int
}

// WithAdversaries installs the given policy on the listed vertices.
// The option may be repeated with different policies; the sets must be
// disjoint. Invalid vertices or policies surface as a NewNetwork error.
func WithAdversaries(policy AdversaryPolicy, vertices []int) Option {
	vs := append([]int(nil), vertices...)
	return func(n *Network) {
		n.advPending = append(n.advPending, advSpec{policy: policy, vertices: vs})
	}
}

// installAdversaries validates and applies the pending WithAdversaries
// options. All indices are range-checked before any state is written,
// mirroring the atomicity contract of Corrupt.
func (n *Network) installAdversaries() error {
	if len(n.advPending) == 0 {
		return nil
	}
	for _, spec := range n.advPending {
		switch spec.policy {
		case AdvJammer, AdvBabbler, AdvMute:
		default:
			return fmt.Errorf("beep: invalid adversary policy %v", spec.policy)
		}
		for _, v := range spec.vertices {
			if v < 0 || v >= n.N() {
				return fmt.Errorf("beep: adversary vertex %d out of range [0,%d)", v, n.N())
			}
		}
	}
	adv := make([]uint8, n.N())
	for _, spec := range n.advPending {
		for _, v := range spec.vertices {
			if adv[v] != 0 && adv[v] != uint8(spec.policy) {
				return fmt.Errorf("beep: vertex %d assigned two adversary policies (%v and %v)",
					v, AdversaryPolicy(adv[v]), spec.policy)
			}
			adv[v] = uint8(spec.policy)
		}
	}
	n.advPending = nil
	n.setAdversaries(adv)
	return nil
}

// setAdversaries commits a per-vertex policy array (length N), deriving
// the constant pre-drawn signals, the babbler index list, and the count,
// and bumps the epoch so legality observers re-capture the mask.
func (n *Network) setAdversaries(adv []uint8) {
	// The policy table is checkpointed state: the next incremental
	// checkpoint must carry the full table (see Delta.Adversaries).
	n.dirty.adv = true
	count := 0
	for _, p := range adv {
		if p != 0 {
			count++
		}
	}
	if count == 0 {
		n.adv, n.advSent, n.advBabblers, n.advCount = nil, nil, nil, 0
		n.advEpoch++
		return
	}
	n.adv = adv
	n.advCount = count
	n.advSent = make([]Signal, len(adv))
	n.advBabblers = n.advBabblers[:0]
	for v, p := range adv {
		switch AdversaryPolicy(p) {
		case AdvJammer:
			n.advSent[v] = n.fullMask
		case AdvBabbler:
			n.advBabblers = append(n.advBabblers, int32(v))
		case AdvMute:
			n.advSent[v] = Silent
		}
	}
	n.advEpoch++
}

// adversarial reports whether v is a non-cooperating vertex.
func (n *Network) adversarial(v int) bool {
	return n.adv != nil && n.adv[v] != 0
}

// drawAdversaries pre-draws the babblers' signals for the coming round
// from the dedicated adversary stream. Like drawSleep it runs as a
// sequential pass before the emit phase in every engine, so the
// consumed stream order — and hence the whole execution — is
// engine-independent.
func (n *Network) drawAdversaries() {
	for _, vi := range n.advBabblers {
		n.advSent[vi] = Signal(n.advSrc.Uint64()) & n.fullMask
	}
}

// AdversaryCount returns the number of installed adversaries.
func (n *Network) AdversaryCount() int { return n.advCount }

// AdversaryOf returns the policy of vertex v ("none" for cooperating
// vertices).
func (n *Network) AdversaryOf(v int) AdversaryPolicy {
	if n.adv == nil {
		return advNone
	}
	return AdversaryPolicy(n.adv[v])
}

// Adversaries returns the sorted list of adversary vertices.
func (n *Network) Adversaries() []int {
	out := make([]int, 0, n.advCount)
	for v, p := range n.adv {
		if p != 0 {
			out = append(out, v)
		}
	}
	sort.Ints(out)
	return out
}

// FillAdversaryMask writes the adversary membership mask into dst
// (length ≥ N), the allocation-free capture used by core.State.
func (n *Network) FillAdversaryMask(dst []bool) {
	for v := 0; v < n.N(); v++ {
		dst[v] = n.adv != nil && n.adv[v] != 0
	}
}

// AdversaryEpoch returns a counter that changes whenever the adversary
// set or the topology changes (Rewire). Legality observers compare it
// to decide when to re-capture the adversary mask.
func (n *Network) AdversaryEpoch() uint64 { return n.advEpoch }
