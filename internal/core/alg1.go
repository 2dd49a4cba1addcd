package core

import (
	"repro/internal/beep"
	"repro/internal/graph"
	"repro/internal/rng"
)

// Leveled is implemented by the machines of both algorithms and exposes
// the level state to the harness (legality checks, traces, instrumented
// experiments). The harness is the analyst's eye view; vertices
// themselves never see each other's levels.
type Leveled interface {
	// Level returns the current level ℓ_t(v).
	Level() int
	// Cap returns ℓmax(v).
	Cap() int
	// SetLevel overwrites the level, clamping into the machine's valid
	// state space. It models a targeted (rather than random) transient
	// fault and is used by adversarial initializers.
	SetLevel(l int)
}

// Alg1 is Algorithm 1 of the paper: the single-channel self-stabilizing
// MIS protocol. The zero value is not usable; construct with NewAlg1.
type Alg1 struct {
	cap LevelCap
	// initLevel, when non-nil, provides the starting level for each
	// vertex (clamped); otherwise machines start from level ℓmax(v),
	// a neutral "silent" state. Self-stabilization experiments override
	// initial states through the harness anyway.
	initLevel func(v int) int
}

var (
	_ beep.Protocol      = (*Alg1)(nil)
	_ beep.BatchProtocol = (*Alg1)(nil)
)

// NewAlg1 returns the protocol with the given knowledge variant.
func NewAlg1(cap LevelCap) *Alg1 {
	return &Alg1{cap: cap}
}

// WithInitialLevels sets a deterministic initial level per vertex,
// clamped to the state space. It returns the receiver for chaining.
func (p *Alg1) WithInitialLevels(fn func(v int) int) *Alg1 {
	p.initLevel = fn
	return p
}

// Channels reports that Algorithm 1 uses a single beeping channel.
func (p *Alg1) Channels() int { return 1 }

// NewMachine builds the vertex machine with ℓmax(v) from the knowledge
// variant.
func (p *Alg1) NewMachine(v int, g graph.Topology) beep.Machine {
	m := &alg1Machine{}
	p.initMachine(m, v, g)
	return m
}

// initMachine installs ℓmax(v) and the initial level, shared by the
// per-vertex and batch construction paths.
func (p *Alg1) initMachine(m *alg1Machine, v int, g graph.Topology) {
	m.lmax = int32(p.cap(v, g))
	if m.lmax < 1 {
		m.lmax = 1
	}
	if p.initLevel != nil {
		m.SetLevel(p.initLevel(v))
	} else {
		m.level = m.lmax
	}
}

// NewMachines builds the whole cohort at once (beep.BatchProtocol): the
// machines live in one contiguous slab, and the slab doubles as the
// network's bulk-state handle implementing LevelExporter, so the
// stabilization detector captures all levels in one linear pass instead
// of n interface dispatches.
func (p *Alg1) NewMachines(g graph.Topology) ([]beep.Machine, any) {
	n := g.N()
	slab := &alg1Slab{p: p, ms: make([]alg1Machine, n)}
	ms := make([]beep.Machine, n)
	for v := 0; v < n; v++ {
		m := &slab.ms[v]
		p.initMachine(m, v, g)
		ms[v] = m
	}
	return ms, slab
}

// alg1Slab is the contiguous machine storage of one Algorithm 1 network
// and its bulk level accessor. It keeps the protocol it was built by so
// the cohort can be re-initialized in place (beep.FlatReiniter).
type alg1Slab struct {
	p  *Alg1
	ms []alg1Machine
}

var _ LevelExporter = (*alg1Slab)(nil)

// ExportLevels copies the (ℓ, ℓmax) of the machines in the marked
// slab words into the destination slices, one linear pass over each
// run of contiguous slab. A nil caps skips the ℓmax export (the caller
// has already captured the immutable caps).
func (s *alg1Slab) ExportLevels(levels, caps []int32, words []uint64) {
	forWordRuns(words, len(s.ms), func(lo, hi int) {
		ms, lv := s.ms[lo:hi], levels[lo:hi]
		if caps == nil {
			for i := range ms {
				lv[i] = ms[i].level
			}
			return
		}
		cp := caps[lo:hi]
		for i := range ms {
			lv[i] = ms[i].level
			cp[i] = ms[i].lmax
		}
	})
}

// MutableCaps reports that Algorithm 1 caps are fixed at construction:
// ℓmax is a pure function of (vertex, graph, knowledge variant) and no
// transition, fault injector, or checkpoint restore (which requires the
// same graph and protocol) changes it.
func (s *alg1Slab) MutableCaps() bool { return false }

// TwoChannel reports single-channel (Algorithm 1) semantics.
func (s *alg1Slab) TwoChannel() bool { return false }

// alg1Machine is the per-vertex state of Algorithm 1: a single integer
// level in {-ℓmax, …, ℓmax}. The fields are int32 so a slab of machines
// packs 8 bytes per vertex, which halves the memory traffic of both the
// simulation loop and the bulk level export (levels are O(log n), so
// int32 is never a restriction).
type alg1Machine struct {
	level int32
	lmax  int32
}

var _ Leveled = (*alg1Machine)(nil)

// Emit beeps with probability min{2^-ℓ, 1} while ℓ < ℓmax, exactly the
// first branch of Algorithm 1.
func (m *alg1Machine) Emit(src *rng.Source) beep.Signal {
	if m.level < m.lmax && src.Bernoulli2Pow(int(m.level)) {
		return beep.Chan1
	}
	return beep.Silent
}

// Update applies the level transition of Algorithm 1:
//
//	heard a beep        → ℓ ← min{ℓ+1, ℓmax}
//	beeped, heard none  → ℓ ← -ℓmax       (commit to joining the MIS)
//	silent round        → ℓ ← max{ℓ-1, 1} (decay toward active beeping)
func (m *alg1Machine) Update(sent, heard beep.Signal) {
	switch {
	case heard.Has(beep.Chan1):
		if m.level+1 < m.lmax {
			m.level++
		} else {
			m.level = m.lmax
		}
	case sent.Has(beep.Chan1):
		m.level = -m.lmax
	default:
		if m.level-1 > 1 {
			m.level--
		} else {
			m.level = 1
		}
	}
}

// Randomize draws a uniform level from {-ℓmax, …, ℓmax}: an arbitrary
// RAM state after a transient fault.
func (m *alg1Machine) Randomize(src *rng.Source) {
	m.level = int32(src.Intn(int(2*m.lmax+1))) - m.lmax
}

// Level returns ℓ_t(v).
func (m *alg1Machine) Level() int { return int(m.level) }

// Cap returns ℓmax(v).
func (m *alg1Machine) Cap() int { return int(m.lmax) }

// SetLevel clamps l into {-ℓmax, …, ℓmax} and installs it.
func (m *alg1Machine) SetLevel(l int) {
	if l < int(-m.lmax) {
		l = int(-m.lmax)
	}
	if l > int(m.lmax) {
		l = int(m.lmax)
	}
	m.level = int32(l)
}
