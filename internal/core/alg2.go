package core

import (
	"repro/internal/beep"
	"repro/internal/graph"
	"repro/internal/rng"
)

// Alg2 is Algorithm 2 of the paper: the variant for the beeping model
// with two distinguishable channels. Levels live in {0, …, ℓmax(v)};
// ℓ = 0 means "in the MIS" and is announced every round on channel 2,
// ℓ = ℓmax means "not in the MIS". Construct with NewAlg2.
type Alg2 struct {
	cap       LevelCap
	initLevel func(v int) int
}

var (
	_ beep.Protocol      = (*Alg2)(nil)
	_ beep.BatchProtocol = (*Alg2)(nil)
)

// NewAlg2 returns the two-channel protocol with the given knowledge
// variant (Corollary 2.3 uses NeighborhoodMaxDegree).
func NewAlg2(cap LevelCap) *Alg2 {
	return &Alg2{cap: cap}
}

// WithInitialLevels sets a deterministic initial level per vertex,
// clamped to {0, …, ℓmax(v)}. It returns the receiver for chaining.
func (p *Alg2) WithInitialLevels(fn func(v int) int) *Alg2 {
	p.initLevel = fn
	return p
}

// Channels reports that Algorithm 2 uses two beeping channels.
func (p *Alg2) Channels() int { return 2 }

// NewMachine builds the vertex machine with ℓmax(v) from the knowledge
// variant.
func (p *Alg2) NewMachine(v int, g graph.Topology) beep.Machine {
	m := &alg2Machine{}
	p.initMachine(m, v, g)
	return m
}

// initMachine installs ℓmax(v) and the initial level, shared by the
// per-vertex and batch construction paths.
func (p *Alg2) initMachine(m *alg2Machine, v int, g graph.Topology) {
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

// NewMachines builds the whole cohort at once (beep.BatchProtocol); see
// Alg1.NewMachines. The slab is the bulk-state handle implementing
// LevelExporter with Algorithm 2 (two-channel) semantics.
func (p *Alg2) NewMachines(g graph.Topology) ([]beep.Machine, any) {
	n := g.N()
	slab := &alg2Slab{p: p, ms: make([]alg2Machine, n)}
	ms := make([]beep.Machine, n)
	for v := 0; v < n; v++ {
		m := &slab.ms[v]
		p.initMachine(m, v, g)
		ms[v] = m
	}
	return ms, slab
}

// alg2Slab is the contiguous machine storage of one Algorithm 2 network
// and its bulk level accessor. It keeps the protocol it was built by so
// the cohort can be re-initialized in place (beep.FlatReiniter).
type alg2Slab struct {
	p  *Alg2
	ms []alg2Machine
}

var _ LevelExporter = (*alg2Slab)(nil)

// ExportLevels copies the (ℓ, ℓmax) of the machines in the marked
// slab words into the destination slices, one linear pass over each
// run of contiguous slab. A nil caps skips the ℓmax export (the caller
// has already captured the immutable caps).
func (s *alg2Slab) ExportLevels(levels, caps []int32, words []uint64) {
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

// MutableCaps reports that Algorithm 2 caps are fixed at construction.
func (s *alg2Slab) MutableCaps() bool { return false }

// TwoChannel reports two-channel (Algorithm 2) semantics.
func (s *alg2Slab) TwoChannel() bool { return true }

// alg2Machine is the per-vertex state of Algorithm 2: a level in
// {0, …, ℓmax}. As for Algorithm 1, int32 fields pack a slab of
// machines 8 bytes per vertex.
type alg2Machine struct {
	level int32
	lmax  int32
}

var _ Leveled = (*alg2Machine)(nil)

// Emit transmits beep₁ with probability 2^-ℓ while 0 < ℓ < ℓmax, and
// beep₂ (the MIS announcement) whenever ℓ = 0. The two conditions are
// disjoint, so at most one channel is used per round.
func (m *alg2Machine) Emit(src *rng.Source) beep.Signal {
	if m.level == 0 {
		return beep.Chan2
	}
	if m.level < m.lmax && src.Bernoulli2Pow(int(m.level)) {
		return beep.Chan1
	}
	return beep.Silent
}

// Update applies the transition of Algorithm 2, in priority order:
//
//	heard beep₂            → ℓ ← ℓmax      (an MIS neighbor exists)
//	heard beep₁            → ℓ ← min{ℓ+1, ℓmax}
//	sent beep₁, heard none → ℓ ← 0          (join the MIS)
//	silent, not in MIS     → ℓ ← max{ℓ-1, 1}
//
// A vertex that sent beep₂ and heard nothing keeps ℓ = 0.
func (m *alg2Machine) Update(sent, heard beep.Signal) {
	switch {
	case heard.Has(beep.Chan2):
		m.level = m.lmax
	case heard.Has(beep.Chan1):
		if m.level+1 < m.lmax {
			m.level++
		} else {
			m.level = m.lmax
		}
	case sent.Has(beep.Chan1):
		m.level = 0
	case !sent.Has(beep.Chan2):
		if m.level-1 > 1 {
			m.level--
		} else {
			m.level = 1
		}
	}
}

// Randomize draws a uniform level from {0, …, ℓmax}.
func (m *alg2Machine) Randomize(src *rng.Source) {
	m.level = int32(src.Intn(int(m.lmax + 1)))
}

// Level returns ℓ_t(v).
func (m *alg2Machine) Level() int { return int(m.level) }

// Cap returns ℓmax(v).
func (m *alg2Machine) Cap() int { return int(m.lmax) }

// SetLevel clamps l into {0, …, ℓmax} and installs it.
func (m *alg2Machine) SetLevel(l int) {
	if l < 0 {
		l = 0
	}
	if l > int(m.lmax) {
		l = int(m.lmax)
	}
	m.level = int32(l)
}
