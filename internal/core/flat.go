package core

import (
	"math/bits"

	"repro/internal/beep"
	"repro/internal/graph"
)

// This file implements the flat kernels (beep.FlatProtocol) and
// in-place re-initialization (beep.FlatReiniter) for the three machine
// slabs. Each kernel is the loop body of the corresponding
// Machine.Emit/Update inlined over the contiguous slab, with the
// per-vertex interface dispatch and pointer chase removed; every vertex
// consumes precisely the draws its machine would have, so flat
// executions are bit-identical to the reference loop (pinned by
// TestEngineTraceEquivalence and FuzzFlatEmitDrawEquivalence).
//
// The kernels are word-masked: slab word wi (vertices [wi*64, wi*64+64))
// is visited iff bit wi of the mask is set, and the kernel reports back
// a same-shaped output mask of the words where it consumed randomness
// (emit) or moved state (update). Skipping an unmarked word is exact,
// not approximate: the engine only clears a word's activity bit when
// every vertex in it emitted deterministically (no draw) and kept its
// state last round, in which case this round's emit is the same
// deterministic function of the same state — Sent is already correct
// and no stream advances. The same argument makes update skipping an
// identity: an unmarked update word saw the identical (state, sent,
// heard) triple as the previous round, where the transition changed
// nothing.
//
// Each visited word runs one of two inner loops: the fault-free one
// with no per-vertex mask probe, and one honouring env.Skip for the
// sleeping and adversarial vertices of fault rounds (whose Sent entries
// the engine pre-filled and whose state must not move).

var (
	_ beep.FlatProtocol = (*alg1Slab)(nil)
	_ beep.FlatReiniter = (*alg1Slab)(nil)
	_ beep.FlatProtocol = (*alg2Slab)(nil)
	_ beep.FlatReiniter = (*alg2Slab)(nil)
	_ beep.FlatProtocol = (*adaptiveSlab)(nil)
	_ beep.FlatReiniter = (*adaptiveSlab)(nil)
)

// maskBits returns mask[mi] clamped so that only bits naming slab words
// inside [wlo, whi] (inclusive word bounds) survive.
func maskBits(mask []uint64, mi, wlo, whi int) uint64 {
	m := mask[mi]
	if mi == wlo>>6 {
		m &= ^uint64(0) << uint(wlo&63)
	}
	if mi == whi>>6 {
		if r := whi & 63; r != 63 {
			m &= uint64(1)<<uint(r+1) - 1
		}
	}
	return m
}

// wordSpan returns the vertices of slab word wi clamped to [lo, hi).
func wordSpan(wi, lo, hi int) (start, end int) {
	start, end = wi<<6, wi<<6+64
	if start < lo {
		start = lo
	}
	if end > hi {
		end = hi
	}
	return start, end
}

// emitWords runs an emit rule over the marked words of [lo, hi). rule
// returns the vertex's level and either its deterministic signal or
// draw = true, in which case the vertex beeps on channel 1 with
// probability 2^-level, drawn from its own stream exactly as its
// Machine.Emit would draw.
func emitWords[M any](env *beep.FlatEnv, ms []M, act, drewW []uint64, lo, hi int, rule func(*M) (lv int32, sig beep.Signal, draw bool)) {
	if hi <= lo {
		return
	}
	sent, srcs, skip := env.Sent, env.Srcs, env.Skip
	wlo, whi := lo>>6, (hi-1)>>6
	for mi := wlo >> 6; mi <= whi>>6; mi++ {
		m := maskBits(act, mi, wlo, whi)
		for m != 0 {
			b := bits.TrailingZeros64(m)
			m &= m - 1
			start, end := wordSpan(mi<<6+b, lo, hi)
			wordDrew := false
			if skip == nil {
				for v := start; v < end; v++ {
					lv, sig, draw := rule(&ms[v])
					if draw {
						wordDrew = true
						if srcs[v].Bernoulli2Pow(int(lv)) {
							sig = beep.Chan1
						}
					}
					sent[v] = sig
				}
			} else {
				for v := start; v < end; v++ {
					if skip.Get(v) {
						continue
					}
					lv, sig, draw := rule(&ms[v])
					if draw {
						wordDrew = true
						if srcs[v].Bernoulli2Pow(int(lv)) {
							sig = beep.Chan1
						}
					}
					sent[v] = sig
				}
			}
			if wordDrew {
				drewW[mi] |= uint64(1) << uint(b)
			}
		}
	}
}

// updateWords applies a slab transition over the marked words of
// [lo, hi), recording per-word change bits.
func updateWords[M any](env *beep.FlatEnv, ms []M, upd, changedW []uint64, lo, hi int, step func(*M, beep.Signal, beep.Signal) bool) {
	if hi <= lo {
		return
	}
	sent, heard, skip := env.Sent, env.Heard, env.Skip
	wlo, whi := lo>>6, (hi-1)>>6
	for mi := wlo >> 6; mi <= whi>>6; mi++ {
		m := maskBits(upd, mi, wlo, whi)
		for m != 0 {
			b := bits.TrailingZeros64(m)
			m &= m - 1
			start, end := wordSpan(mi<<6+b, lo, hi)
			wordChanged := false
			if skip == nil {
				for v := start; v < end; v++ {
					if step(&ms[v], sent[v], heard[v]) {
						wordChanged = true
					}
				}
			} else {
				for v := start; v < end; v++ {
					if !skip.Get(v) && step(&ms[v], sent[v], heard[v]) {
						wordChanged = true
					}
				}
			}
			if wordChanged {
				changedW[mi] |= uint64(1) << uint(b)
			}
		}
	}
}

// --- Algorithm 1 ---

// alg1Rule is alg1Machine.Emit on one slab entry: beep with probability
// min{2^-ℓ, 1} while ℓ < ℓmax. Vertices at ℓ ≤ 0 beep surely and, like
// the per-machine path, consume no randomness — in a stabilized
// configuration (MIS members at -ℓmax, the rest at ℓmax) emit makes
// zero generator calls. The adaptive heuristic promotes it unchanged.
func alg1Rule(m *alg1Machine) (int32, beep.Signal, bool) {
	switch {
	case m.level >= m.lmax:
		return m.level, beep.Silent, false
	case m.level <= 0:
		return m.level, beep.Chan1, false
	}
	return m.level, beep.Silent, true
}

// Emit implements beep.FlatProtocol.
func (s *alg1Slab) Emit(env *beep.FlatEnv, act, drewW []uint64, lo, hi int) {
	emitWords(env, s.ms, act, drewW, lo, hi, alg1Rule)
}

// Update implements beep.FlatProtocol.
func (s *alg1Slab) Update(env *beep.FlatEnv, upd, changedW []uint64, lo, hi int) {
	updateWords(env, s.ms, upd, changedW, lo, hi, alg1Step)
}

// alg1Step is the Algorithm 1 level transition (alg1Machine.Update) on
// a slab entry, reporting whether the level moved.
func alg1Step(m *alg1Machine, sent, heard beep.Signal) bool {
	lv := m.level
	var nl int32
	switch {
	case heard&beep.Chan1 != 0:
		nl = lv + 1
		if nl > m.lmax {
			nl = m.lmax
		}
	case sent&beep.Chan1 != 0:
		nl = -m.lmax
	default:
		nl = lv - 1
		if nl < 1 {
			nl = 1
		}
	}
	m.level = nl
	return nl != lv
}

// ReinitAll restores every machine to its construction-time state for
// g, exactly as NewMachines would have built it (beep.FlatReiniter).
func (s *alg1Slab) ReinitAll(g graph.Topology) {
	for v := range s.ms {
		s.p.initMachine(&s.ms[v], v, g)
	}
}

// --- Algorithm 2 ---

// alg2Rule is alg2Machine.Emit on one slab entry: beep₂ at ℓ = 0 (the
// MIS announcement, no randomness), beep₁ with probability 2^-ℓ while
// 0 < ℓ < ℓmax.
func alg2Rule(m *alg2Machine) (int32, beep.Signal, bool) {
	switch {
	case m.level == 0:
		return 0, beep.Chan2, false
	case m.level >= m.lmax:
		return m.level, beep.Silent, false
	}
	return m.level, beep.Silent, true
}

// Emit implements beep.FlatProtocol.
func (s *alg2Slab) Emit(env *beep.FlatEnv, act, drewW []uint64, lo, hi int) {
	emitWords(env, s.ms, act, drewW, lo, hi, alg2Rule)
}

// Update implements beep.FlatProtocol.
func (s *alg2Slab) Update(env *beep.FlatEnv, upd, changedW []uint64, lo, hi int) {
	updateWords(env, s.ms, upd, changedW, lo, hi, alg2Step)
}

// alg2Step is the Algorithm 2 level transition (alg2Machine.Update) on
// a slab entry, reporting whether the level moved.
func alg2Step(m *alg2Machine, sent, heard beep.Signal) bool {
	lv := m.level
	nl := lv
	switch {
	case heard&beep.Chan2 != 0:
		nl = m.lmax
	case heard&beep.Chan1 != 0:
		nl = lv + 1
		if nl > m.lmax {
			nl = m.lmax
		}
	case sent&beep.Chan1 != 0:
		nl = 0
	case sent&beep.Chan2 == 0:
		nl = lv - 1
		if nl < 1 {
			nl = 1
		}
	}
	m.level = nl
	return nl != lv
}

// ReinitAll restores every machine to its construction-time state for
// g (beep.FlatReiniter).
func (s *alg2Slab) ReinitAll(g graph.Topology) {
	for v := range s.ms {
		s.p.initMachine(&s.ms[v], v, g)
	}
}

// --- Adaptive heuristic ---

// Emit implements beep.FlatProtocol (Algorithm 1 emit rule, promoted
// unchanged by the adaptive heuristic).
func (s *adaptiveSlab) Emit(env *beep.FlatEnv, act, drewW []uint64, lo, hi int) {
	emitWords(env, s.ms, act, drewW, lo, hi, func(m *adaptiveMachine) (int32, beep.Signal, bool) {
		return alg1Rule(&m.alg1Machine)
	})
}

// Update implements beep.FlatProtocol (the cap-doubling collision rule
// rides along in adaptiveStep, so a collision marks the word changed
// even when the level is pinned).
func (s *adaptiveSlab) Update(env *beep.FlatEnv, upd, changedW []uint64, lo, hi int) {
	updateWords(env, s.ms, upd, changedW, lo, hi, adaptiveStep)
}

// adaptiveStep is adaptiveMachine.Update on a slab entry: the Algorithm
// 1 transition followed by the collision-driven cap doubling. It
// reports whether any state (level, cap, or collision counter) moved —
// a collision always moves the counter or the cap.
func adaptiveStep(m *adaptiveMachine, sent, heard beep.Signal) bool {
	collided := sent&beep.Chan1 != 0 && heard&beep.Chan1 != 0
	changed := alg1Step(&m.alg1Machine, sent, heard)
	if !collided {
		return changed
	}
	m.collisions++
	if m.collisions >= m.threshold {
		m.collisions = 0
		newCap := 2 * int(m.lmax)
		if newCap > m.maxCap {
			newCap = m.maxCap
		}
		m.lmax = int32(newCap)
	}
	return true
}

// ReinitAll restores every machine to its construction-time state
// (beep.FlatReiniter; the adaptive machines carry no per-vertex
// topology knowledge, so g is unused beyond the interface contract).
func (s *adaptiveSlab) ReinitAll(graph.Topology) {
	for v := range s.ms {
		s.p.initMachine(&s.ms[v])
	}
}
