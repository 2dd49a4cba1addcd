package core

import (
	"fmt"

	"repro/internal/beep"
)

// StateCodec implementations for the core machines, enabling exact
// checkpoint/restore of executions (beep.Network.Checkpoint).

var (
	_ beep.StateCodec = (*alg1Machine)(nil)
	_ beep.StateCodec = (*alg2Machine)(nil)
	_ beep.StateCodec = (*adaptiveMachine)(nil)
)

// AppendState appends (level, ℓmax).
func (m *alg1Machine) AppendState(dst []int64) []int64 {
	return append(dst, int64(m.level), int64(m.lmax))
}

// DecodeState restores (level, ℓmax), validating the range invariant.
func (m *alg1Machine) DecodeState(state []int64) error {
	if len(state) != 2 {
		return fmt.Errorf("core: alg1 state length %d, want 2", len(state))
	}
	level, lmax := int(state[0]), int(state[1])
	if lmax < 1 || level < -lmax || level > lmax {
		return fmt.Errorf("core: alg1 state (level=%d, ℓmax=%d) out of range", level, lmax)
	}
	m.level, m.lmax = int32(level), int32(lmax)
	return nil
}

// AppendState appends (level, ℓmax).
func (m *alg2Machine) AppendState(dst []int64) []int64 {
	return append(dst, int64(m.level), int64(m.lmax))
}

// DecodeState restores (level, ℓmax), validating the range invariant.
func (m *alg2Machine) DecodeState(state []int64) error {
	if len(state) != 2 {
		return fmt.Errorf("core: alg2 state length %d, want 2", len(state))
	}
	level, lmax := int(state[0]), int(state[1])
	if lmax < 1 || level < 0 || level > lmax {
		return fmt.Errorf("core: alg2 state (level=%d, ℓmax=%d) out of range", level, lmax)
	}
	m.level, m.lmax = int32(level), int32(lmax)
	return nil
}

// AppendState appends (level, ℓmax, collisions, maxCap, threshold).
func (m *adaptiveMachine) AppendState(dst []int64) []int64 {
	return append(dst, int64(m.level), int64(m.lmax), int64(m.collisions), int64(m.maxCap), int64(m.threshold))
}

// DecodeState restores the adaptive machine's full state.
func (m *adaptiveMachine) DecodeState(state []int64) error {
	if len(state) != 5 {
		return fmt.Errorf("core: adaptive state length %d, want 5", len(state))
	}
	level, lmax := int(state[0]), int(state[1])
	collisions, maxCap, threshold := int(state[2]), int(state[3]), int(state[4])
	if lmax < 1 || level < -lmax || level > lmax || maxCap < lmax || threshold < 1 || collisions < 0 {
		return fmt.Errorf("core: adaptive state %v inconsistent", state)
	}
	m.level, m.lmax = int32(level), int32(lmax)
	m.collisions, m.maxCap, m.threshold = collisions, maxCap, threshold
	return nil
}
