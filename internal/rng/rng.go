// Package rng provides deterministic, splittable pseudo-random number
// generation for the beeping-model simulator.
//
// Every vertex in a simulated network owns an independent stream derived
// from a single root seed, so executions are exactly reproducible across
// runs and across execution engines (sequential and concurrent), and two
// engines given the same seed consume the same random words per vertex.
//
// The generator is xoshiro256** seeded via splitmix64, a widely used
// combination with good statistical quality and a tiny state. The package
// also provides exact sampling of Bernoulli(2^-l) events, which is the
// only distribution the paper's algorithms draw from.
package rng

import "math/bits"

// splitMix64 advances a splitmix64 state and returns the next output.
// It is used for seeding and for deriving independent child streams.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	return Mix64(*state)
}

// Mix64 is the splitmix64 output finalizer: a bijection of uint64 that
// spreads every input bit over the whole output.
func Mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Source is a xoshiro256** pseudo-random generator.
//
// The zero value is NOT a valid source; construct with New or Split.
type Source struct {
	s [4]uint64
}

// New returns a Source seeded from seed via splitmix64, following the
// reference seeding procedure recommended by the xoshiro authors.
func New(seed uint64) *Source {
	var src Source
	src.Reseed(seed)
	return &src
}

// Reseed re-initializes the receiver exactly as New(seed) would,
// without allocating: after the call the receiver's stream is
// indistinguishable from a freshly constructed Source. It is the
// building block of allocation-free network re-seeding (replication
// pools reuse one Source value per vertex across trials).
func (s *Source) Reseed(seed uint64) {
	sm := seed
	for i := range s.s {
		s.s[i] = splitMix64(&sm)
	}
	// Guard against the (astronomically unlikely) all-zero state, which
	// is the one fixed point of the generator.
	if s.s[0]|s.s[1]|s.s[2]|s.s[3] == 0 {
		s.s[0] = 0x9e3779b97f4a7c15
	}
}

// Split derives the i-th child stream of s without perturbing s.
// Children with distinct indices have (with overwhelming probability)
// non-overlapping streams because each is re-seeded through splitmix64
// with a distinct derived seed.
func (s *Source) Split(i uint64) *Source {
	child := &Source{}
	s.SplitInto(i, child)
	return child
}

// SplitInto seeds dst with the i-th child stream of s, the
// allocation-free form of Split: dst ends in exactly the state
// Split(i) would have returned.
func (s *Source) SplitInto(i uint64, dst *Source) {
	// Mix the parent state and the child index into a fresh seed.
	seed := s.s[0] ^ bits.RotateLeft64(s.s[2], 17) ^ (i * 0xd1342543de82ef95)
	dst.Reseed(seed)
}

// State returns the generator's internal state for checkpointing.
func (s *Source) State() [4]uint64 { return s.s }

// SetState restores a state captured with State. Restoring the state of
// another Source makes the two streams identical from that point on.
func (s *Source) SetState(state [4]uint64) { s.s = state }

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Source) Uint64() uint64 {
	result := bits.RotateLeft64(s.s[1]*5, 7) * 9

	t := s.s[1] << 17
	s.s[2] ^= s.s[0]
	s.s[3] ^= s.s[1]
	s.s[1] ^= s.s[2]
	s.s[0] ^= s.s[3]
	s.s[2] ^= t
	s.s[3] = bits.RotateLeft64(s.s[3], 45)

	return result
}

// Int63 returns a non-negative 63-bit integer. It exists so a Source can
// back a math/rand.Rand where convenient in tests and tools.
func (s *Source) Int63() int64 {
	return int64(s.Uint64() >> 1)
}

// Seed is a no-op; Source is seeded at construction. It is provided so a
// *Source satisfies math/rand.Source64 in tests and tools.
func (s *Source) Seed(int64) {}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0, matching
// the contract of math/rand.Intn; callers in this module only pass
// positive n derived from validated graph sizes.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(s.boundedUint64(uint64(n)))
}

// boundedUint64 returns a uniform value in [0, bound) using Lemire's
// nearly-divisionless method with a rejection step to remove modulo bias.
func (s *Source) boundedUint64(bound uint64) uint64 {
	hi, lo := bits.Mul64(s.Uint64(), bound)
	if lo < bound {
		threshold := -bound % bound
		for lo < threshold {
			hi, lo = bits.Mul64(s.Uint64(), bound)
		}
	}
	return hi
}

// Bernoulli2Pow reports a Bernoulli trial that succeeds with probability
// exactly min(2^-l, 1).
//
// For l <= 0 it always returns true (probability clamped to 1), matching
// the beeping probability p_t(v) = min{2^-l, 1} of Algorithm 1. For
// 1 <= l it consumes ceil(l/64) words in the worst case: success requires
// l consecutive uniform bits to all be zero.
func (s *Source) Bernoulli2Pow(l int) bool {
	if l <= 0 {
		return true
	}
	for l > 64 {
		if s.Uint64() != 0 {
			return false
		}
		l -= 64
	}
	// Success iff the top l bits of a uniform word are all zero, an event
	// of probability exactly 2^-l.
	return s.Uint64()>>(64-uint(l)) == 0
}

// Coin reports a fair coin flip (probability 1/2).
func (s *Source) Coin() bool {
	return s.Uint64()>>63 == 0
}

// Perm returns a uniform random permutation of [0, n).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := 1; i < n; i++ {
		j := s.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle randomizes the order of n elements using the provided swap
// function, as in math/rand.Shuffle.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}
