package beep

import "repro/internal/rng"

// RoundDigest is the one per-round fingerprint of an execution. A round
// is fully described by every vertex's (sent, heard) pair, so the
// reference loop, every stripe count and every partition split of the
// same run yield the same digest sequence, and two runs compare round
// by round through it alone.
//
// It returns the share of vertices [lo, lo+len(sent)) in round round of
// an n-vertex network: the wrapping sum, over the vertices whose sent or
// heard signal is not silent, of a splitmix64-finalized (round, vertex,
// sent, heard) word, plus one (round, n) term in the share that starts
// at vertex 0. The shares of any split of [0, n) therefore add up to the
// whole-network value RoundDigest(round, 0, n, sent, heard), silent
// vertices cost nothing, and an all-silent round still digests to a
// nonzero value that depends on round and n. heard must be at least as
// long as sent.
func RoundDigest(round, lo, n int, sent, heard []Signal) uint64 {
	var d uint64
	if lo == 0 {
		d = digestTerm(round, n, 0)
	}
	heard = heard[:len(sent)]
	for i, s := range sent {
		if sh := uint64(s)<<8 | uint64(heard[i]); sh != 0 {
			d += digestTerm(round, lo+i, sh)
		}
	}
	return d
}

// digestTerm finalizes one (round, vertex, signals) word with the
// splitmix64 mixer. Within a round, distinct (vertex, signals) pairs are
// distinct words and the mixer is a bijection, so no two terms of one
// digest coincide. The (round, n) term is the word of a silent vertex n,
// which no vertex term can be: silent vertices add nothing and vertex n
// does not exist.
func digestTerm(round, v int, signals uint64) uint64 {
	return rng.Mix64(uint64(round)*0x9e3779b97f4a7c15 + (uint64(v)<<16 | signals))
}
