package beep

import (
	"fmt"
	"math/bits"
)

// This file exports the partition hooks of the distributed engine
// (internal/dist): a Partition executes the round pipeline's kernels and
// word functions for one contiguous vertex range [lo, hi) of a full
// Network, with the signal exchange between ranges left to the caller.
// A distributed worker constructs the complete network (graph, machines,
// streams — state is cheap, the rounds are the cost), then steps only
// its own range; the per-vertex private streams guarantee that the
// union of the ranges reproduces the single-process execution bit for
// bit, exactly the determinism argument of the FlatParallel engine.
//
// A round of a partitioned execution is a delta exchange:
//
//	drew := p.EmitLocalSparse()          // kernels over active own words,
//	                                     // pack + diff vs the own baseline
//	wis, vals := p.SparseUpload(c)       // upload: only CHANGED own words
//	p.ApplyDeltaWord(c, wi, merged)      // download: only changed merged
//	                                     // words; flips mark touched words
//	changed := p.UpdateLocalSparse()     // re-gather touched, update
//	                                     // act ∪ touched, advance frontier
//
// Soundness is the single-process argument of pipeline.go verbatim: a
// word outside the frontier emitted deterministically from unchanged
// state, so its sent values and packed sender bits are already correct;
// a word the coordinator did not send back has an unchanged merged
// value, so every heard value it feeds is already correct; an update
// word outside act ∪ touched sees the identical (state, sent, heard)
// triple as last round. The delta is always exact, so there is no dense
// mode and no crossover.
//
// Ranges need not be 64-aligned: each partition packs only its own
// vertices' bits (foreign bits of shared edge words stay zero), so the
// coordinator can OR word uploads from adjacent partitions into the
// exact global sender bitset.
//
// ResetSparse re-establishes the base case after any restore: all own
// words active, zeroed upload/download baselines on both sides of the
// wire, and heard reset to Silent (matching the all-zero sender words),
// so the first round after a rewind repacks and re-exchanges everything
// that beeps.
//
// Checkpoint state leaves a partition as state rows (rows.go):
// UpdateLocalSparse ORs each round's drew|changed union into the
// network's own dirty-word tracker, and AppendDirtyRows exports the
// rows of the marked words of [lo, hi) and rebaselines it — the same
// tracker, capture and row layout a single-process CheckpointDelta
// uses.
//
// Partitioned execution excludes the fault models that consume shared
// sequential randomness (noise, sleep, adversaries): their draw order is
// a whole-network sequence that vertex ranges cannot consume
// independently. Partition refuses to construct when any of them is
// enabled.

// Partition is a [lo, hi) execution window over a Network, created by
// Network.Partition. It is not safe for concurrent use. All word masks
// have one bit per slab word over the GLOBAL word index space (so delta
// downloads can mark foreign-edge words directly); only bits of the
// partition's own words are ever set.
type Partition struct {
	net    *Network
	lo, hi int
	// words are the coordinator-merged per-channel sender bitsets of the
	// round, full word-length arrays maintained by ApplyDeltaWord.
	words  [2][]uint64
	env    FlatEnv
	rowBuf []int32
	// ownWords counts the partition's slab words [lo/64, (hi-1)/64].
	ownWords int
	// act gates the emit kernel; actCount is its popcount (the range's
	// frontier word count). allActive defers materializing the
	// all-own-words mask (after ResetSparse).
	act       []uint64
	actCount  int
	allActive bool
	// drewW / changedW are the kernels' output masks; updW gates the
	// update kernel (act ∪ touched); touchW accumulates the words whose
	// heard values the downloaded deltas touched.
	drewW, changedW, updW, touchW []uint64
	// own[c] holds the partition's packed channel-c sender words of the
	// previous round (foreign bits zero) — the upload-delta baseline.
	own [2][]uint64
	// upWi/upVal[c] list the own words whose packed value changed this
	// round — the upload. Capacity is the own word count, so steady
	// rounds never allocate.
	upWi  [2][]int32
	upVal [2][]uint64
}

// Partition creates the execution window for vertices [lo, hi). It
// requires the flat kernels and rejects networks with noise, sleep or
// adversaries enabled: those draw from shared sequential streams that
// partitions cannot split.
func (n *Network) Partition(lo, hi int) (*Partition, error) {
	if n.closed {
		return nil, fmt.Errorf("beep: Partition on closed Network")
	}
	if lo < 0 || hi < lo || hi > n.N() {
		return nil, fmt.Errorf("beep: partition range [%d, %d) out of [0, %d)", lo, hi, n.N())
	}
	if n.flatOps == nil {
		return nil, fmt.Errorf("beep: Partition requires flat kernels, but %T's bulk state (%T) does not implement FlatProtocol", n.proto, n.bulk)
	}
	if n.faultRound() {
		return nil, fmt.Errorf("beep: Partition with noise/sleep/adversaries enabled: fault-model draws are a whole-network sequence")
	}
	words := (n.N() + 63) >> 6
	mw := (words + 63) >> 6
	p := &Partition{net: n, lo: lo, hi: hi}
	if lo < hi {
		p.ownWords = (hi-1)>>6 - lo>>6 + 1
	}
	p.act = make([]uint64, mw)
	p.drewW = make([]uint64, mw)
	p.changedW = make([]uint64, mw)
	p.updW = make([]uint64, mw)
	p.touchW = make([]uint64, mw)
	for c := 0; c < n.channels; c++ {
		p.words[c] = make([]uint64, words)
		p.own[c] = make([]uint64, words)
		p.upWi[c] = make([]int32, 0, p.ownWords)
		p.upVal[c] = make([]uint64, 0, p.ownWords)
	}
	if n.csr == nil {
		p.rowBuf = make([]int32, n.g.MaxDegree())
	}
	p.ResetSparse()
	return p, nil
}

// Range returns the partition's vertex window.
func (p *Partition) Range() (lo, hi int) { return p.lo, p.hi }

// Channels returns the protocol's channel count (1 or 2).
func (p *Partition) Channels() int { return p.net.channels }

// ResetSparse rewinds the partition to the base case: every own word
// active, upload and download baselines zeroed, and heard[lo:hi)
// Silent. Callers invoke it after Network.Restore — the restored
// machine state invalidates every incremental baseline (Restore itself
// marks every row dirty) — and the coordinator must zero its side of
// the exchange in the same breath.
func (p *Partition) ResetSparse() {
	n := p.net
	for c := 0; c < n.channels; c++ {
		clearMask(p.words[c])
		clearMask(p.own[c])
		p.upWi[c] = p.upWi[c][:0]
		p.upVal[c] = p.upVal[c][:0]
	}
	clearMask(p.touchW)
	p.allActive = true
	for v := p.lo; v < p.hi; v++ {
		n.heard[v] = Silent
	}
}

// ready reports the error that keeps the partition from running a
// phase: a closed or poisoned network.
func (p *Partition) ready() error {
	if p.net.closed {
		return ErrClosed
	}
	if p.net.failed != nil {
		return p.net.failed
	}
	return nil
}

// EmitLocalSparse runs the emit kernel over the partition's active
// words, re-packs them, and records the upload delta (the own words
// whose packed sender bits changed). An empty frontier is a local fixed
// point: no kernel runs, no stream moves, and the upload is empty. It
// reports whether the kernel consumed randomness. A kernel panic is
// contained into a *RunError and poisons the network like TryStep.
func (p *Partition) EmitLocalSparse() (drew bool, err error) {
	if err := p.ready(); err != nil {
		return false, err
	}
	n := p.net
	if p.allActive {
		clearMask(p.act)
		for wi := p.lo >> 6; wi < p.lo>>6+p.ownWords; wi++ {
			p.act[wi>>6] |= 1 << uint(wi&63)
		}
		p.actCount = p.ownWords
		p.allActive = false
	}
	for c := 0; c < n.channels; c++ {
		p.upWi[c] = p.upWi[c][:0]
		p.upVal[c] = p.upVal[c][:0]
	}
	if p.actCount == 0 {
		return false, nil
	}
	env := &p.env
	env.Sent, env.Heard, env.Srcs, env.Skip = n.sent, n.heard, n.srcs, nil
	if rerr := n.runKernel(phaseEmit, env, p.act, p.drewW, p.lo, p.hi); rerr != nil {
		n.failed = rerr
		return false, rerr
	}
	two := n.channels == 2
	for mi, m := range p.act {
		drew = drew || p.drewW[mi] != 0
		for m != 0 {
			b := bits.TrailingZeros64(m)
			m &= m - 1
			wi := mi<<6 + b
			v0, v1 := packWord(n.sent, wi, p.lo, p.hi, two)
			if p.own[0][wi] != v0 {
				p.own[0][wi] = v0
				p.upWi[0] = append(p.upWi[0], int32(wi))
				p.upVal[0] = append(p.upVal[0], v0)
			}
			if two && p.own[1][wi] != v1 {
				p.own[1][wi] = v1
				p.upWi[1] = append(p.upWi[1], int32(wi))
				p.upVal[1] = append(p.upVal[1], v1)
			}
		}
	}
	return drew, nil
}

// SparseUpload returns the channel-c upload delta recorded by the last
// EmitLocalSparse: the own word indices whose packed value changed,
// with the new values, in ascending order. The slices alias partition
// storage and are overwritten by the next EmitLocalSparse.
func (p *Partition) SparseUpload(c int) (wis []int32, vals []uint64) {
	return p.upWi[c], p.upVal[c]
}

// ApplyDeltaWord installs one coordinator-merged sender word that
// changed since the last round, and marks the own slab words containing
// a neighbor of any flipped bit as touched — exactly the vertices whose
// heard value can have changed. Unchanged installs are no-ops, so
// replayed deltas are idempotent.
func (p *Partition) ApplyDeltaWord(c, wi int, w uint64) {
	old := p.words[c][wi]
	if old == w {
		return
	}
	p.words[c][wi] = w
	p.net.markTouched(p.touchW, wi, old^w, p.lo, p.hi, p.rowBuf)
}

// UpdateLocalSparse re-gathers heard for the touched words, runs the
// update kernel over act ∪ touched, advances the frontier to
// drewW | changedW, and increments the round counter. It reports
// whether any machine state changed, with the same panic containment as
// EmitLocalSparse.
func (p *Partition) UpdateLocalSparse() (changed bool, err error) {
	if err := p.ready(); err != nil {
		return false, err
	}
	n := p.net
	n.gatherWords(&p.words, p.touchW, p.lo, p.hi, p.rowBuf)
	for mi := range p.updW {
		p.updW[mi] = p.act[mi] | p.touchW[mi]
	}
	if rerr := n.runKernel(phaseUpdate, &p.env, p.updW, p.changedW, p.lo, p.hi); rerr != nil {
		n.failed = rerr
		return false, rerr
	}
	cnt := 0
	for mi := range p.act {
		a := p.drewW[mi] | p.changedW[mi]
		p.act[mi] = a
		cnt += bits.OnesCount64(a)
		changed = changed || p.changedW[mi] != 0
	}
	p.actCount = cnt
	// The end-of-round activity union is exactly the set of own words
	// that drew a stream or changed machine state this round (the
	// dirty-accumulation invariant, see delta.go).
	if cnt > 0 {
		n.dirty.markWords(p.act)
	}
	clearMask(p.touchW)
	n.round++
	return changed, nil
}

// Signals returns the network's sent and heard arrays. Only the
// partition's own range is maintained by EmitLocalSparse and
// UpdateLocalSparse; foreign entries are stale. The slices alias
// network storage.
func (p *Partition) Signals() (sent, heard []Signal) { return p.net.sent, p.net.heard }

// AppendDirtyRows appends the state rows (see rows.go) of every own
// vertex whose slab word the network's dirty tracker marked since the
// previous export — all of [lo, hi) after creation or Restore — and
// rebaselines the tracker. Rows are ascending and clamped to [lo, hi),
// so adjacent partitions sharing a boundary word export disjoint
// vertex sets. On error (poisoned network, non-checkpointable machine)
// the baseline is left untouched.
func (p *Partition) AppendDirtyRows(dst []byte) ([]byte, error) {
	n := p.net
	if n.failed != nil {
		return nil, fmt.Errorf("beep: state export of failed network: %w", n.failed)
	}
	mask := n.dirty.ck.mask
	if n.DirtyAll() {
		mask = nil
	}
	rows, err := n.capture(mask, p.lo, p.hi, true)
	if err != nil {
		return nil, err
	}
	return AppendStateRows(dst, &rows), nil
}
