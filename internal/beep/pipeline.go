package beep

import (
	"math/bits"
	"runtime/debug"

	"repro/internal/bitset"
)

// This file implements the round pipeline of the flat kernels: one
// round is emit → repack → deliver → update → frontier fold, run over
// K = WithWorkers contiguous vertex stripes. K = 1 (the default) calls
// every phase inline; K > 1 runs the stripes through the worker pool's
// phase barrier. A distributed Partition (partition.go) drives the
// same kernels and word functions over its own range, with the signal
// exchange between pack and deliver.
//
// Activity. After the transient phase of a self-stabilizing execution,
// almost all vertices sit at a fixed point and only a small *frontier*
// still draws randomness or moves state. The pipeline tracks activity
// at slab-word granularity (64 vertices per word, one mask bit per
// word) and runs the kernels only over marked words. The frontier rule
// is
//
//	act(r) = drewW(r-1) | changedW(r-1)   ∪ external marks,
//
// with act(0) = all words. Skipping an unmarked word is exact: a word
// that neither drew nor changed last round emitted deterministically
// from unchanged state, so this round's emit reproduces the identical
// Sent values without advancing any stream — Sent is already correct.
// The update set is act(r) ∪ the words whose heard values changed this
// round (computed from the sender-bit *flips* of the emit: XOR of
// consecutive sender bitsets, OR-folded over the flipped vertices'
// neighbor rows). An update word outside that set sees the identical
// (state, sent, heard) triple as last round, where the transition
// changed nothing — an identity. External state mutations (Machine
// handles, Corrupt, Restore, Rewire, Reseed) mark their vertices — or
// conservatively everything — active, re-establishing the base case.
// An empty frontier is a proven fixed point, so the round is elided in
// O(1).
//
// Delivery. The emit repack maintains the per-channel sender bitsets
// incrementally over active words, recording flipped words. When few
// vertices flipped, delivery is a *delta*: only the neighbors of
// flipped senders can hear something new, so the pipeline re-gathers
// exactly the touched words and leaves every other heard value in
// place. Dense delivery — the early-exit gather or the sender-row
// scatter, picked by GatherCrossoverFactor — is an internal mode,
// chosen when the round starts from an all-active frontier (after
// markAll), when the delta would cost more (SparseCrossoverFactor), and
// in every fault round. All modes produce bit-identical heard arrays.
//
// Fault rounds. Noise, sleep and adversaries perturb rounds from
// outside the kernels. Such a round is the same pipeline with every
// word active, the skip mask of sleepers and adversaries handed to the
// kernels, dense delivery and the noise pass between deliver and
// update; it ends with markAll, so the next round re-establishes the
// sender-bit and heard invariants densely no matter what the fault
// round did to them.
//
// Determinism. Each vertex consumes randomness only from its own
// private stream, and each stripe touches only its own vertices'
// streams and sent entries, so the draws every vertex sees are
// independent of the stripe count and of scheduling. The passes that
// consume shared streams (sleep, adversaries, noise) and the
// frontier-sized bookkeeping (repack, flip marking, delta gather) run
// on the coordinator.

// WithStatsObserver installs a callback invoked after every round with
// the round's activity statistics: the number of vertices the emit
// kernel visited and the number of active slab words (the frontier).
// Reference-loop and fault rounds report full activity (n vertices, all
// words); elided fixed-point rounds report zero.
func WithStatsObserver(fn func(round, active, frontierWords int)) Option {
	return func(n *Network) { n.statsObs = fn }
}

// WithForcedDelta makes every round that is not forced dense deliver
// through the delta re-gather, bypassing SparseCrossoverFactor. It is a
// test hook: the equivalence matrices run graphs of a few dozen
// vertices, where the crossover always picks dense delivery, and use it
// to pin the delta path against the reference loop. Construction fails
// without flat kernels, where it would pin nothing.
func WithForcedDelta() Option {
	return func(n *Network) { n.forceDelta = true }
}

// SparseCrossoverFactor is the delta/dense crossover of the pipeline's
// delivery: the delta path (re-gather only the words touched by flipped
// senders) is taken while its measured cost — 64 × touched words ×
// (avgDeg + 1), a row scan per vertex of each touched word — stays at
// or below SparseCrossoverFactor × the estimated cost of the dense
// delivery that would otherwise run: senders × (avgDeg + 1) for the
// scatter, capped at the gather's GatherCrossoverFactor × N bound. The
// touched-word count is measured (sparseMarkTouched computes it from
// the flip records before the decision — work the delta path needs
// anyway), because a few dozen flipped senders on a scattered graph
// touch nearly every slab word. The delta re-gather gets no early-exit
// discount, because it runs precisely in regimes where few vertices
// beep, so the per-vertex scan usually walks the whole row. Chosen by
// measurement like GatherCrossoverFactor: the activity-decay bench
// (BenchmarkSparseRound, exp E21) shows the two paths within noise of
// each other at the boundary, so the constant is uncritical; both
// produce identical heard arrays.
const SparseCrossoverFactor = 1

// deltaWantsDense applies the delta-delivery crossover cost model.
func deltaWantsDense(touched, senders, avgDeg, N int) bool {
	deltaCost := touched * 64 * (avgDeg + 1)
	denseCost := senders * (avgDeg + 1)
	if bound := GatherCrossoverFactor * N; denseCost > bound {
		denseCost = bound
	}
	return deltaCost > SparseCrossoverFactor*denseCost
}

// sparseState is the per-network activity state of the pipeline. All
// masks have one bit per slab word (ceil(words/64) uint64s, words =
// ceil(n/64)); clears are O(n/4096) and thus free at any scale.
type sparseState struct {
	// n is the vertex count the buffers are sized for (0 = never
	// sized); a mismatch triggers a full re-size + markAll.
	n int
	// act gates the emit kernel; actCount is its popcount (frontier
	// word count), giving O(1) empty-frontier detection.
	act      []uint64
	actCount int
	// updW gates the update kernel (act ∪ touched); touchW marks the
	// words whose heard values delta delivery recomputes this round.
	updW, touchW []uint64
	// allActive defers materializing a full act mask (initial state,
	// and after any markAll); forceDense additionally forces the next
	// round to deliver densely and recount senders absolutely,
	// re-establishing the sender-bit/heard invariants after external
	// perturbations (fault rounds, Restore, Reseed, Rewire).
	allActive  bool
	forceDense bool
	// senders[c] is the incrementally maintained popcount of the
	// channel-c sender bitset, feeding the dense scatter/gather
	// crossover without a full recount.
	senders [2]int
	// flipWi/flipBits record the emit repack's flipped words: slab
	// word index plus per-channel XOR of old and new sender bits.
	// Capacity is pre-allocated to the full word count, so steady
	// rounds never allocate.
	flipWi   []int32
	flipBits [2][]uint64
}

// markAll conservatively marks every vertex active and forces the next
// round to rebuild the delivery invariants densely.
func (s *sparseState) markAll() {
	s.allActive = true
	s.forceDense = true
}

// markVertex marks vertex v's slab word active (out-of-range or
// never-sized falls back to markAll).
func (s *sparseState) markVertex(v int) {
	if s.allActive {
		return
	}
	if s.n == 0 || v < 0 || v >= s.n {
		s.markAll()
		return
	}
	wi := v >> 6
	mi, b := wi>>6, uint64(1)<<uint(wi&63)
	if s.act[mi]&b == 0 {
		s.act[mi] |= b
		s.actCount++
	}
}

// ensure sizes the activity buffers, the sender bitsets and the stripes'
// output masks for the network's current vertex count. A resize zeroes
// the sender bitsets and their counts so the incremental repack
// restarts from a consistent (empty) baseline.
func (s *sparseState) ensure(n *Network) {
	N := n.N()
	if s.n == N {
		return
	}
	words := (N + 63) >> 6
	mw := (words + 63) >> 6
	s.act = make([]uint64, mw)
	s.updW = make([]uint64, mw)
	s.touchW = make([]uint64, mw)
	s.flipWi = make([]int32, 0, words)
	for c := 0; c < n.channels; c++ {
		s.flipBits[c] = make([]uint64, 0, words)
		n.sendBits[c] = make([]uint64, words)
	}
	for i := range n.stripes {
		st := &n.stripes[i]
		st.drewW = make([]uint64, mw)
		st.changedW = make([]uint64, mw)
	}
	s.senders = [2]int{}
	s.n = N
	s.markAll()
}

// materializeAll writes the deferred all-active state into the mask.
func (s *sparseState) materializeAll() {
	words := (s.n + 63) >> 6
	maskSetAll(s.act, words)
	s.actCount = words
	s.allActive = false
}

// clearMask zeroes an activity mask.
func clearMask(m []uint64) {
	for i := range m {
		m[i] = 0
	}
}

// maskSetAll sets the first words bits of m and clears the rest.
func maskSetAll(m []uint64, words int) {
	full := words >> 6
	for i := 0; i < full; i++ {
		m[i] = ^uint64(0)
	}
	for i := full; i < len(m); i++ {
		m[i] = 0
	}
	if r := words & 63; r != 0 {
		m[full] = uint64(1)<<uint(r) - 1
	}
}

// stripe is the per-stripe state of the pipeline: the stripe's vertex
// window, its private kernel environment and output masks, and its
// private scatter scratch. The trailing pad keeps the per-round mutable
// fields of adjacent stripes on different cache lines.
type stripe struct {
	lo, hi int
	// env is the stripe's kernel environment.
	env FlatEnv
	// drewW / changedW are the stripe's kernel output masks (full mask
	// length). Each kernel call clears its mask first and the
	// coordinator OR-folds them after the update.
	drewW, changedW []uint64
	// scratch[c] is the stripe's channel-c heard accumulation mask, full
	// network length, valid only when active.
	scratch [2]bitset.Set
	// row is the stripe's neighbor scratch for synthesizing backends,
	// allocated on first use; nil on the materialized fast path.
	row []int32
	// active reports that the stripe scattered into scratch this round;
	// compose skips inactive stripes.
	active bool
	_      [64]byte
}

// buildStripes lays out k stripes over the vertices, padded to 64-vertex
// multiples so that stripe [lo, hi) owns exactly the words [lo/64,
// ceil(hi/64)) of every per-vertex bitset and adjacent stripes never
// write the same cache line of the sent/heard arrays. A k > 1 layout
// starts the worker pool.
func (n *Network) buildStripes(k int) {
	N := n.N()
	n.stripes = n.stripes[:0]
	per := (N + k - 1) / k
	per = (per + 63) &^ 63
	for lo := 0; lo < N; lo += per {
		hi := lo + per
		if hi > N {
			hi = N
		}
		n.stripes = append(n.stripes, stripe{lo: lo, hi: hi})
	}
	n.sparse.n = 0 // re-size the masks, including the new stripes'
	if len(n.stripes) > 1 {
		n.workers = newWorkerPool(n)
	}
}

// rowBuf returns the stripe's neighbor scratch, or nil on the
// materialized fast path.
func (st *stripe) rowBuf(n *Network) []int32 {
	if n.csr != nil {
		return nil
	}
	if st.row == nil {
		st.row = make([]int32, n.g.MaxDegree())
	}
	return st.row
}

// Pipeline phases run per stripe (inline for one stripe, through the
// pool barrier otherwise).
const (
	phaseEmit = iota
	phaseGather
	phaseScatter
	phaseCompose
	phaseUpdate
	phaseExit
)

// runPhase runs one pipeline phase over every stripe and returns the
// first contained kernel panic.
func (n *Network) runPhase(phase int) *RunError {
	if n.workers != nil {
		n.workers.runPhase(phase)
		return n.workers.takeError()
	}
	for i := range n.stripes {
		if err := n.runStripe(phase, &n.stripes[i]); err != nil {
			return err
		}
	}
	return nil
}

// runStripe executes one stripe's share of a phase.
func (n *Network) runStripe(phase int, st *stripe) *RunError {
	switch phase {
	case phaseEmit:
		return n.runKernel(phase, &st.env, n.sparse.act, st.drewW, st.lo, st.hi)
	case phaseUpdate:
		return n.runKernel(phase, &st.env, n.sparse.updW, st.changedW, st.lo, st.hi)
	case phaseGather:
		n.deliverRange(st.lo, st.hi, st.rowBuf(n))
	case phaseScatter:
		n.scatterStripe(st)
	case phaseCompose:
		n.composeHeardRange(st.lo, st.hi)
	}
	return nil
}

// runKernel invokes the emit or update kernel over the words of [lo, hi)
// marked in mask, clearing the output mask first. A panic inside the
// kernel is contained into a *RunError; the recovery happens inside
// this frame, so pool workers return normally and still join their
// barrier. The kernel processes its words as a whole, so the error
// cannot name the vertex (Vertex is -1). Partition rounds use it too.
func (n *Network) runKernel(phase int, env *FlatEnv, mask, out []uint64, lo, hi int) (rerr *RunError) {
	defer func() {
		if r := recover(); r != nil {
			name := "emit"
			if phase == phaseUpdate {
				name = "update"
			}
			rerr = &RunError{
				Vertex: -1, Round: n.round + 1, Phase: name,
				Recovered: r, Stack: debug.Stack(),
			}
		}
	}()
	clearMask(out)
	if phase == phaseEmit {
		n.flatOps.Emit(env, mask, out, lo, hi)
	} else {
		n.flatOps.Update(env, mask, out, lo, hi)
	}
	return nil
}

// faultRound reports whether a fault model perturbs this round.
func (n *Network) faultRound() bool {
	return n.advCount > 0 || n.sleep.enabled() || n.noise.enabled()
}

// stepFlat executes one round of the pipeline over the network's
// stripes. It is bit-identical to the reference loop for every round
// (pinned by the engine, fault-model, churn and chaos matrices).
func (n *Network) stepFlat() *RunError {
	N := n.N()
	s := &n.sparse
	s.ensure(n)
	fault := n.faultRound()
	if fault {
		n.drawSleep()
		n.drawAdversaries()
		s.markAll()
	}
	recount := s.allActive
	if s.allActive {
		s.materializeAll()
	}
	if s.actCount == 0 {
		// Empty frontier: a proven fixed point. Sent and heard already
		// hold this round's signals; no stream or state moves.
		n.roundActive, n.roundFrontier = 0, 0
		n.roundSparse = true
		return nil
	}
	actEntry := s.actCount
	skip := n.buildFlatSkip()
	for i := range n.stripes {
		env := &n.stripes[i].env
		env.Sent, env.Heard, env.Srcs, env.Skip = n.sent, n.heard, n.srcs, skip
	}
	if err := n.runPhase(phaseEmit); err != nil {
		return err
	}
	n.sparseRepack(recount)
	forced := s.forceDense
	if n.sparseUseDense() {
		if deliveryWantsGather(s.senders[0]+s.senders[1], n.avgDegree(), N) {
			n.runPhase(phaseGather)
		} else {
			n.runPhase(phaseScatter)
			n.runPhase(phaseCompose)
		}
		if forced {
			// After an invalidation the flip records don't bound which
			// heard values the dense delivery rewrote; update everywhere.
			maskSetAll(s.updW, (N+63)>>6)
		} else {
			// Invariants intact: the rewrite changed heard only inside
			// the touched words, so the delta update set is exact here
			// too.
			for mi := range s.updW {
				s.updW[mi] = s.act[mi] | s.touchW[mi]
			}
		}
	} else {
		n.gatherWords(&n.sendBits, s.touchW, 0, N, n.rowBuf)
		for mi := range s.updW {
			s.updW[mi] = s.act[mi] | s.touchW[mi]
		}
	}
	s.forceDense = false
	n.applyNoise()
	if err := n.runPhase(phaseUpdate); err != nil {
		return err
	}
	// Frontier fold: the next round's act is the union of the stripes'
	// drew and changed words, and the same union is exactly what the
	// round dirtied, for the incremental checkpoint and the probe alike.
	cnt := 0
	for mi := range s.act {
		var a uint64
		for i := range n.stripes {
			a |= n.stripes[i].drewW[mi] | n.stripes[i].changedW[mi]
		}
		s.act[mi] = a
		cnt += bits.OnesCount64(a)
	}
	s.actCount = cnt
	if cnt > 0 {
		n.dirty.markWords(s.act)
	}
	n.roundActive = actEntry * 64
	if n.roundActive > N {
		n.roundActive = N
	}
	n.roundFrontier = actEntry
	if fault {
		// The skip mask and the noise pass are not described by the
		// masks: restart all-active and dense, and leave the round
		// all-dirty for the checkpoint baseline.
		s.markAll()
	} else {
		n.roundSparse = true
	}
	return nil
}

// sparseUseDense decides this round's delivery: forced dense after an
// invalidation, forced delta under WithForcedDelta, crossover
// otherwise. On every non-forced round it first materializes the
// touched-word mask (the delta path's own first step), so the crossover
// compares the delta re-gather's exact word count, not an estimate.
func (n *Network) sparseUseDense() bool {
	s := &n.sparse
	if s.forceDense {
		return true
	}
	touched := n.sparseMarkTouched()
	if n.forceDelta {
		return false
	}
	return deltaWantsDense(touched, s.senders[0]+s.senders[1], n.avgDegree(), n.N())
}

// packWord packs the channel-1 and channel-2 sender bits of the
// vertices of slab word wi that lie in [lo, hi); every other bit is
// zero.
func packWord(sent []Signal, wi, lo, hi int, two bool) (v0, v1 uint64) {
	start, end := wi<<6, wi<<6+64
	if start < lo {
		start = lo
	}
	if end > hi {
		end = hi
	}
	for v := start; v < end; v++ {
		bit := uint64(1) << uint(v&63)
		sv := sent[v]
		if sv&Chan1 != 0 {
			v0 |= bit
		}
		if two && sv&Chan2 != 0 {
			v1 |= bit
		}
	}
	return v0, v1
}

// sparseRepack maintains the per-channel sender bitsets incrementally
// over the active words, recording each word whose bits flipped (with
// the per-channel XOR masks). When recount is set (the round runs with
// everything active, after an invalidation), the sender counts are
// recomputed absolutely.
func (n *Network) sparseRepack(recount bool) {
	s := &n.sparse
	s.flipWi = s.flipWi[:0]
	s.flipBits[0] = s.flipBits[0][:0]
	two := n.channels == 2
	if two {
		s.flipBits[1] = s.flipBits[1][:0]
	}
	if recount {
		s.senders = [2]int{}
	}
	w0s, w1s := n.sendBits[0], n.sendBits[1]
	sent := n.sent
	N := n.N()
	for mi, m := range s.act {
		for m != 0 {
			b := bits.TrailingZeros64(m)
			m &= m - 1
			wi := mi<<6 + b
			v0, v1 := packWord(sent, wi, 0, N, two)
			f0 := w0s[wi] ^ v0
			var f1 uint64
			if two {
				f1 = w1s[wi] ^ v1
			}
			if recount {
				s.senders[0] += bits.OnesCount64(v0)
				if two {
					s.senders[1] += bits.OnesCount64(v1)
				}
			} else {
				s.senders[0] += bits.OnesCount64(v0) - bits.OnesCount64(w0s[wi])
				if two {
					s.senders[1] += bits.OnesCount64(v1) - bits.OnesCount64(w1s[wi])
				}
			}
			if f0|f1 != 0 {
				w0s[wi] = v0
				if two {
					w1s[wi] = v1
				}
				s.flipWi = append(s.flipWi, int32(wi))
				s.flipBits[0] = append(s.flipBits[0], f0)
				if two {
					s.flipBits[1] = append(s.flipBits[1], f1)
				}
			}
		}
	}
}

// sparseMarkTouched rebuilds s.touchW — the mask of slab words
// containing a neighbor of a flipped sender, the only words that can
// hear something new this round — from the repack's flip records, and
// returns its popcount. Delta-delivery rounds re-gather exactly these
// words (leaving every other heard value untouched); the count also
// feeds the crossover decision, and the mask the update-set union, on
// every non-forced round regardless of which delivery runs.
func (n *Network) sparseMarkTouched() int {
	s := &n.sparse
	clearMask(s.touchW)
	for i, wi := range s.flipWi {
		f := s.flipBits[0][i]
		if n.channels == 2 {
			f |= s.flipBits[1][i]
		}
		n.markTouched(s.touchW, int(wi), f, 0, n.N(), n.rowBuf)
	}
	touched := 0
	for _, m := range s.touchW {
		touched += bits.OnesCount64(m)
	}
	return touched
}

// markTouched marks in touchW the slab word of every neighbor in
// [lo, hi) of the vertices named by the flip bits f of slab word wi.
func (n *Network) markTouched(touchW []uint64, wi int, f uint64, lo, hi int, buf []int32) {
	base := wi << 6
	for f != 0 {
		u := base + bits.TrailingZeros64(f)
		f &= f - 1
		var row []int32
		if n.csr != nil {
			row = n.csr.Neighbors(u)
		} else {
			row = n.g.NeighborsInto(u, buf)
		}
		for _, x := range row {
			if int(x) < lo || int(x) >= hi {
				continue
			}
			sw := int(x) >> 6
			touchW[sw>>6] |= 1 << uint(sw&63)
		}
	}
}

// gatherWords recomputes heard[v] for every vertex of [lo, hi) inside a
// slab word marked in mask, by probing the neighbor bits of the
// per-channel sender words (with the reference gather's full-mask early
// exit). The sender words must be exact for every neighbor of the
// gathered vertices, so the recomputed values equal the dense
// delivery's.
func (n *Network) gatherWords(words *[2][]uint64, mask []uint64, lo, hi int, buf []int32) {
	w0 := words[0]
	var w1 []uint64
	if n.channels == 2 {
		w1 = words[1]
	}
	full := n.fullMask
	heard := n.heard
	g := n.csr
	for mi, m := range mask {
		for m != 0 {
			b := bits.TrailingZeros64(m)
			m &= m - 1
			start, end := (mi<<6+b)<<6, (mi<<6+b)<<6+64
			if start < lo {
				start = lo
			}
			if end > hi {
				end = hi
			}
			for v := start; v < end; v++ {
				var row []int32
				if g != nil {
					row = g.Neighbors(v)
				} else {
					row = n.g.NeighborsInto(v, buf)
				}
				var h Signal
				for _, u := range row {
					sh := uint(u) & 63
					h |= Signal((w0[u>>6] >> sh) & 1)
					if w1 != nil {
						h |= Signal((w1[u>>6]>>sh)&1) << 1
					}
					if h == full {
						break
					}
				}
				heard[v] = h
			}
		}
	}
}

// scatterStripe ORs the neighbor rows of the senders in the stripe's
// word range into the stripe's private heard masks. The reads are
// word-range-partitioned; the writes land anywhere (a sender's
// neighbors are arbitrary), which is why each stripe scatters into its
// own scratch and compose merges them. A stripe without senders stays
// inactive and leaves its scratch untouched.
func (n *Network) scatterStripe(st *stripe) {
	st.active = false
	wlo, whi := st.lo>>6, (st.hi+63)>>6
	for c := 0; c < n.channels && !st.active; c++ {
		for _, w := range n.sendBits[c][wlo:whi] {
			if w != 0 {
				st.active = true
				break
			}
		}
	}
	if !st.active {
		return
	}
	N := n.N()
	g := n.csr
	buf := st.rowBuf(n)
	for c := 0; c < n.channels; c++ {
		sc := &st.scratch[c]
		if sc.Len() != N {
			sc.Resize(N)
		} else {
			sc.Reset()
		}
		hw, sw := sc.Words(), n.sendBits[c]
		for wi := wlo; wi < whi; wi++ {
			w := sw[wi]
			base := wi * 64
			for w != 0 {
				u := base + bits.TrailingZeros64(w)
				w &= w - 1
				var row []int32
				if g != nil {
					row = g.Neighbors(u)
				} else {
					row = n.g.NeighborsInto(u, buf)
				}
				for _, x := range row {
					hw[x>>6] |= 1 << (uint(x) & 63)
				}
			}
		}
	}
}

// composeHeardRange merges the active stripes' scatter masks over the
// words of [lo, hi) and expands them into the heard signal array,
// clearing 64 vertices at a time in the silent common case. lo must be
// 64-aligned (hi either 64-aligned or N), so each heard word is written
// by exactly one stripe; reads of other stripes' masks are ordered by
// the scatter barrier.
func (n *Network) composeHeardRange(lo, hi int) {
	heard := n.heard
	two := n.channels == 2
	for wi := lo >> 6; wi < (hi+63)>>6; wi++ {
		var w1, w2 uint64
		for i := range n.stripes {
			st := &n.stripes[i]
			if st.active {
				w1 |= st.scratch[0].Words()[wi]
				if two {
					w2 |= st.scratch[1].Words()[wi]
				}
			}
		}
		base := wi * 64
		end := base + 64
		if end > hi {
			end = hi
		}
		if w1|w2 == 0 {
			copy(heard[base:end], zeroSignals[:end-base])
			continue
		}
		for v := base; v < end; v++ {
			sh := uint(v & 63)
			heard[v] = Signal((w1>>sh)&1) | Signal((w2>>sh)&1)<<1
		}
	}
}
