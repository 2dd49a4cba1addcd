package core

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/beep"
	"repro/internal/bitset"
	"repro/internal/graph"
)

// LevelExporter is the bulk level accessor implemented by the machine
// slabs of the core protocols (Alg1, Alg2, AdaptiveAlg1). A network
// built from a beep.BatchProtocol exposes it through Network.BulkState,
// and State.Refresh uses it to capture the (ℓ, ℓmax) pairs of the slab
// words the network reports changed, in linear passes over contiguous
// storage — no interface assertion or virtual call per vertex, and no
// engine mark (reads through Network.Machine would mark every vertex).
type LevelExporter interface {
	// ExportLevels writes ℓ(v) and ℓmax(v) of every vertex v of the
	// slab words marked in words (bit wi covers vertices
	// [64·wi, 64·wi+64), the layout of beep.Network.ChangedWords; nil
	// means every word) into the destination slices, which must have
	// length n; entries outside the marked words are left alone. When
	// MutableCaps reports false, callers that have already captured the
	// caps may pass a nil caps slice to export levels only.
	ExportLevels(levels, caps []int32, words []uint64)
	// TwoChannel reports Algorithm 2 (two-channel) semantics, under
	// which MIS membership is ℓ = 0 rather than ℓ = -ℓmax.
	TwoChannel() bool
	// MutableCaps reports whether ℓmax values can change during an
	// execution (true only for the adaptive heuristic). When false,
	// ℓmax must be a pure function of (vertex, graph, protocol), so
	// callers may capture caps once and skip re-exporting them on every
	// round.
	MutableCaps() bool
}

// State is an analyst's snapshot of one execution instant: the levels
// and caps of all vertices. It supports the Section 3 machinery (I_t,
// S_t, μ_t, η_t, prominent vertices) used for stabilization detection
// and the lemma-level experiments.
//
// A State that is Refreshed every round doubles as an *incremental*
// stabilization detector. Refresh reads the network's change feed
// (beep.Network.ChangedWords: the slab words whose machines moved since
// this State's previous Refresh) and re-exports only those words;
// Stabilized re-derives two per-vertex predicates over just those words
// and moves neighbor counts by each predicate bit that flipped (see
// detector). A round costs O(changed words · 64) plus O(deg) per flip,
// so a quiet round costs O(n/4096) mask words, not O(n). The feed has
// one reader at a time: a State refreshed after another reader of the
// same network (or a different network, or a fresh State) re-reads
// every word once. The detector is purely observational — its answers
// are bit-identical to the InMIS scan for every snapshot.
type State struct {
	g graph.Topology
	// csr is the materialized fast path (non-nil iff g is a
	// *graph.Graph); synthesizing backends decode neighbor rows into
	// rowBuf instead, and the outer row of a nested scan into rowBuf2:
	// the detector walks a row whose B flips can each flip an I_t bit and
	// decode that vertex's row, and LightBeepingMass walks a row while Mu
	// decodes neighbor rows.
	csr     *graph.Graph
	rowBuf  []int32
	rowBuf2 []int32
	levels  []int32
	caps    []int32
	// twoChannel marks Algorithm 2 semantics: MIS membership is ℓ = 0
	// with no ℓ = 0 neighbor, rather than ℓ = -ℓmax with all-cap
	// neighbors.
	twoChannel bool
	// exp is the exporter levels and caps were last read from; when it
	// changes, Refresh re-reads every word, caps included. With
	// immutable caps the steady-state Refresh exports levels only.
	exp LevelExporter
	// tok is the change-feed token of the last Refresh (see
	// beep.Network.ChangedWords); 0 until the first bulk Refresh.
	tok uint64
	// changed marks the slab words re-exported since the detector last
	// synced, one bit per 64 vertices: the only words whose levels or
	// caps can differ from the snapshot the detector's sets were derived
	// from. A Refresh exports all of them again (callers sync between
	// Refreshes, so that is the words the feed just named).
	changed []uint64
	// excluded masks the non-cooperating (adversarial) vertices out of
	// the legality machinery: an excluded vertex is never in I_t, counts
	// as vacuously stable, and is invisible to its neighbors' membership
	// and stability scans — so Stabilized() and VerifyMIS() speak about
	// the correct induced subgraph, the only set the self-stabilization
	// guarantee covers. nil means every vertex cooperates. Refresh
	// captures it from the network (see captureExcluded); SetExcluded
	// installs it on snapshots no network feeds.
	excluded []bool
	// exGen counts exclusion-mask changes so the detector knows to
	// rebuild when the mask changes.
	exGen uint64
	// advEpoch is the network's AdversaryEpoch at the last capture;
	// advBuf is the capture's scratch mask.
	advEpoch uint64
	advBuf   []bool

	det detector
}

// detector maintains I_t and S_t by neighbor counts. Two predicates
// are all the legality rule reads of a neighbor: A = cooperating v with
// ℓ(v) at the membership value, B = cooperating v with ℓ(v) ≠ ℓmax(v).
// With busy[v] = |N(v) ∩ B| and misNbrs[v] = |N(v) ∩ I_t|,
//
//	v ∈ I_t ⇔ A(v) ∧ busy[v] = 0
//	v ∈ S_t ⇔ v ∈ I_t ∨ misNbrs[v] > 0 ∨ v excluded
//
// Every derived bit or count is re-derived whenever a bit it reads
// flips, so each flip costs O(deg) and a quiet round costs nothing past
// the change mask. The sets are uint64 bitsets; unstable counts
// |V \ S_t|, so the stabilization predicate is a single integer
// comparison once the detector is synchronized.
type detector struct {
	g   graph.Topology
	two bool
	n   int
	// exGen mirrors State.exGen at the last reset; a mismatch resets the
	// detector, so an exclusion-mask change is never applied against
	// counts derived under the old mask.
	exGen uint64

	ex       bitset.Set // excluded vertices
	a, b     bitset.Set
	busy     []int32
	misNbrs  []int32
	mis      bitset.Set // I_t membership
	stable   bitset.Set // S_t = I_t ∪ N(I_t) ∪ excluded
	unstable int        // |V| - |S_t|
}

// Snapshot captures the current levels of a network running Algorithm 1
// or Algorithm 2. It returns an error if any machine does not expose
// levels (i.e. is not one of the core protocols).
func Snapshot(net *beep.Network) (*State, error) {
	st := &State{}
	if err := st.Refresh(net); err != nil {
		return nil, err
	}
	return st, nil
}

// Refresh re-captures the network's current levels into the receiver,
// reusing its buffers. It is the allocation-free path for callers that
// snapshot every round (the stabilization detector); a zero State is a
// valid receiver. Networks built from a BatchProtocol (all core
// protocols) take the bulk-export path: the slab words the network's
// change feed names — every word on a first Refresh, after another
// reader, or when the exporter changed — are copied out of the machine
// slab with no per-vertex interface dispatch and no engine mark.
//
// Refresh also keeps the exclusion mask equal to the network's
// adversary set, so legality is always judged on the correct induced
// subgraph: it re-captures the mask whenever it re-reads every word (a
// first Refresh, another network, another reader) and whenever the
// network's AdversaryEpoch moved (WithAdversaries, Rewire, Reseed,
// Restore).
func (s *State) Refresh(net *beep.Network) error {
	n := net.N()
	if g := net.Graph(); g != s.g {
		s.setGraph(g)
	}
	if cap(s.levels) < n {
		s.levels = make([]int32, n)
		s.caps = make([]int32, n)
	}
	s.levels = s.levels[:n]
	s.caps = s.caps[:n]
	words := (n + 63) >> 6
	if mw := (words + 63) >> 6; len(s.changed) != mw {
		s.changed = make([]uint64, mw)
	}
	if le, ok := net.BulkState().(LevelExporter); ok {
		tok, all := net.ChangedWords(s.tok, s.changed)
		// A slab has a fixed size, so the same exporter means the levels
		// and caps already held are this network's.
		reread := le != s.exp
		if all || reread {
			setWords(s.changed, words)
		}
		if all || reread || net.AdversaryEpoch() != s.advEpoch {
			s.captureExcluded(net)
		}
		if le.MutableCaps() || reread {
			le.ExportLevels(s.levels, s.caps, s.changed)
		} else {
			le.ExportLevels(s.levels, nil, s.changed)
		}
		s.tok, s.exp = tok, le
		s.twoChannel = le.TwoChannel()
		return nil
	}
	s.tok, s.exp = 0, nil
	setWords(s.changed, words)
	s.captureExcluded(net)
	s.twoChannel = false
	for v := 0; v < n; v++ {
		m, ok := net.Machine(v).(Leveled)
		if !ok {
			return fmt.Errorf("core: machine of vertex %d (%T) does not expose levels", v, net.Machine(v))
		}
		s.levels[v] = int32(m.Level())
		s.caps[v] = int32(m.Cap())
		if _, is2 := net.Machine(v).(*alg2Machine); is2 {
			s.twoChannel = true
		}
	}
	return nil
}

// captureExcluded installs net's adversary mask as the exclusion mask,
// counting a change only when the set differs from the installed one
// (an unchanged mask keeps the detector incremental).
func (s *State) captureExcluded(net *beep.Network) {
	s.advEpoch = net.AdversaryEpoch()
	if net.AdversaryCount() == 0 {
		s.SetExcluded(nil)
		return
	}
	n := net.N()
	if cap(s.advBuf) < n {
		s.advBuf = make([]bool, n)
	}
	mask := s.advBuf[:n]
	net.FillAdversaryMask(mask)
	if !slices.Equal(mask, s.excluded) {
		s.SetExcluded(mask)
	}
}

// setGraph installs the snapshot's topology, deriving the materialized
// fast path or the decode scratch as appropriate.
func (s *State) setGraph(g graph.Topology) {
	s.g = g
	s.csr, _ = g.(*graph.Graph)
	if s.csr == nil {
		if d := g.MaxDegree(); cap(s.rowBuf) < d {
			s.rowBuf, s.rowBuf2 = make([]int32, d), make([]int32, d)
		}
	}
}

// neighbors returns the canonical neighbor row of v: an aliased CSR
// slice on the materialized fast path, a decode into the scratch row
// otherwise. The result is valid until the next neighbors call.
func (s *State) neighbors(v int) []int32 {
	if s.csr != nil {
		return s.csr.Neighbors(v)
	}
	return s.g.NeighborsInto(v, s.rowBuf)
}

// neighborsNested is the second-scratch sibling of neighbors, for the
// outer row of a scan whose body decodes further rows.
func (s *State) neighborsNested(v int) []int32 {
	if s.csr != nil {
		return s.csr.Neighbors(v)
	}
	return s.g.NeighborsInto(v, s.rowBuf2)
}

// NewState builds a snapshot directly from level and cap slices
// (single-channel semantics), for tests and analytical tooling. The
// slices are copied.
func NewState(g graph.Topology, levels, caps []int) *State {
	s := &State{levels: make([]int32, len(levels)), caps: make([]int32, len(caps))}
	s.setGraph(g)
	for i, l := range levels {
		s.levels[i] = int32(l)
	}
	for i, c := range caps {
		s.caps[i] = int32(c)
	}
	return s
}

// SetExcluded installs the mask of non-cooperating vertices (length n,
// true = excluded from the legality machinery) on a snapshot that no
// network feeds, such as one built by NewState. The mask is copied; nil
// clears it. A State refreshed from a network needs no call: Refresh
// captures the network's adversary set itself and replaces whatever
// mask was installed.
func (s *State) SetExcluded(mask []bool) {
	if mask == nil {
		if s.excluded != nil {
			s.excluded = nil
			s.exGen++
		}
		return
	}
	s.excluded = append(s.excluded[:0], mask...)
	s.exGen++
}

// Excluded reports whether v is masked out of the legality machinery.
func (s *State) Excluded(v int) bool {
	return s.excluded != nil && v < len(s.excluded) && s.excluded[v]
}

// Level returns ℓ(v) in this snapshot.
func (s *State) Level(v int) int { return int(s.levels[v]) }

// Cap returns ℓmax(v).
func (s *State) Cap(v int) int { return int(s.caps[v]) }

// InMIS reports whether v is in the stabilized-MIS set I_t of the
// snapshot: ℓ(v) at the algorithm's membership value (-ℓmax(v) for
// Algorithm 1, 0 for Algorithm 2) and every neighbor u at ℓmax(u)
// (equivalently μ_t(v) = 1). Under Algorithm 2 an all-cap neighborhood
// in particular contains no ℓ = 0 neighbor, so the membership arms
// share one all-neighbors-at-cap scan.
//
// Excluded vertices are never members, and are invisible to their
// neighbors' scans: a correct vertex's membership depends only on the
// levels of its correct neighbors.
func (s *State) InMIS(v int) bool {
	if s.Excluded(v) {
		return false
	}
	want := -s.caps[v]
	if s.twoChannel {
		want = 0
	}
	if s.levels[v] != want {
		return false
	}
	for _, u := range s.neighbors(v) {
		if s.Excluded(int(u)) {
			continue
		}
		if s.levels[u] != s.caps[u] {
			return false
		}
	}
	return true
}

// MISMask returns the membership mask of I_t. The returned slice is
// freshly allocated and safe to retain.
func (s *State) MISMask() []bool {
	s.sync()
	mask := make([]bool, len(s.levels))
	s.det.mis.FillBools(mask)
	return mask
}

// FillMISMask writes the membership mask of I_t into dst (length ≥ n),
// the allocation-free sibling of MISMask for per-round callers.
func (s *State) FillMISMask(dst []bool) {
	s.sync()
	s.det.mis.FillBools(dst)
}

// MISCount returns |I_t|, a popcount of the detector's membership set
// rather than n neighborhood scans.
func (s *State) MISCount() int {
	s.sync()
	return s.det.mis.OnesCount()
}

// StableMask returns the mask of S_t = I_t ∪ N(I_t), the vertices whose
// output has stabilized. The returned slice is freshly allocated and
// safe to retain.
func (s *State) StableMask() []bool {
	s.sync()
	mask := make([]bool, len(s.levels))
	s.det.stable.FillBools(mask)
	return mask
}

// FillStableMask writes the mask of S_t into dst (length ≥ n), the
// allocation-free sibling of StableMask for per-round callers.
func (s *State) FillStableMask(dst []bool) {
	s.sync()
	s.det.stable.FillBools(dst)
}

// Stabilized reports whether every vertex is stable (S_t = V), the
// paper's stabilization condition. In that case MISMask is a maximal
// independent set. After the first call on a given State it is
// incremental: the cost is proportional to the slab words Refresh
// re-exported since the last call (64 level compares each) plus the
// neighborhoods of the vertices whose A, B or I_t bit flipped, not to
// n+m, and it performs no allocations in the steady state.
func (s *State) Stabilized() bool {
	s.sync()
	return s.det.unstable == 0
}

// StableCount returns |S_t|, useful for convergence progress curves.
func (s *State) StableCount() int {
	s.sync()
	return len(s.levels) - s.det.unstable
}

// sync brings the detector in line with the current levels: it
// re-derives A and B over every slab word re-exported since the last
// sync and propagates each flip. A new graph, size, channel semantics or
// exclusion mask first resets the detector to empty sets with every
// word marked, so a rebuild is the same update run over all of them.
func (s *State) sync() {
	d := &s.det
	if d.g != s.g || d.n != len(s.levels) || d.two != s.twoChannel || d.exGen != s.exGen {
		s.resetDetector()
	}
	for mi, m := range s.changed {
		if m == 0 {
			continue
		}
		s.changed[mi] = 0
		for ; m != 0; m &= m - 1 {
			s.syncWord(mi<<6 + bits.TrailingZeros64(m))
		}
	}
}

// resetDetector empties every set and count, leaving only the excluded
// vertices (vacuously) stable, and marks every slab word for sync.
func (s *State) resetDetector() {
	d := &s.det
	n := len(s.levels)
	d.g, d.n, d.two, d.exGen = s.g, n, s.twoChannel, s.exGen
	for _, set := range [...]*bitset.Set{&d.ex, &d.a, &d.b, &d.mis, &d.stable} {
		set.Resize(n)
	}
	if cap(d.busy) < n {
		d.busy, d.misNbrs = make([]int32, n), make([]int32, n)
	}
	d.busy, d.misNbrs = d.busy[:n], d.misNbrs[:n]
	clear(d.busy)
	clear(d.misNbrs)
	d.unstable = n
	for v := 0; v < n; v++ {
		if s.Excluded(v) {
			d.ex.Set1(v)
			d.stable.Set1(v)
			d.unstable--
		}
	}
	words := (n + 63) >> 6
	if mw := (words + 63) >> 6; len(s.changed) != mw {
		s.changed = make([]uint64, mw)
	}
	setWords(s.changed, words)
}

// syncWord re-derives A and B over slab word wi (vertices [64·wi,
// 64·wi+64)) and propagates each bit that flipped. The compares are
// branch-free: the membership value is -(ℓmax & neg), with neg all ones
// under Algorithm 1 and zero under Algorithm 2.
func (s *State) syncWord(wi int) {
	d := &s.det
	lo := wi << 6
	lv := s.levels[lo:min(lo+64, d.n)]
	cp := s.caps[lo : lo+len(lv)]
	neg := int32(-1)
	if d.two {
		neg = 0
	}
	var a, b uint64
	for i, l := range lv {
		a |= b2u(l == -(cp[i]&neg)) << (uint(i) & 63)
		b |= b2u(l != cp[i]) << (uint(i) & 63)
	}
	ex := d.ex.Words()[wi]
	a, b = a&^ex, b&^ex
	aw, bw := d.a.Words(), d.b.Words()
	da, db := a^aw[wi], b^bw[wi]
	aw[wi], bw[wi] = a, b
	for ; db != 0; db &= db - 1 {
		i := bits.TrailingZeros64(db)
		step, edge := countStep(b>>uint(i)&1 != 0)
		// The outer row takes the second scratch: deriveMIS decodes rows.
		for _, u := range s.neighborsNested(lo + i) {
			if d.busy[u] += step; d.busy[u] == edge {
				s.deriveMIS(int(u))
			}
		}
	}
	for ; da != 0; da &= da - 1 {
		s.deriveMIS(lo + bits.TrailingZeros64(da))
	}
}

// deriveMIS re-derives v's I_t bit; on a flip, each neighbor's misNbrs
// count moves by one, and v and every neighbor whose count crossed zero
// re-derive their S_t bit.
func (s *State) deriveMIS(v int) {
	d := &s.det
	in := d.a.Get(v) && d.busy[v] == 0
	if !d.mis.SetTo(v, in) {
		return
	}
	s.deriveStable(v)
	step, edge := countStep(in)
	for _, u := range s.neighbors(v) {
		if d.misNbrs[u] += step; d.misNbrs[u] == edge {
			s.deriveStable(int(u))
		}
	}
}

// deriveStable re-derives v's S_t bit and keeps unstable by its
// transitions.
func (s *State) deriveStable(v int) {
	d := &s.det
	in := d.mis.Get(v) || d.misNbrs[v] > 0 || d.ex.Get(v)
	if d.stable.SetTo(v, in) {
		if in {
			d.unstable--
		} else {
			d.unstable++
		}
	}
}

// countStep returns the step by which a vertex entering (in) or leaving
// a set moves its neighbors' member counts, and the count at which that
// step crosses zero.
func countStep(in bool) (step, edge int32) {
	if in {
		return 1, 1
	}
	return -1, 0
}

// b2u is 1 for true and 0 for false; the compiler lowers it to a SETcc.
func b2u(x bool) uint64 {
	if x {
		return 1
	}
	return 0
}

// Mu returns μ_t(v) = min over u ∈ N(v) of ℓ(u)/ℓmax(u), in [-1, 1];
// for an isolated vertex it returns 1 (the vacuous minimum, consistent
// with the stabilization predicate).
func (s *State) Mu(v int) float64 {
	nb := s.neighbors(v)
	if len(nb) == 0 {
		return 1
	}
	min := 2.0
	for _, u := range nb {
		r := float64(s.levels[u]) / float64(s.caps[u])
		if r < min {
			min = r
		}
	}
	return min
}

// Prominent reports whether v is prominent (Definition 3.3): ℓ(v) <= 0.
// Under Algorithm 2 semantics the analogous notion is ℓ(v) = 0.
func (s *State) Prominent(v int) bool {
	if s.twoChannel {
		return s.levels[v] == 0
	}
	return s.levels[v] <= 0
}

// PlatinumFor reports whether the snapshot is a platinum round of v:
// some vertex of N⁺(v) is prominent.
func (s *State) PlatinumFor(v int) bool {
	if s.Prominent(v) {
		return true
	}
	for _, u := range s.neighbors(v) {
		if s.Prominent(int(u)) {
			return true
		}
	}
	return false
}

// BeepProbOf returns p_t(v), the beeping probability implied by the
// level of v (Figure 1). For Algorithm 2 it is the channel-1 probability
// (0 at both ℓ = 0 and ℓ = ℓmax).
func (s *State) BeepProbOf(v int) float64 {
	if s.twoChannel && s.levels[v] == 0 {
		return 0
	}
	return BeepProb(int(s.levels[v]), int(s.caps[v]))
}

// ExpectedBeepingNeighbors returns d_t(v) = Σ_{u ∈ N(v)} p_t(u), the
// quantity driving the golden-round analysis (Section 6.1).
func (s *State) ExpectedBeepingNeighbors(v int) float64 {
	d := 0.0
	for _, u := range s.neighbors(v) {
		d += s.BeepProbOf(int(u))
	}
	return d
}

// Eta returns η_t(v) = Σ_{u ∈ N(v) \ S_t} 2^-ℓmax(u), the residual mass
// of unstabilized neighbors (Section 3). stable must be a StableMask of
// the same snapshot; pass nil to compute it.
func (s *State) Eta(v int, stable []bool) float64 {
	if stable == nil {
		stable = s.StableMask()
	}
	sum := 0.0
	for _, u := range s.neighbors(v) {
		if !stable[u] {
			sum += math.Pow(2, -float64(s.caps[u]))
		}
	}
	return sum
}

// VerifyMIS checks that the snapshot's I_t is a maximal independent set
// of the graph — or, when an exclusion mask is installed, of the correct
// induced subgraph — returning a descriptive error otherwise. It is the
// safety check applied after every stabilized run.
func (s *State) VerifyMIS() error {
	if s.excluded == nil {
		return graph.VerifyMISOf(s.g, s.MISMask())
	}
	active := make([]bool, len(s.levels))
	for v := range active {
		active[v] = !s.Excluded(v)
	}
	return graph.VerifyMISOnOf(s.g, active, s.MISMask())
}

// forWordRuns calls fn(lo, hi) for the vertex span [lo, hi) ∩ [0, n) of
// every maximal run of consecutive slab words marked in mask (bit wi
// covers vertices [64·wi, 64·wi+64)), in ascending order. A nil mask
// marks every word, so a full mask and nil both make one call over
// [0, n).
func forWordRuns(mask []uint64, n int, fn func(lo, hi int)) {
	if mask == nil {
		if n > 0 {
			fn(0, n)
		}
		return
	}
	start, end := 0, 0 // pending run of slab words [start, end)
	for mi, m := range mask {
		for m != 0 {
			b := bits.TrailingZeros64(m)
			run := bits.TrailingZeros64(^(m >> uint(b)))
			m &^= (uint64(1)<<uint(run) - 1) << uint(b)
			w := mi<<6 + b
			if w != end {
				if start < end && start<<6 < n {
					fn(start<<6, min(end<<6, n))
				}
				start = w
			}
			end = w + run
		}
	}
	if start < end && start<<6 < n {
		fn(start<<6, min(end<<6, n))
	}
}

// setWords marks the first words slab words of m and clears the rest.
func setWords(m []uint64, words int) {
	for i := range m {
		switch r := words - i<<6; {
		case r >= 64:
			m[i] = ^uint64(0)
		case r > 0:
			m[i] = uint64(1)<<uint(r) - 1
		default:
			m[i] = 0
		}
	}
}
