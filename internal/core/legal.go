package core

import (
	"fmt"
	"math"

	"repro/internal/beep"
	"repro/internal/bitset"
	"repro/internal/graph"
)

// LevelExporter is the bulk level accessor implemented by the machine
// slabs of the core protocols (Alg1, Alg2, AdaptiveAlg1). A network
// built from a beep.BatchProtocol exposes it through Network.BulkState,
// and State.Refresh uses it to capture all (ℓ, ℓmax) pairs in one
// linear pass over contiguous storage — replacing one interface
// assertion plus two virtual calls per vertex per round in the
// stabilization stop check.
type LevelExporter interface {
	// ExportLevels writes ℓ(v) and ℓmax(v) of every vertex v into the
	// destination slices, which must have length n. When MutableCaps
	// reports false, callers that have already captured the caps may
	// pass a nil caps slice to export levels only.
	ExportLevels(levels, caps []int32)
	// TwoChannel reports Algorithm 2 (two-channel) semantics, under
	// which MIS membership is ℓ = 0 rather than ℓ = -ℓmax.
	TwoChannel() bool
	// MutableCaps reports whether ℓmax values can change during an
	// execution (true only for the adaptive heuristic). When false,
	// ℓmax must be a pure function of (vertex, graph, protocol), so
	// callers may capture caps once and skip re-exporting and
	// re-diffing them on every round.
	MutableCaps() bool
}

// State is an analyst's snapshot of one execution instant: the levels
// and caps of all vertices. It supports the Section 3 machinery (I_t,
// S_t, μ_t, η_t, prominent vertices) used for stabilization detection
// and the lemma-level experiments.
//
// A State that is Refreshed every round doubles as an *incremental*
// stabilization detector: Stabilized diffs the flat level array against
// the previous snapshot and re-derives I_t/S_t only around the vertices
// that changed, so the common "nothing changed" round costs O(n) cheap
// integer compares instead of a full O(n+m) mask recompute. The
// detector is purely observational — its answers are bit-identical to
// the full recompute for every snapshot.
type State struct {
	g graph.Topology
	// csr is the materialized fast path (non-nil iff g is a
	// *graph.Graph); synthesizing backends decode neighbor rows into
	// rowBuf instead. One scratch row suffices: every neighbor iteration
	// below either nests no other row scan or walks a previously
	// materialized candidate list (dirty/cand/flips).
	csr    *graph.Graph
	rowBuf []int32
	// rowBuf2 is the outer-row scratch of the one genuinely nested scan
	// (LightBeepingMass walks a row while Mu decodes neighbor rows);
	// allocated lazily since only the Section 6 analysis needs it.
	rowBuf2 []int32
	levels  []int32
	caps    []int32
	// twoChannel marks Algorithm 2 semantics: MIS membership is ℓ = 0
	// with no ℓ = 0 neighbor, rather than ℓ = -ℓmax with all-cap
	// neighbors.
	twoChannel bool
	// capsValid remembers the exporter whose (immutable) caps are
	// already in s.caps, so steady-state Refreshes export levels only —
	// half the memory traffic of the per-round snapshot.
	capsValid LevelExporter
	// capsMutable records whether the caps of the current source can
	// change between Refreshes; when false the detector skips the caps
	// half of its per-round diff as well.
	capsMutable bool
	// excluded masks the non-cooperating (adversarial) vertices out of
	// the legality machinery: an excluded vertex is never in I_t, counts
	// as vacuously stable, and is invisible to its neighbors' membership
	// and stability scans — so Stabilized() and VerifyMIS() speak about
	// the correct induced subgraph, the only set the self-stabilization
	// guarantee covers. nil means every vertex cooperates.
	excluded []bool
	// exGen counts SetExcluded calls so the detector knows to rebuild
	// when the mask changes (mirroring beep.Network.AdversaryEpoch).
	exGen uint64

	det detector
}

// detector is the incremental I_t/S_t maintenance state. The masks are
// uint64 bitsets (one bit per vertex, word-at-a-time scans); unstable
// counts |V \ S_t| so the stabilization predicate is a single integer
// comparison once the masks are synchronized.
type detector struct {
	g   graph.Topology
	two bool
	n   int
	// capsMut mirrors State.capsMutable at rebuild time; when false the
	// per-round diff compares levels only.
	capsMut bool
	// exGen mirrors State.exGen at rebuild time; a mismatch forces a
	// full re-seed so exclusion-mask changes are never applied
	// incrementally against stale masks.
	exGen uint64
	// prevLevels/prevCaps are the levels the masks were last derived
	// from; the per-round diff against them yields the dirty set.
	prevLevels []int32
	prevCaps   []int32

	mis      bitset.Set // I_t membership
	stable   bitset.Set // S_t = I_t ∪ N(I_t)
	unstable int        // |V| - |S_t|

	// Scratch for the incremental update: dirty vertices, dedup'd
	// candidate lists, and epoch marks (mark[v] == epoch ⇔ v already
	// queued this pass).
	dirty []int32
	cand  []int32
	flips []int32
	mark  []uint32
	epoch uint32
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
// protocols) take the bulk-export fast path: one linear pass over the
// machine slab, no per-vertex interface dispatch.
func (s *State) Refresh(net *beep.Network) error {
	n := net.N()
	if g := net.Graph(); g != s.g {
		s.setGraph(g)
	}
	if cap(s.levels) < n {
		s.levels = make([]int32, n)
		s.caps = make([]int32, n)
		s.capsValid = nil
	}
	s.levels = s.levels[:n]
	s.caps = s.caps[:n]
	if le, ok := net.BulkState().(LevelExporter); ok {
		mut := le.MutableCaps()
		if !mut && s.capsValid == le {
			le.ExportLevels(s.levels, nil)
		} else {
			le.ExportLevels(s.levels, s.caps)
			if mut {
				s.capsValid = nil
			} else {
				s.capsValid = le
			}
		}
		s.capsMutable = mut
		s.twoChannel = le.TwoChannel()
		return nil
	}
	s.capsValid = nil
	s.capsMutable = true
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

// setGraph installs the snapshot's topology, deriving the materialized
// fast path or the decode scratch as appropriate.
func (s *State) setGraph(g graph.Topology) {
	s.g = g
	s.csr, _ = g.(*graph.Graph)
	if s.csr == nil {
		if d := g.MaxDegree(); cap(s.rowBuf) < d {
			s.rowBuf = make([]int32, d)
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
	if s.rowBuf2 == nil {
		s.rowBuf2 = make([]int32, s.g.MaxDegree())
	}
	return s.g.NeighborsInto(v, s.rowBuf2)
}

// NewState builds a snapshot directly from level and cap slices
// (single-channel semantics), for tests and analytical tooling. The
// slices are copied.
func NewState(g graph.Topology, levels, caps []int) *State {
	s := &State{levels: make([]int32, len(levels)), caps: make([]int32, len(caps)), capsMutable: true}
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
// true = excluded from the legality machinery), typically captured from
// beep.Network.FillAdversaryMask. The mask is copied; nil clears it.
// Callers that track a live network should re-capture whenever
// Network.AdversaryEpoch changes — Rewire both renumbers the adversary
// set and resizes the vertex space.
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
// incremental: the cost is proportional to the number of vertices whose
// level changed since the last call (plus one cheap linear diff), not
// to n+m, and it performs no allocations in the steady state.
func (s *State) Stabilized() bool {
	s.sync()
	return s.det.unstable == 0
}

// StableCount returns |S_t|, useful for convergence progress curves.
func (s *State) StableCount() int {
	s.sync()
	return len(s.levels) - s.det.unstable
}

// sync brings the detector masks in line with the current levels: a
// full O(n+m) rebuild the first time (or when the snapshot switched
// graph or semantics), an O(dirty · deg²) incremental update afterward.
func (s *State) sync() {
	d := &s.det
	if d.g != s.g || d.n != len(s.levels) || d.two != s.twoChannel || d.capsMut != s.capsMutable || d.exGen != s.exGen {
		s.rebuildDetector()
		return
	}
	s.updateDetector()
}

// rebuildDetector recomputes I_t and S_t from scratch and records the
// level snapshot the masks correspond to.
func (s *State) rebuildDetector() {
	d := &s.det
	n := len(s.levels)
	d.g, d.n, d.two, d.capsMut, d.exGen = s.g, n, s.twoChannel, s.capsMutable, s.exGen
	d.mis.Resize(n)
	d.stable.Resize(n)
	for v := 0; v < n; v++ {
		if s.InMIS(v) {
			d.mis.Set1(v)
		}
	}
	for v := 0; v < n; v++ {
		// Excluded vertices are vacuously stable: the legality predicate
		// speaks only about the correct induced subgraph.
		if s.Excluded(v) || d.mis.Get(v) {
			d.stable.Set1(v)
			continue
		}
		for _, u := range s.neighbors(v) {
			if d.mis.Get(int(u)) {
				d.stable.Set1(v)
				break
			}
		}
	}
	if d.stable.All() { // word-at-a-time scan against ^0
		d.unstable = 0
	} else {
		d.unstable = n - d.stable.OnesCount()
	}
	d.prevLevels = append(d.prevLevels[:0], s.levels...)
	d.prevCaps = append(d.prevCaps[:0], s.caps...)
	if cap(d.mark) < n {
		d.mark = make([]uint32, n)
	} else {
		d.mark = d.mark[:n]
		for i := range d.mark {
			d.mark[i] = 0
		}
	}
	d.epoch = 0
}

// bumpEpoch starts a new dedup pass; on the (rare) wraparound it clears
// the marks so stale epochs can never alias.
func (d *detector) bumpEpoch() {
	d.epoch++
	if d.epoch == 0 {
		for i := range d.mark {
			d.mark[i] = 0
		}
		d.epoch = 1
	}
}

// push appends v to the candidate list unless it was already queued in
// this epoch.
func (d *detector) push(v int32) {
	if d.mark[v] != d.epoch {
		d.mark[v] = d.epoch
		d.cand = append(d.cand, v)
	}
}

// updateDetector is the dirty-set incremental step. Correctness rests
// on two locality facts: InMIS(v) reads only the levels of N⁺(v), so it
// can change only for v in N⁺(dirty); and Stable(v) reads only the
// I_t bits of N⁺(v), so it can change only for v in N⁺(flipped). The
// amortized cost is O(Σ_{v dirty} deg(v) + Σ_{v flipped} Σ_{u∈N⁺(v)}
// deg(u)); a round in which no level changed costs one linear int32
// compare over the level array and nothing else.
func (s *State) updateDetector() {
	d := &s.det
	// Phase 0: diff against the snapshot the masks were derived from.
	// With immutable caps (Alg1/Alg2) the scan touches levels only; the
	// adaptive protocol mutates caps too, so those are diffed as well.
	d.dirty = d.dirty[:0]
	if d.capsMut {
		cur, prev := s.levels[:d.n], d.prevLevels[:d.n]
		curC, prevC := s.caps[:d.n], d.prevCaps[:d.n]
		for v := range cur {
			if cur[v] != prev[v] || curC[v] != prevC[v] {
				d.dirty = append(d.dirty, int32(v))
				prev[v] = cur[v]
				prevC[v] = curC[v]
			}
		}
	} else {
		cur, prev := s.levels[:d.n], d.prevLevels[:d.n]
		for v := range cur {
			if cur[v] != prev[v] {
				d.dirty = append(d.dirty, int32(v))
				prev[v] = cur[v]
			}
		}
	}
	if len(d.dirty) == 0 {
		return
	}
	// Phase 1: re-evaluate I_t membership on N⁺(dirty), collecting the
	// vertices whose membership flipped.
	d.bumpEpoch()
	d.cand = d.cand[:0]
	for _, vi := range d.dirty {
		d.push(vi)
		for _, u := range s.neighbors(int(vi)) {
			d.push(u)
		}
	}
	d.flips = d.flips[:0]
	for _, vi := range d.cand {
		if d.mis.SetTo(int(vi), s.InMIS(int(vi))) {
			d.flips = append(d.flips, vi)
		}
	}
	if len(d.flips) == 0 {
		return
	}
	// Phase 2: re-evaluate stability on N⁺(flipped), maintaining the
	// global unstable count.
	d.bumpEpoch()
	d.cand = d.cand[:0]
	for _, vi := range d.flips {
		d.push(vi)
		for _, u := range s.neighbors(int(vi)) {
			d.push(u)
		}
	}
	for _, vi := range d.cand {
		v := int(vi)
		now := d.mis.Get(v) || s.Excluded(v)
		if !now {
			for _, u := range s.neighbors(v) {
				if d.mis.Get(int(u)) {
					now = true
					break
				}
			}
		}
		if d.stable.SetTo(v, now) {
			if now {
				d.unstable--
			} else {
				d.unstable++
			}
		}
	}
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
