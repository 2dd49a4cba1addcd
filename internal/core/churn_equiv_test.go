package core

import (
	"fmt"
	"testing"

	"repro/internal/beep"
	"repro/internal/graph"
	"repro/internal/rng"
)

// TestMaskedLegalityStarJammer pins the correct-subgraph legality
// semantics on the sharpest example: a star whose center is a jammer.
// No leaf can ever commit under a jammer center (it never hears a silent
// round), so without masking the configuration below would be illegal —
// but on the correct induced subgraph (the n-1 isolated leaves) the
// all-leaves set is exactly the unique MIS.
func TestMaskedLegalityStarJammer(t *testing.T) {
	const n = 8
	g := graph.Star(n)
	levels := make([]int, n)
	caps := make([]int, n)
	for v := 0; v < n; v++ {
		caps[v] = 10
		levels[v] = -10 // every vertex at the membership level
	}
	levels[0] = 3 // the center is mid-range: not at cap, not at -cap
	s := NewState(g, levels, caps)

	// Unmasked, the center blocks every leaf's membership (it is not at
	// cap) and is itself unstable.
	if s.Stabilized() {
		t.Fatal("unmasked star with mid-level center reported stabilized")
	}

	mask := make([]bool, n)
	mask[0] = true
	s.SetExcluded(mask)
	if s.InMIS(0) {
		t.Fatal("excluded center reported in MIS")
	}
	for v := 1; v < n; v++ {
		if !s.InMIS(v) {
			t.Fatalf("leaf %d not in MIS under masked center", v)
		}
	}
	if !s.Stabilized() {
		t.Fatal("masked star not stabilized")
	}
	if got := s.StableCount(); got != n {
		t.Fatalf("StableCount = %d, want %d (excluded vertices are vacuously stable)", got, n)
	}
	if err := s.VerifyMIS(); err != nil {
		t.Fatalf("masked VerifyMIS: %v", err)
	}
	mis := s.MISMask()
	if mis[0] || graph.CountTrue(mis) != n-1 {
		t.Fatalf("masked MIS mask = %v", mis)
	}

	// Clearing the mask must re-seed the detector and restore the
	// unmasked verdict.
	s.SetExcluded(nil)
	if s.Stabilized() {
		t.Fatal("verdict did not change after clearing the exclusion mask")
	}
}

// TestVerifyMISOn exercises the induced-subgraph verifier directly.
func TestVerifyMISOn(t *testing.T) {
	g := graph.Path(4) // 0-1-2-3
	active := []bool{true, false, true, true}
	// With vertex 1 inactive, {0, 2} is an MIS of the induced subgraph
	// (0 is isolated there).
	if err := g.VerifyMISOn(active, []bool{true, false, true, false}); err != nil {
		t.Fatalf("valid masked MIS rejected: %v", err)
	}
	// {2} leaves the now-isolated 0 undominated.
	if err := g.VerifyMISOn(active, []bool{false, false, true, false}); err == nil {
		t.Fatal("maximality violation through an inactive cut vertex not caught")
	}
	// Inactive vertices cannot be members.
	if err := g.VerifyMISOn(active, []bool{true, true, true, false}); err == nil {
		t.Fatal("inactive member not caught")
	}
	// Active adjacent members are still a violation.
	if err := g.VerifyMISOn(active, []bool{true, false, true, true}); err == nil {
		t.Fatal("independence violation between active vertices not caught")
	}
	// Mask length is validated.
	if err := g.VerifyMISOn([]bool{true}, make([]bool, 4)); err == nil {
		t.Fatal("short active mask accepted")
	}
	// nil active mask falls back to the plain verifier.
	if err := g.VerifyMISOn(nil, []bool{true, false, true, false}); err != nil {
		t.Fatalf("nil-mask fallback: %v", err)
	}
}

// TestDetectorAcrossChurnAndAdversaries is the acceptance check for the
// incremental detector under the full fault model: an Alg1 execution
// with babbler and jammer adversaries is driven through a multi-event
// churn schedule via live Rewire, and on every single round the
// incremental probe is cross-validated against the from-scratch oracle
// (oracleState, which reads the slab without taking the probe's change
// feed). The probe gets no exclusion mask: Refresh must re-capture it
// whenever a Rewire moves the network's adversary epoch, while the
// oracle reads the mask from the network afresh every time.
func TestDetectorAcrossChurnAndAdversaries(t *testing.T) {
	g := graph.GNPAvgDegree(36, 5, rng.New(21))
	sched, err := graph.FlapSchedule(g, 4, 8, rng.New(22))
	if err != nil {
		t.Fatal(err)
	}
	net, err := beep.NewNetwork(g, NewAlg1(KnownMaxDegreeExact(DefaultC1KnownDelta)), 777,
		beep.WithAdversaries(beep.AdvJammer, []int{3}),
		beep.WithAdversaries(beep.AdvBabbler, []int{10, 17}))
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	net.RandomizeAll()

	var inc State
	check := func(tag string, r int) {
		t.Helper()
		checkAgainstOracle(t, fmt.Sprintf("%s round %d", tag, r), &inc, net, adversaryMask(net))
	}

	cur := g
	for ei, ev := range sched {
		tag := fmt.Sprintf("pre-%s", ev.Label)
		for r := 0; r < 30; r++ {
			net.Step()
			check(tag, r)
		}
		g2, mapping, err := graph.ApplyEdits(cur, ev.Edits)
		if err != nil {
			t.Fatalf("event %d (%s): %v", ei, ev.Label, err)
		}
		if err := net.Rewire(g2, mapping[:cur.N()]); err != nil {
			t.Fatalf("event %d (%s): rewire: %v", ei, ev.Label, err)
		}
		cur = g2
		check(fmt.Sprintf("post-%s", ev.Label), 0)
	}
	for r := 0; r < 60; r++ {
		net.Step()
		check("tail", r)
	}
}

// adversaryMask reads the network's current adversary set.
func adversaryMask(net *beep.Network) []bool {
	mask := make([]bool, net.N())
	net.FillAdversaryMask(mask)
	return mask
}

// TestRefreshExcludesAdversaries pins that a State refreshed from a
// network judges legality on the correct induced subgraph by itself:
// with mute radios installed and no SetExcluded call, Stabilized,
// StableCount and VerifyMIS must answer as a snapshot masked with the
// network's adversary set does, on every round, up to a legal
// configuration the unmasked predicate rejects — and again after a
// Rewire that deletes one adversary and renumbers the other.
func TestRefreshExcludesAdversaries(t *testing.T) {
	g := graph.GNPAvgDegree(40, 5, rng.New(23))
	net, err := beep.NewNetwork(g, NewAlg1(KnownMaxDegreeExact(DefaultC1KnownDelta)), 21,
		beep.WithAdversaries(beep.AdvMute, []int{2, 11}))
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	net.RandomizeAll()

	var st State
	// stabilize steps until st reports legality, requiring its answers
	// to match a masked oracle every round.
	stabilize := func(tag string) {
		t.Helper()
		for r := 0; r < DefaultMaxRounds(net.N()); r++ {
			if err := st.Refresh(net); err != nil {
				t.Fatal(err)
			}
			mask := adversaryMask(net)
			o := oracleState(t, net, mask)
			if st.Stabilized() != o.Stabilized() || st.StableCount() != o.StableCount() {
				t.Fatalf("%s round %d: stabilized=%v |S|=%d, masked oracle %v and %d",
					tag, net.Round(), st.Stabilized(), st.StableCount(), o.Stabilized(), o.StableCount())
			}
			if st.Stabilized() {
				if err := st.VerifyMIS(); err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				for v, ex := range mask {
					if st.Excluded(v) != ex {
						t.Fatalf("%s: vertex %d excluded=%v, network says %v", tag, v, st.Excluded(v), ex)
					}
				}
				if oracleState(t, net, nil).Stabilized() {
					t.Fatalf("%s: the unmasked predicate accepts the configuration too; the check shows nothing", tag)
				}
				return
			}
			net.Step()
		}
		t.Fatalf("%s: no legal configuration of the correct subgraph", tag)
	}
	stabilize("initial")

	g2, mapping, err := graph.ApplyEdits(g, []graph.Edit{{Kind: graph.EditDelVertex, U: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Rewire(g2, mapping[:g.N()]); err != nil {
		t.Fatal(err)
	}
	if got := net.Adversaries(); len(got) != 1 || got[0] != mapping[11] {
		t.Fatalf("adversaries after rewire %v, want [%d]", got, mapping[11])
	}
	stabilize("after rewire")
}

// TestEngineEquivalenceThroughChurn extends the engine contract to the
// new fault model on the paper's own protocol: every flat-kernel
// configuration must produce bit-identical signal traces through a scripted crash-and-grow
// Rewire with adversaries installed, exercising the BatchProtocol slab
// path of the survivor state transfer (and, for the flat kernels, the
// post-rewire kernel re-bind). The reference is the plain interface
// loop with flat kernels disabled.
func TestEngineEquivalenceThroughChurn(t *testing.T) {
	// 160 vertices lay out three 64-aligned stripes before the churn
	// event and after it; the crash renumbers vertices across stripe
	// boundaries and the joiner lands in the last stripe.
	g1 := graph.GNPAvgDegree(160, 5, rng.New(31))
	g2, mapping, err := graph.ApplyEdits(g1, []graph.Edit{
		{Kind: graph.EditDelVertex, U: 4},
		{Kind: graph.EditDelVertex, U: 12},
		{Kind: graph.EditAddVertex},
		{Kind: graph.EditAddEdge, U: 160, V: 0},
		{Kind: graph.EditAddEdge, U: 160, V: 9},
		{Kind: graph.EditAddEdge, U: 160, V: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	const seed, pre, post = 606, 15, 25
	run := func(extra ...beep.Option) [][]beep.Signal {
		var trace [][]beep.Signal
		opts := append([]beep.Option{
			beep.WithAdversaries(beep.AdvJammer, []int{7, 130}),
			beep.WithAdversaries(beep.AdvBabbler, []int{2, 20, 90}),
			beep.WithObserver(func(_ int, sent, heard []beep.Signal) {
				row := make([]beep.Signal, 0, 2*len(sent))
				row = append(row, sent...)
				row = append(row, heard...)
				trace = append(trace, row)
			})}, extra...)
		net, err := beep.NewNetwork(g1, NewAlg1(KnownMaxDegreeExact(DefaultC1KnownDelta)), seed, opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer net.Close()
		net.RandomizeAll()
		for r := 0; r < pre; r++ {
			net.Step()
		}
		if err := net.Rewire(g2, mapping[:g1.N()]); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < post; r++ {
			net.Step()
		}
		return trace
	}
	ref := run(beep.WithFlatKernels(false))
	engines := []struct {
		name string
		opts []beep.Option
	}{
		{"sequential", nil},
		{"flatparallel-w3", []beep.Option{beep.WithWorkers(3)}},
		// Forced-delta pins: with adversaries installed every round is
		// a fault round through the same pipeline, and the Rewire
		// invalidation must keep the trace exact on both sides of the
		// churn event.
		{"sequential-delta", []beep.Option{beep.WithForcedDelta()}},
		{"flatparallel-w3-delta", []beep.Option{beep.WithWorkers(3), beep.WithForcedDelta()}},
	}
	for _, e := range engines {
		got := run(e.opts...)
		if len(got) != len(ref) {
			t.Fatalf("engine %v recorded %d rounds, reference %d", e.name, len(got), len(ref))
		}
		for r := range ref {
			for i := range ref[r] {
				if got[r][i] != ref[r][i] {
					t.Fatalf("engine %v diverged at round %d slot %d", e.name, r, i)
				}
			}
		}
	}
}

// TestRewireSurvivorKnowledge pins the deployed-radio semantics of the
// Rewire state transfer on the real protocol: a survivor keeps the ℓmax
// it was constructed with on the old topology, while a joiner's cap
// reflects the new graph.
func TestRewireSurvivorKnowledge(t *testing.T) {
	g1 := graph.Star(9) // Δ = 8
	net, err := beep.NewNetwork(g1, NewAlg1(KnownMaxDegreeExact(DefaultC1KnownDelta)), 3)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	capBefore := net.Machine(1).(Leveled).Cap()
	// Survivors 1..8 move to a path (Δ = 2) plus one joiner.
	g2, mapping, err := graph.ApplyEdits(g1, []graph.Edit{
		{Kind: graph.EditDelVertex, U: 0},
		{Kind: graph.EditAddVertex},
		{Kind: graph.EditAddEdge, U: 9, V: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Rewire(g2, mapping[:g1.N()]); err != nil {
		t.Fatal(err)
	}
	survivor := mapping[1]
	joiner := mapping[9]
	if got := net.Machine(survivor).(Leveled).Cap(); got != capBefore {
		t.Fatalf("survivor cap %d, want the pre-churn knowledge %d", got, capBefore)
	}
	fresh, err := beep.NewNetwork(g2, NewAlg1(KnownMaxDegreeExact(DefaultC1KnownDelta)), 3)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if got, want := net.Machine(joiner).(Leveled).Cap(), fresh.Machine(joiner).(Leveled).Cap(); got != want {
		t.Fatalf("joiner cap %d, want the fresh-knowledge cap %d", got, want)
	}
}
