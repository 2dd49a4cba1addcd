package beep

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// TestAdversaryJammer checks the strongest misuse policy end to end on a
// path 0-1-2 with the jammer in the middle: the jammer transmits the
// full mask every round, its machine is completely frozen, and both
// neighbors hear a beep in every round.
func TestAdversaryJammer(t *testing.T) {
	net, err := NewNetwork(graph.Path(3), counterProtocol{}, 11,
		WithAdversaries(AdvJammer, []int{1}))
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	const rounds = 20
	jamSent := 0
	net.observer = func(_ int, sent, heard []Signal) {
		if sent[1] == net.fullMask {
			jamSent++
		}
		for _, v := range []int{0, 2} {
			if !heard[v].Has(Chan1) {
				t.Fatalf("neighbor %d of jammer heard silence", v)
			}
		}
	}
	for r := 0; r < rounds; r++ {
		net.Step()
	}
	if jamSent != rounds {
		t.Fatalf("jammer transmitted full mask in %d/%d rounds", jamSent, rounds)
	}
	m := net.Machine(1).(*counterMachine)
	if m.round != 0 || m.heard != 0 {
		t.Fatalf("jammer machine not frozen: round=%d heard=%d", m.round, m.heard)
	}
}

// TestAdversaryMute checks the crashed-silent policy: the mute vertex
// never transmits, never updates, and its path neighbors — whose only
// neighbor it is — hear unbroken silence.
func TestAdversaryMute(t *testing.T) {
	net, err := NewNetwork(graph.Path(3), counterProtocol{}, 11,
		WithAdversaries(AdvMute, []int{1}))
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	net.observer = func(_ int, sent, heard []Signal) {
		if sent[1] != Silent {
			t.Fatalf("mute vertex transmitted %v", sent[1])
		}
	}
	for r := 0; r < 20; r++ {
		net.Step()
	}
	if m := net.Machine(1).(*counterMachine); m.round != 0 {
		t.Fatalf("mute machine not frozen: round=%d", m.round)
	}
	for _, v := range []int{0, 2} {
		if m := net.Machine(v).(*counterMachine); m.heard != 0 {
			t.Fatalf("vertex %d heard %d beeps from a mute-only neighborhood", v, m.heard)
		}
	}
}

// TestAdversaryBabblerDeterministic runs two identically seeded networks
// with a babbler and requires signal-identical executions — the babbler
// draws from the dedicated adversary stream, so babbling is as
// reproducible as everything else. It also checks the babbler actually
// varies its output (it is not a constant-policy adversary) and that its
// machine stays frozen.
func TestAdversaryBabblerDeterministic(t *testing.T) {
	const rounds = 64
	run := func() []Signal {
		net, err := NewNetwork(graph.Cycle(5), counterProtocol{}, 42,
			WithAdversaries(AdvBabbler, []int{3}))
		if err != nil {
			t.Fatal(err)
		}
		defer net.Close()
		var out []Signal
		net.observer = func(_ int, sent, _ []Signal) { out = append(out, sent[3]) }
		for r := 0; r < rounds; r++ {
			net.Step()
		}
		if m := net.Machine(3).(*counterMachine); m.round != 0 {
			t.Fatalf("babbler machine not frozen: round=%d", m.round)
		}
		return out
	}
	a, b := run(), run()
	beeps, silences := 0, 0
	for r := range a {
		if a[r] != b[r] {
			t.Fatalf("babbler output diverged at round %d: %v vs %v", r, a[r], b[r])
		}
		if a[r] == Silent {
			silences++
		} else {
			beeps++
		}
	}
	if beeps == 0 || silences == 0 {
		t.Fatalf("babbler output is constant over %d rounds (beeps=%d silences=%d)",
			rounds, beeps, silences)
	}
}

// TestAdversaryOverridesSleep pins the documented precedence: an
// adversary transmits per its policy even in rounds the sleep model
// would have put it to bed.
func TestAdversaryOverridesSleep(t *testing.T) {
	net, err := NewNetwork(graph.Path(2), counterProtocol{}, 5,
		WithSleep(Sleep{P: 0.9}),
		WithAdversaries(AdvJammer, []int{0}))
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	net.observer = func(r int, sent, _ []Signal) {
		if sent[0] != net.fullMask {
			t.Fatalf("round %d: jammer slept (sent %v)", r, sent[0])
		}
	}
	for r := 0; r < 100; r++ {
		net.Step()
	}
}

// TestWithAdversariesValidation exercises every NewNetwork-time
// rejection path of the option.
func TestWithAdversariesValidation(t *testing.T) {
	g := graph.Path(4)
	cases := []struct {
		name string
		opts []Option
	}{
		{"out-of-range", []Option{WithAdversaries(AdvJammer, []int{4})}},
		{"negative", []Option{WithAdversaries(AdvMute, []int{-1})}},
		{"invalid-policy", []Option{WithAdversaries(AdversaryPolicy(99), []int{0})}},
		{"none-policy", []Option{WithAdversaries(advNone, []int{0})}},
		{"conflict", []Option{
			WithAdversaries(AdvJammer, []int{1}),
			WithAdversaries(AdvMute, []int{1}),
		}},
	}
	for _, c := range cases {
		if _, err := NewNetwork(g, counterProtocol{}, 1, c.opts...); err == nil {
			t.Fatalf("%s: invalid adversary spec accepted", c.name)
		}
	}
	// Repeating the same policy on the same vertex is harmless.
	net, err := NewNetwork(g, counterProtocol{}, 1,
		WithAdversaries(AdvJammer, []int{1}),
		WithAdversaries(AdvJammer, []int{1, 2}))
	if err != nil {
		t.Fatalf("idempotent re-assignment rejected: %v", err)
	}
	net.Close()
}

// TestAdversaryAccessors covers the query surface: count, per-vertex
// policy, the sorted vertex list, the mask capture, and the string
// round trip through ParseAdversaryPolicy.
func TestAdversaryAccessors(t *testing.T) {
	net, err := NewNetwork(graph.Cycle(6), counterProtocol{}, 9,
		WithAdversaries(AdvMute, []int{5, 0}),
		WithAdversaries(AdvBabbler, []int{2}))
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	if got := net.AdversaryCount(); got != 3 {
		t.Fatalf("AdversaryCount = %d, want 3", got)
	}
	wantPolicies := map[int]AdversaryPolicy{0: AdvMute, 1: advNone, 2: AdvBabbler, 5: AdvMute}
	for v, want := range wantPolicies {
		if got := net.AdversaryOf(v); got != want {
			t.Fatalf("AdversaryOf(%d) = %v, want %v", v, got, want)
		}
	}
	vs := net.Adversaries()
	if len(vs) != 3 || vs[0] != 0 || vs[1] != 2 || vs[2] != 5 {
		t.Fatalf("Adversaries() = %v, want [0 2 5]", vs)
	}
	mask := make([]bool, net.N())
	net.FillAdversaryMask(mask)
	for v := 0; v < net.N(); v++ {
		want := wantPolicies[v] != advNone
		if mask[v] != want {
			t.Fatalf("mask[%d] = %v, want %v", v, mask[v], want)
		}
	}
	for _, p := range []AdversaryPolicy{AdvJammer, AdvBabbler, AdvMute} {
		got, err := ParseAdversaryPolicy(p.String())
		if err != nil || got != p {
			t.Fatalf("ParseAdversaryPolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParseAdversaryPolicy("gossip"); err == nil {
		t.Fatal("unknown policy name accepted")
	}
}

// TestAdversaryFollowsRewire checks that policies travel with surviving
// vertices through a renumbering rewire, that joiners arrive
// cooperating, and that the epoch counter moves so legality observers
// re-capture their masks.
func TestAdversaryFollowsRewire(t *testing.T) {
	net, err := NewNetwork(graph.Path(4), rwProtocol{}, 13,
		WithAdversaries(AdvJammer, []int{3}),
		WithAdversaries(AdvMute, []int{1}))
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	epoch := net.AdversaryEpoch()
	// Drop vertex 0; survivors 1,2,3 -> 0,1,2; joiners 3,4.
	if err := net.Rewire(graph.Cycle(5), []int{-1, 0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	if net.AdversaryEpoch() == epoch {
		t.Fatal("adversary epoch unchanged across Rewire")
	}
	want := map[int]AdversaryPolicy{0: AdvMute, 1: advNone, 2: AdvJammer, 3: advNone, 4: advNone}
	for v, p := range want {
		if got := net.AdversaryOf(v); got != p {
			t.Fatalf("after rewire AdversaryOf(%d) = %v, want %v", v, got, p)
		}
	}
	if got := net.AdversaryCount(); got != 2 {
		t.Fatalf("AdversaryCount = %d after rewire, want 2", got)
	}
	// Dropping the last adversaries through a rewire clears the set.
	if err := net.Rewire(graph.Path(2), []int{-1, 0, -1, 1, -1}); err != nil {
		t.Fatal(err)
	}
	if got := net.AdversaryCount(); got != 0 {
		t.Fatalf("AdversaryCount = %d after dropping all adversaries, want 0", got)
	}
	if net.Adversaries() != nil && len(net.Adversaries()) != 0 {
		t.Fatalf("Adversaries() = %v, want empty", net.Adversaries())
	}
}

// TestAdversaryEngineEquivalence pins the pipeline's fault rounds:
// with every policy installed, under noise and sleep, each flat-kernel
// configuration must reproduce the reference loop, because babbler
// draws are pre-drawn sequentially and skipped vertices are pre-filled.
func TestAdversaryEngineEquivalence(t *testing.T) {
	g := graph.GNPAvgDegree(160, 5, rng.New(8))
	const seed, rounds = 77, 25
	// Adversaries sit in each of the three stripes.
	faults := []Option{
		WithNoise(Noise{PLoss: 0.1, PFalse: 0.05}),
		WithSleep(Sleep{P: 0.1}),
		WithAdversaries(AdvJammer, []int{0, 140}),
		WithAdversaries(AdvBabbler, []int{7, 11, 19, 70}),
		WithAdversaries(AdvMute, []int{4, 130}),
	}
	ref := signalTrace(t, g, rwProtocol{}, seed, rounds, faults...)
	samePipelineTraces(t, g, seed, rounds, ref, faults...)
}
