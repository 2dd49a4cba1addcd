package core

import (
	"hash/fnv"
	"testing"

	"repro/internal/beep"
	"repro/internal/graph"
	"repro/internal/rng"
)

// TestGoldenExecution pins the exact end-to-end behavior of the stack
// (PRNG, graph generation, Algorithm 1, legality detection) for one
// fixed seed. It exists as a regression tripwire: any change to the
// random stream layout, the generator, or the algorithm's semantics
// flips these constants. If you change one of those INTENTIONALLY,
// re-derive the constants (run the test, copy the reported values) and
// say so in the commit; an unexpected failure here means an accidental
// semantic change.
func TestGoldenExecution(t *testing.T) {
	const (
		wantN       = 64
		wantM       = 189
		wantRounds  = 39
		wantMISSize = 20
		wantHash    = uint64(0xc3308e69f7440ccb)
	)
	g := graph.GNPAvgDegree(64, 6, rng.New(42))
	if g.N() != wantN || g.M() != wantM {
		t.Fatalf("generator changed: n=%d m=%d, want %d/%d", g.N(), g.M(), wantN, wantM)
	}
	res, err := Run(RunConfig{
		Graph:    g,
		Protocol: NewAlg1(KnownMaxDegreeExact(DefaultC1KnownDelta)),
		Seed:     7,
		Init:     InitRandom,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for _, in := range res.MIS {
		if in {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	if res.Rounds != wantRounds || res.MISSize != wantMISSize || h.Sum64() != wantHash {
		t.Fatalf("execution changed: rounds=%d misSize=%d hash=%#x, want %d/%d/%#x",
			res.Rounds, res.MISSize, h.Sum64(), wantRounds, wantMISSize, wantHash)
	}
}

// TestRoundDigestStable pins beep.RoundDigest on the golden execution.
// beepd persists these values in job traces and the distributed engine
// reports them, so a change to the digest's definition must be a
// deliberate edit of these constants, never a side effect.
func TestRoundDigestStable(t *testing.T) {
	want := map[int]uint64{
		1:  0xd73a88087b5df33f,
		2:  0xcd1ae590047844b1,
		39: 0xd99c6c8b04cc8776,
	}
	got := make(map[int]uint64)
	res, err := Run(RunConfig{
		Graph:    graph.GNPAvgDegree(64, 6, rng.New(42)),
		Protocol: NewAlg1(KnownMaxDegreeExact(DefaultC1KnownDelta)),
		Seed:     7,
		Init:     InitRandom,
		Options: []beep.Option{beep.WithObserver(func(round int, sent, heard []beep.Signal) {
			if _, ok := want[round]; ok {
				got[round] = beep.RoundDigest(round, 0, len(sent), sent, heard)
			}
		})},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 39 {
		t.Fatalf("golden execution ran %d rounds, want 39", res.Rounds)
	}
	for _, round := range []int{1, 2, 39} {
		if got[round] != want[round] {
			t.Errorf("round %d digest %#x, want %#x", round, got[round], want[round])
		}
	}
}
