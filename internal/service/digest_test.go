package service

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/beep"
	"repro/internal/core"
	"repro/internal/dist"
)

// TestRoundDigestAcrossSurfaces runs one fixed-round execution three
// ways — a beepd job, a three-partition dist.Run and a direct library
// run — and requires the same digest every round from each: beepd's
// event hash, dist's RoundHashes and beep.RoundDigest are one value.
func TestRoundDigestAcrossSurfaces(t *testing.T) {
	spec := JobSpec{Family: "gnp:200:0.03", Seed: 12, Rounds: 40, CheckpointEvery: 8}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	g, proto, init, err := spec.resolve()
	if err != nil {
		t.Fatal(err)
	}

	var lib []uint64
	net, err := beep.NewNetwork(g, proto, spec.Seed, beep.WithObserver(func(round int, sent, heard []beep.Signal) {
		lib = append(lib, beep.RoundDigest(round, 0, len(sent), sent, heard))
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	if err := core.ApplyInit(net, init); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < spec.Rounds; r++ {
		net.Step()
	}

	res, err := dist.Run(context.Background(), dist.Config{
		Graph:       g,
		Protocol:    spec.Alg,
		Seed:        spec.Seed,
		Init:        init,
		Partitions:  3,
		FixedRounds: spec.Rounds,
		Spawner:     dist.InProcessSpawner(nil),
	})
	if err != nil {
		t.Fatal(err)
	}

	_, base := testDaemon(t, nil)
	j := submitJob(t, base, spec)
	if final := waitState(t, base, j.ID, JobState.Terminal, 30*time.Second); final.State != JobDone {
		t.Fatalf("job: state %s error %q", final.State, final.Error)
	}
	events := roundHashes(fetchEvents(t, base, j.ID, 0))

	if len(lib) != spec.Rounds || len(res.RoundHashes) != spec.Rounds || len(events) != spec.Rounds {
		t.Fatalf("library, dist and beepd cover %d, %d and %d rounds, want %d",
			len(lib), len(res.RoundHashes), len(events), spec.Rounds)
	}
	for r := 1; r <= spec.Rounds; r++ {
		want := lib[r-1]
		if got := res.RoundHashes[r-1]; got != want {
			t.Fatalf("round %d: dist hash %#x, library %#x", r, got, want)
		}
		if got := events[r]; got != fmt.Sprintf("%016x", want) {
			t.Fatalf("round %d: beepd event hash %s, library %016x", r, got, want)
		}
	}
}
