package main

import (
	"context"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"syscall"
	"testing"
	"time"

	"repro/internal/beep"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/rng"
)

// The chaos matrix needs real worker processes to SIGKILL. Instead of
// building the binary, the test binary re-executes itself as a worker
// when this env var is set (the same trick as cmd/beepd's chaos tests).
const workerEnv = "BEEPWORKER_TEST_WORKER"

func TestMain(m *testing.M) {
	if os.Getenv(workerEnv) == "1" {
		runTestWorker()
		return
	}
	os.Exit(m.Run())
}

// runTestWorker is the child-process entry: the same serve loop as the
// real binary, flags parsed from the ProcSpawner command line.
func runTestWorker() {
	fs := flag.NewFlagSet("worker", flag.ExitOnError)
	connect := fs.String("connect", "", "")
	part := fs.Int("part", -1, "")
	token := fs.String("token", "", "")
	fs.Parse(os.Args[1:])
	if err := dist.RunWorker(context.Background(), dist.WorkerConfig{
		Addr: *connect, Part: *part, Token: *token,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "test worker:", err)
		os.Exit(1)
	}
}

func maskHash(mask []bool) uint64 {
	h := fnv.New64a()
	for _, in := range mask {
		if in {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	return h.Sum64()
}

func goldenConfig(g *graph.Graph, parts int, spawner dist.Spawner) dist.Config {
	return dist.Config{
		Graph:      g,
		Protocol:   "alg1-known-delta",
		Seed:       7,
		Init:       core.InitRandom,
		Partitions: parts,
		Spawner:    spawner,
	}
}

// singleProcessDigests steps the golden configuration in one process
// for the given rounds and returns each round's beep.RoundDigest.
func singleProcessDigests(t *testing.T, g *graph.Graph, rounds int) []uint64 {
	t.Helper()
	var hashes []uint64
	net, err := beep.NewNetwork(g, core.NewAlg1(core.KnownMaxDegreeExact(core.DefaultC1KnownDelta)), 7,
		beep.WithObserver(func(round int, sent, heard []beep.Signal) {
			hashes = append(hashes, beep.RoundDigest(round, 0, len(sent), sent, heard))
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	if err := core.ApplyInit(net, core.InitRandom); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rounds; i++ {
		net.Step()
	}
	return hashes
}

// TestProcessChaosMatrix is the process-level crash-recovery matrix: at
// ≥10 randomized kill points a live worker process is SIGKILLed mid-run
// and the coordinator must respawn it, rewind to the last synchronized
// checkpoint, and finish hash-for-hash identical to the single-process
// execution — stabilization round, MIS mask, and every round digest.
func TestProcessChaosMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("process chaos matrix is not -short")
	}
	g := graph.GNPAvgDegree(64, 6, rng.New(42))
	const parts = 2

	// Single-process reference: core.Run for the golden outcome, and the
	// round digests of the same execution. The coordinator detects
	// legality on the quiescent round after stabilization, so the
	// digests cover that round too.
	golden, err := core.Run(core.RunConfig{
		Graph:    g,
		Protocol: core.NewAlg1(core.KnownMaxDegreeExact(core.DefaultC1KnownDelta)),
		Seed:     7,
		Init:     core.InitRandom,
	})
	if err != nil {
		t.Fatal(err)
	}
	if golden.Rounds != 39 || golden.MISSize != 20 || maskHash(golden.MIS) != 0xc3308e69f7440ccb {
		t.Fatalf("reference run is not the golden execution: %+v", golden)
	}
	ref := singleProcessDigests(t, g, golden.Rounds+1)

	// Randomized but reproducible kill schedule: (round, partition)
	// pairs spread across the whole execution.
	sched := rng.New(2024)
	type kill struct{ round, part int }
	var kills []kill
	for i := 0; i < 10; i++ {
		kills = append(kills, kill{round: 1 + sched.Intn(len(ref)-2), part: sched.Intn(parts)})
	}

	t.Setenv(workerEnv, "1") // inherited by the spawned processes

	for i, k := range kills {
		spawner := &dist.ProcSpawner{Binary: os.Args[0], Stderr: os.Stderr}
		cfg := goldenConfig(g, parts, spawner)
		cfg.CheckpointEvery = 4
		// Pace rounds so the SIGKILL lands while the victim is alive
		// mid-run, not after everything already finished.
		cfg.RoundDelay = 2 * time.Millisecond
		killed := false
		cfg.Observer = func(round int, hash uint64) {
			if !killed && round >= k.round {
				killed = true
				if pid := spawner.Pid(k.part); pid > 0 {
					syscall.Kill(pid, syscall.SIGKILL)
				}
			}
		}
		res, err := dist.Run(context.Background(), cfg)
		if err != nil {
			t.Fatalf("kill %d (round %d, part %d): %v", i, k.round, k.part, err)
		}
		if !killed {
			t.Fatalf("kill %d: schedule round %d never fired (run took %d rounds)", i, k.round, res.Rounds)
		}
		if res.Respawns < 1 {
			t.Fatalf("kill %d: SIGKILL at round %d caused no respawn", i, k.round)
		}
		if res.StabilizedRound != golden.Rounds || res.MISSize != golden.MISSize || maskHash(res.MIS) != maskHash(golden.MIS) {
			t.Fatalf("kill %d (round %d, part %d): diverged: round=%d |MIS|=%d hash=%#x, want %d/%d/%#x",
				i, k.round, k.part, res.StabilizedRound, res.MISSize, maskHash(res.MIS),
				golden.Rounds, golden.MISSize, maskHash(golden.MIS))
		}
		if len(res.RoundHashes) != len(ref) {
			t.Fatalf("kill %d: %d round hashes, reference %d", i, len(res.RoundHashes), len(ref))
		}
		for r := range ref {
			if res.RoundHashes[r] != ref[r] {
				t.Fatalf("kill %d: round %d hash %#x, single process %#x", i, r+1, res.RoundHashes[r], ref[r])
			}
		}
	}
}

// TestProcessOrderlyShutdown pins the clean path: a full run over real
// worker processes, no faults, golden result, zero respawns.
func TestProcessOrderlyShutdown(t *testing.T) {
	t.Setenv(workerEnv, "1")
	g := graph.GNPAvgDegree(64, 6, rng.New(42))
	spawner := &dist.ProcSpawner{Binary: os.Args[0], Stderr: os.Stderr}
	res, err := dist.Run(context.Background(), goldenConfig(g, 3, spawner))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stabilized || res.StabilizedRound != 39 || res.Respawns != 0 || maskHash(res.MIS) != 0xc3308e69f7440ccb {
		t.Fatalf("process run diverged: %+v", res)
	}
}
