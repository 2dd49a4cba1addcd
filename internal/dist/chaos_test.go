package dist

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// These tests pin the coordinator's failure paths: every scenario must
// end in a typed error or a bit-exact recovery within the go test
// timeout — never a hang. They run in-process; the process-level
// SIGKILL matrix lives in cmd/beepworker.

// TestDistSlowWorker runs a worker whose every reply is delayed beyond
// the initial reply window. The capped exponential ladder must widen
// past the delay and converge — with results still bit-identical to the
// golden run. Heartbeats are disabled: with every frame delayed, a
// short-window ping would misdiagnose slowness as death (that policy
// trade-off is exercised in TestDistPermanentLoss).
func TestDistSlowWorker(t *testing.T) {
	g := goldenGraph(t)
	cfg := distConfig(g, 2)
	cfg.PhaseTimeout = 20 * time.Millisecond
	cfg.MaxBackoff = 500 * time.Millisecond
	cfg.MaxAttempts = 6
	cfg.HeartbeatEvery = -1
	cfg.Spawner = SpawnerFunc(func(ctx context.Context, part int, addr, token string) error {
		wc := WorkerConfig{Addr: addr, Part: part, Token: token}
		if part == 1 {
			wc.Fault = FaultPlan{Seed: 4, Delay: 1.0, MaxDelay: 60 * time.Millisecond}
		}
		go func() { _ = RunWorker(ctx, wc) }()
		return nil
	})
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stabilized || res.StabilizedRound != goldenStabRound || maskHash(res.MIS) != goldenMaskHash {
		t.Fatalf("slow-worker run diverged: stabilized=%v round=%d hash=%#x",
			res.Stabilized, res.StabilizedRound, maskHash(res.MIS))
	}
}

// TestDistDeadBeforeRound0 covers a worker that never comes up: the
// join wait must expire into ErrWorkerLost within JoinTimeout, not
// block the run forever.
func TestDistDeadBeforeRound0(t *testing.T) {
	g := goldenGraph(t)
	cfg := distConfig(g, 2)
	cfg.JoinTimeout = 300 * time.Millisecond
	cfg.Spawner = SpawnerFunc(func(ctx context.Context, part int, addr, token string) error {
		if part == 1 {
			return nil // launch "succeeds", nothing ever dials
		}
		go func() { _ = RunWorker(ctx, WorkerConfig{Addr: addr, Part: part, Token: token}) }()
		return nil
	})
	start := time.Now()
	_, err := Run(context.Background(), cfg)
	if !errors.Is(err, ErrWorkerLost) {
		t.Fatalf("got %v, want ErrWorkerLost", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("took %v to report the missing worker", elapsed)
	}
}

// killableSpawner runs in-process workers under per-spawn contexts so a
// test can kill a specific partition's current incarnation mid-run.
type killableSpawner struct {
	mu      sync.Mutex
	cancels map[int]context.CancelFunc
	spawns  map[int]int
	// failRespawn, when set, makes every spawn after the first for that
	// partition fail — modeling a worker that cannot be revived.
	failRespawn bool
}

func newKillableSpawner() *killableSpawner {
	return &killableSpawner{cancels: map[int]context.CancelFunc{}, spawns: map[int]int{}}
}

func (s *killableSpawner) Spawn(ctx context.Context, part int, addr, token string) error {
	s.mu.Lock()
	s.spawns[part]++
	if s.failRespawn && s.spawns[part] > 1 {
		s.mu.Unlock()
		return fmt.Errorf("partition %d cannot be revived", part)
	}
	wctx, cancel := context.WithCancel(ctx)
	s.cancels[part] = cancel
	s.mu.Unlock()
	go func() { _ = RunWorker(wctx, WorkerConfig{Addr: addr, Part: part, Token: token}) }()
	return nil
}

func (s *killableSpawner) kill(part int) {
	s.mu.Lock()
	cancel := s.cancels[part]
	s.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// TestDistWorkerDiesMidBarrier kills workers at several rounds mid-run.
// Each death must be detected (heartbeat or phase timeout), the worker
// respawned, everyone rewound to the last synchronized checkpoint, and
// the final execution must still be hash-for-hash the golden one.
func TestDistWorkerDiesMidBarrier(t *testing.T) {
	g := goldenGraph(t)
	spawner := newKillableSpawner()
	kills := map[int]int{5: 1, 17: 0, 30: 1} // round -> partition to kill
	cfg := distConfig(g, 2)
	cfg.Spawner = spawner
	cfg.CheckpointEvery = 4
	cfg.PhaseTimeout = 150 * time.Millisecond
	cfg.MaxAttempts = 3
	cfg.Observer = func(round int, hash uint64) {
		if p, ok := kills[round]; ok {
			delete(kills, round)
			spawner.kill(p)
		}
	}
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Respawns < 3 {
		t.Fatalf("expected ≥3 respawns (3 kills), got %d", res.Respawns)
	}
	if !res.Stabilized || res.StabilizedRound != goldenStabRound || res.MISSize != goldenMISSize || maskHash(res.MIS) != goldenMaskHash {
		t.Fatalf("post-recovery run diverged: stabilized=%v round=%d |MIS|=%d hash=%#x",
			res.Stabilized, res.StabilizedRound, res.MISSize, maskHash(res.MIS))
	}
	sameHashes(t, "post-recovery", res.RoundHashes, reference(t, g, "alg1-known-delta", 7, goldenStabRound+1))
}

// TestDistPermanentLoss kills a worker whose respawn always fails: the
// run must end with ErrWorkerLost promptly instead of hanging in a
// spawn-die loop.
func TestDistPermanentLoss(t *testing.T) {
	g := goldenGraph(t)
	spawner := newKillableSpawner()
	spawner.failRespawn = true
	cfg := distConfig(g, 2)
	cfg.Spawner = spawner
	cfg.PhaseTimeout = 100 * time.Millisecond
	cfg.MaxAttempts = 2
	cfg.RoundDelay = time.Millisecond
	once := sync.Once{}
	cfg.Observer = func(round int, hash uint64) {
		if round >= 3 {
			once.Do(func() { spawner.kill(1) })
		}
	}
	_, err := Run(context.Background(), cfg)
	if !errors.Is(err, ErrWorkerLost) {
		t.Fatalf("got %v, want ErrWorkerLost", err)
	}
}

// TestDistRespawnBudget drives a worker that dies on every round: the
// respawn budget must bound the spawn-die loop and surface
// ErrWorkerLost rather than looping forever.
func TestDistRespawnBudget(t *testing.T) {
	g := goldenGraph(t)
	spawner := newKillableSpawner()
	cfg := distConfig(g, 2)
	cfg.Spawner = spawner
	cfg.PhaseTimeout = 100 * time.Millisecond
	cfg.MaxAttempts = 2
	cfg.MaxRespawns = 3
	cfg.RoundDelay = time.Millisecond
	cfg.Observer = func(round int, hash uint64) { spawner.kill(1) }
	_, err := Run(context.Background(), cfg)
	if !errors.Is(err, ErrWorkerLost) {
		t.Fatalf("got %v, want ErrWorkerLost", err)
	}
}

// TestDistCanceled pins the context path: canceling the run mid-flight
// returns ErrCanceled instead of deadlocking on worker RPCs.
func TestDistCanceled(t *testing.T) {
	g := goldenGraph(t)
	ctx, cancel := context.WithCancel(context.Background())
	cfg := distConfig(g, 2)
	cfg.RoundDelay = 5 * time.Millisecond
	cfg.Observer = func(round int, hash uint64) {
		if round == 3 {
			cancel()
		}
	}
	_, err := Run(ctx, cfg)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("got %v, want ErrCanceled", err)
	}
}
