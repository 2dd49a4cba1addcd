package dist

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/beep"
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rng"
)

// singleProcessCheckpoint steps a single-process Sequential network
// from the run's seed and init to the given round and returns its
// checkpoint: the state every distributed checkpoint at that round must
// equal bit for bit.
func singleProcessCheckpoint(t *testing.T, g *graph.Graph, seed uint64, round int) *beep.Checkpoint {
	t.Helper()
	proto, err := core.ProtocolByName("alg1-known-delta")
	if err != nil {
		t.Fatal(err)
	}
	net, err := beep.NewNetwork(g, proto, seed)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	if err := core.ApplyInit(net, core.InitRandom); err != nil {
		t.Fatal(err)
	}
	for net.Round() < round {
		if err := net.TryStep(); err != nil {
			t.Fatal(err)
		}
	}
	cp, err := net.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

// TestDistCheckpointsBitExact pins every checkpoint a distributed run
// produces to the single-process network stepped to the same round:
// Result.LastCheckpoint on the golden graph at every partition count
// and on a 2,048-vertex graph, and the persisted chain as ckpt.Load
// assembles it — also after a worker is killed between two cadence
// ticks, where recovery rewinds to the shadow and the next tick must
// persist a base.
func TestDistCheckpointsBitExact(t *testing.T) {
	same := func(t *testing.T, what string, got *beep.Checkpoint, g *graph.Graph, seed uint64) {
		t.Helper()
		want := singleProcessCheckpoint(t, g, seed, got.Round)
		if got.Hash != want.Hash {
			t.Fatalf("%s at round %d: hash %#x, single-process %#x", what, got.Round, got.Hash, want.Hash)
		}
	}

	golden := goldenGraph(t)
	for parts := 1; parts <= 4; parts++ {
		res, err := Run(context.Background(), distConfig(golden, parts))
		if err != nil {
			t.Fatalf("parts=%d: %v", parts, err)
		}
		if res.LastCheckpoint.Round != res.Rounds {
			t.Fatalf("parts=%d: last checkpoint at round %d, run ended at %d", parts, res.LastCheckpoint.Round, res.Rounds)
		}
		same(t, "golden LastCheckpoint", res.LastCheckpoint, golden, 7)
	}

	g := graph.GNPAvgDegree(2048, 6, rng.New(5))
	t.Run("chain", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "chain.ckpt")
		cfg := distConfig(g, 4)
		cfg.CheckpointEvery = 4
		cfg.CheckpointPath = path
		res, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		same(t, "LastCheckpoint", res.LastCheckpoint, g, 7)
		cp, info, err := ckpt.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		if info.Deltas == 0 {
			t.Fatal("chain carries no delta links")
		}
		same(t, "loaded chain", cp, g, 7)
	})

	t.Run("chain-after-kill", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "chain.ckpt")
		spawner := newKillableSpawner()
		cfg := distConfig(g, 4)
		cfg.Spawner = spawner
		cfg.CheckpointEvery = 4
		cfg.CheckpointPath = path
		cfg.PhaseTimeout = 150 * time.Millisecond
		cfg.MaxAttempts = 3
		killed := false
		cfg.Observer = func(round int, _ uint64) {
			if round == 10 && !killed { // between the ticks at 8 and 12
				killed = true
				spawner.kill(2)
			}
		}
		res, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Respawns == 0 {
			t.Fatal("the kill caused no respawn")
		}
		same(t, "LastCheckpoint", res.LastCheckpoint, g, 7)
		cp, _, err := ckpt.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		same(t, "loaded chain", cp, g, 7)
	})
}

// tamperingWorker serves one partition like RunWorker but passes every
// state reply through tamper before sending it: a worker whose state
// replies are malformed but arrive in CRC-valid frames.
func tamperingWorker(ctx context.Context, addr string, part int, token string, tamper func([]byte) []byte) {
	conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return
	}
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-ctx.Done():
			conn.Close()
		case <-stop:
		}
	}()
	fc := newFrameConn(conn)
	defer fc.close()
	join, _ := json.Marshal(joinMsg{Part: part, Token: token})
	if fc.send(frame{Type: fJoin, Payload: join}) != nil {
		return
	}
	var ws *workerState
	for {
		f, err := fc.recv(time.Time{})
		if err != nil {
			return
		}
		reply, done := handleFrame(&ws, part, f, func(string, ...any) {})
		if reply != nil {
			if reply.Type == fStateDeltaOK {
				reply.Payload = tamper(append([]byte(nil), reply.Payload...))
			}
			if fc.send(*reply) != nil || done {
				return
			}
		}
	}
}

// reRows decodes a state reply's rows, lets edit change them, and
// re-encodes the reply: structurally well-formed bytes carrying rows
// the coordinator must still refuse.
func reRows(b []byte, edit func(r *beep.StateRows)) []byte {
	rows, _, err := beep.DecodeStateRows(b[4:])
	if err != nil {
		panic(err)
	}
	edit(rows)
	return beep.AppendStateRows(b[:4:4], rows)
}

// TestDistMalformedStateReplies treats worker state replies as the
// untrusted input they are: each malformed reply fails the run with a
// *WorkerError naming the partition — before anything is installed —
// and the coordinator's shutdown leaves no worker running.
func TestDistMalformedStateReplies(t *testing.T) {
	cases := map[string]func([]byte) []byte{
		"truncated": func(b []byte) []byte { return b[:len(b)-3] },
		"non-ascending": func(b []byte) []byte {
			return reRows(b, func(r *beep.StateRows) { r.Index[0], r.Index[1] = r.Index[1], r.Index[0] })
		},
		"out-of-range": func(b []byte) []byte {
			return reRows(b, func(r *beep.StateRows) { r.Index[0] = 31 }) // partition 0's vertex
		},
		"wrong-round": func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b, binary.LittleEndian.Uint32(b)+1)
			return b
		},
		"trailing-byte": func(b []byte) []byte { return append(b, 0) },
		"undecodable-row": func(b []byte) []byte {
			return reRows(b, func(r *beep.StateRows) { r.Machines[0] = []int64{1} })
		},
	}
	g := goldenGraph(t)
	for name, tamper := range cases {
		t.Run(name, func(t *testing.T) {
			var wg sync.WaitGroup
			cfg := distConfig(g, 2) // ranges [0, 32) and [32, 64)
			cfg.Spawner = SpawnerFunc(func(ctx context.Context, part int, addr, token string) error {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if part == 1 {
						tamperingWorker(ctx, addr, part, token, tamper)
						return
					}
					_ = RunWorker(ctx, WorkerConfig{Addr: addr, Part: part, Token: token})
				}()
				return nil
			})
			_, err := Run(context.Background(), cfg)
			var we *WorkerError
			if !errors.As(err, &we) || we.Part != 1 {
				t.Fatalf("got %v, want a *WorkerError from partition 1", err)
			}
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("workers still running after the failed run returned")
			}
		})
	}
}
