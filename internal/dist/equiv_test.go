package dist

import (
	"context"
	"hash/fnv"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/beep"
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rng"
)

// The golden execution every engine in the repo must reproduce
// (see internal/core/golden_test.go).
const (
	goldenStabRound = 39
	goldenMISSize   = 20
	goldenMaskHash  = uint64(0xc3308e69f7440ccb)
)

func goldenGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.GNPAvgDegree(64, 6, rng.New(42))
	if g.N() != 64 || g.M() != 189 {
		t.Fatalf("golden generator changed: n=%d m=%d", g.N(), g.M())
	}
	return g
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

// flatReference executes `rounds` rounds on the single-process flat
// kernels and returns the per-round combined digests over the given
// partition ranges — the trace a distributed run with those ranges must
// reproduce hash for hash.
func flatReference(t *testing.T, g *graph.Graph, protoName string, seed uint64, ranges [][2]int, rounds int) []uint64 {
	t.Helper()
	proto, err := core.ProtocolByName(protoName)
	if err != nil {
		t.Fatal(err)
	}
	var hashes []uint64
	parts := make([]uint64, len(ranges))
	net, err := beep.NewNetwork(g, proto, seed,
		beep.WithObserver(func(round int, sent, heard []beep.Signal) {
			for p, r := range ranges {
				parts[p] = RangeDigest(round, r[0], sent[r[0]:r[1]], heard[r[0]:r[1]])
			}
			hashes = append(hashes, CombineDigests(round, parts))
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	if err := core.ApplyInit(net, core.InitRandom); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rounds; i++ {
		if err := net.TryStep(); err != nil {
			t.Fatal(err)
		}
	}
	return hashes
}

// TestPartTable pins the exchange-plan invariants: the ranges tile
// [0, n), and each partition's need set is exactly the set of words
// containing a neighbor of its range.
func TestPartTable(t *testing.T) {
	g := graph.GNPAvgDegree(200, 8, rng.New(5))
	for _, parts := range []int{1, 2, 3, 5, 8} {
		ranges := computeRanges(g.N(), parts)
		if ranges[0][0] != 0 || ranges[len(ranges)-1][1] != g.N() {
			t.Fatalf("parts=%d: ranges do not span [0, n): %v", parts, ranges)
		}
		for i := 1; i < len(ranges); i++ {
			if ranges[i][0] != ranges[i-1][1] {
				t.Fatalf("parts=%d: gap between ranges %v", parts, ranges)
			}
		}
		table := buildPartTable(g, ranges)
		for p, r := range ranges {
			want := make([]uint64, len(table.need[p]))
			for v := r[0]; v < r[1]; v++ {
				for _, u := range g.Neighbors(v) {
					wi := int(u) >> 6
					want[wi>>6] |= 1 << uint(wi&63)
				}
			}
			for i := range want {
				if table.need[p][i] != want[i] {
					t.Fatalf("parts=%d: partition %d need mask %d = %#x, want %#x", parts, p, i, table.need[p][i], want[i])
				}
			}
		}
	}
}

func distConfig(g *graph.Graph, parts int) Config {
	return Config{
		Graph:      g,
		Protocol:   "alg1-known-delta",
		Seed:       7,
		Init:       core.InitRandom,
		Partitions: parts,
		Spawner:    InProcessSpawner(nil),
	}
}

// TestDistGoldenEquivalence is the N-partition trace-equivalence
// matrix: at every partition count the distributed engine must
// reproduce the golden execution — stabilization round, MIS, mask hash
// — and every per-round combined digest of the single-process flat-kernel
// reference over the same ranges.
func TestDistGoldenEquivalence(t *testing.T) {
	g := goldenGraph(t)
	for parts := 1; parts <= 4; parts++ {
		res, err := Run(context.Background(), distConfig(g, parts))
		if err != nil {
			t.Fatalf("parts=%d: %v", parts, err)
		}
		if !res.Stabilized || res.StabilizedRound != goldenStabRound || res.MISSize != goldenMISSize {
			t.Fatalf("parts=%d: stabilized=%v round=%d |MIS|=%d, want true/%d/%d",
				parts, res.Stabilized, res.StabilizedRound, res.MISSize, goldenStabRound, goldenMISSize)
		}
		if h := maskHash(res.MIS); h != goldenMaskHash {
			t.Fatalf("parts=%d: mask hash %#x, want %#x", parts, h, goldenMaskHash)
		}
		if res.Respawns != 0 {
			t.Fatalf("parts=%d: %d respawns in a fault-free run", parts, res.Respawns)
		}
		ranges := computeRanges(g.N(), parts)
		ref := flatReference(t, g, "alg1-known-delta", 7, ranges, res.Rounds)
		if len(res.RoundHashes) != len(ref) {
			t.Fatalf("parts=%d: %d round hashes, reference has %d", parts, len(res.RoundHashes), len(ref))
		}
		for i := range ref {
			if res.RoundHashes[i] != ref[i] {
				t.Fatalf("parts=%d: round %d hash %#x, reference %#x", parts, i+1, res.RoundHashes[i], ref[i])
			}
		}
	}
}

// TestDistTwoChannel runs the two-channel Algorithm 2 distributed: the
// second sender bitset rides the same exchange, and the legality probe
// must apply Algorithm 2 membership semantics.
func TestDistTwoChannel(t *testing.T) {
	g := graph.GNPAvgDegree(96, 5, rng.New(11))
	cfg := distConfig(g, 3)
	cfg.Protocol = "alg2-two-channel"
	cfg.Seed = 13
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stabilized || res.MISSize == 0 {
		t.Fatalf("two-channel run did not stabilize: %+v", res)
	}
	ranges := computeRanges(g.N(), 3)
	ref := flatReference(t, g, "alg2-two-channel", 13, ranges, res.Rounds)
	for i := range ref {
		if res.RoundHashes[i] != ref[i] {
			t.Fatalf("round %d hash %#x, reference %#x", i+1, res.RoundHashes[i], ref[i])
		}
	}
}

// TestDistFaultInjectionEquivalence turns on every wire fault at once —
// drops, duplicates, corruption, receive loss — on both sides of every
// connection. The retransmission ladder and idempotent workers must
// absorb all of it: the result is still bit-identical to the golden
// execution.
func TestDistFaultInjectionEquivalence(t *testing.T) {
	g := goldenGraph(t)
	plan := FaultPlan{Seed: 99, Drop: 0.05, Dup: 0.05, Corrupt: 0.03, DropRecv: 0.03}
	cfg := distConfig(g, 3)
	cfg.Fault = plan
	cfg.Spawner = SpawnerFunc(func(ctx context.Context, part int, addr, token string) error {
		go func() {
			_ = RunWorker(ctx, WorkerConfig{Addr: addr, Part: part, Token: token, Fault: plan})
		}()
		return nil
	})
	cfg.PhaseTimeout = 50 * time.Millisecond
	cfg.MaxAttempts = 10
	cfg.HeartbeatEvery = -1 // the per-round RPCs are the liveness probe here
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stabilized || res.StabilizedRound != goldenStabRound || res.MISSize != goldenMISSize || maskHash(res.MIS) != goldenMaskHash {
		t.Fatalf("faulty-wire run diverged: stabilized=%v round=%d |MIS|=%d hash=%#x",
			res.Stabilized, res.StabilizedRound, res.MISSize, maskHash(res.MIS))
	}
	ranges := computeRanges(g.N(), 3)
	ref := flatReference(t, g, "alg1-known-delta", 7, ranges, res.Rounds)
	for i := range ref {
		if res.RoundHashes[i] != ref[i] {
			t.Fatalf("round %d hash %#x, reference %#x", i+1, res.RoundHashes[i], ref[i])
		}
	}
}

// TestDistCheckpointResume pins the checkpoint interop: a run persists
// its synchronized checkpoints; resuming a fresh distributed run (with
// a different partition count) from the persisted file must land on the
// same stabilized configuration as the uninterrupted golden run.
func TestDistCheckpointResume(t *testing.T) {
	g := goldenGraph(t)
	path := filepath.Join(t.TempDir(), "cp.json")

	cfg := distConfig(g, 2)
	cfg.FixedRounds = 16
	cfg.CheckpointEvery = 8
	cfg.CheckpointPath = path
	if _, err := Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}

	cp, info, err := ckpt.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Round != 16 {
		t.Fatalf("persisted checkpoint at round %d, want 16", cp.Round)
	}
	if info.BaseFormat != "v4-binary" {
		t.Fatalf("persisted base format %q, want v4-binary", info.BaseFormat)
	}
	// n=64 is a single slab word, so every tick crosses the half-dirty
	// threshold and compacts into a fresh base (see TestDistDeltaChain
	// for the incremental path).
	if info.Deltas != 0 {
		t.Fatalf("single-word graph persisted %d delta links, want compacted bases", info.Deltas)
	}

	resumed := distConfig(g, 3)
	resumed.Resume = cp
	res, err := Run(context.Background(), resumed)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stabilized || res.StabilizedRound != goldenStabRound || maskHash(res.MIS) != goldenMaskHash {
		t.Fatalf("resumed run diverged: stabilized=%v round=%d hash=%#x",
			res.Stabilized, res.StabilizedRound, maskHash(res.MIS))
	}
}

// TestDistDeltaChain pins the incremental persistence path: on a graph
// with many slab words, the sparse run's late cadence ticks dirty only
// the shrinking frontier, so the chain file must accumulate delta links
// after its base — and loading the chain must reproduce the anchor the
// coordinator held, bit-exact, as proven by resuming from it.
func TestDistDeltaChain(t *testing.T) {
	g := graph.GNPAvgDegree(2048, 6, rng.New(5))
	path := filepath.Join(t.TempDir(), "chain.ckpt")

	cfg := distConfig(g, 4)
	cfg.CheckpointEvery = 4
	cfg.CheckpointPath = path
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stabilized {
		t.Fatalf("run did not stabilize: %+v", res)
	}

	cp, info, err := ckpt.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Deltas == 0 {
		t.Fatalf("run persisted no delta links (base %d bytes, format %s)", info.BaseBytes, info.BaseFormat)
	}
	if info.TornTail {
		t.Fatal("clean shutdown left a torn delta tail")
	}
	if err := cp.Validate(); err != nil {
		t.Fatalf("loaded chain checkpoint invalid: %v", err)
	}

	// A run resumed from the loaded chain is already at (or near) the
	// fixed point and must stabilize onto the same MIS.
	resumed := distConfig(g, 3)
	resumed.Resume = cp
	rres, err := Run(context.Background(), resumed)
	if err != nil {
		t.Fatal(err)
	}
	if !rres.Stabilized || maskHash(rres.MIS) != maskHash(res.MIS) {
		t.Fatalf("chain-resumed run diverged: stabilized=%v hash=%#x want %#x",
			rres.Stabilized, maskHash(rres.MIS), maskHash(res.MIS))
	}
	t.Logf("chain: base %d bytes (%s), %d deltas / %d bytes, loaded round %d",
		info.BaseBytes, info.BaseFormat, info.Deltas, info.DeltaBytes, cp.Round)
}
