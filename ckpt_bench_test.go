package repro

import (
	"testing"

	"repro/internal/beep"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rng"
)

// Checkpoint-path benchmarks: the BENCH_ckpt.json provenance. Each
// sub-benchmark times one complete checkpoint capture — state walk
// plus serialization — of the same stabilized network, for the two
// kinds a checkpoint tick writes (DESIGN §12):
//
//   - binary-full: the v3 binary snapshot (Checkpoint + EncodeSnapshot),
//     an O(n) walk and encode.
//   - delta:       an incremental v3 delta (CheckpointDelta +
//     EncodeDelta) after a localized perturbation — cost proportional
//     to the dirty words, not n. The perturbation (corrupt 64 random
//     states, run back to quiescence) happens off-timer each
//     iteration, exactly the steady-state regime a perpetually-running
//     self-stabilizing network checkpoints in.
//
// Both capture bit-equivalent information (the chain replay equals the
// full snapshot; pinned by internal/ckpt and the chaos matrices); only
// wall-clock and bytes differ, which is what the recorded ratios
// isolate.

// stableCkptNet builds a stabilized flat-kernel network with an armed
// dirty-word baseline (the first Checkpoint call arms tracking).
func stableCkptNet(b *testing.B, t graph.Topology, seed uint64) *beep.Network {
	b.Helper()
	proto := core.NewAlg1(core.KnownMaxDegreeExact(core.DefaultC1KnownDelta))
	net, err := beep.NewNetwork(t, proto, seed)
	if err != nil {
		b.Fatal(err)
	}
	net.RandomizeAll()
	var probe core.State
	if _, ok := net.Run(10_000_000, func() bool {
		return probe.Refresh(net) == nil && probe.Stabilized()
	}); !ok {
		net.Close()
		b.Fatal("no stabilization")
	}
	if _, err := net.Checkpoint(); err != nil {
		net.Close()
		b.Fatal(err)
	}
	return net
}

func benchCheckpointWrite(b *testing.B, t graph.Topology, seed uint64) {
	b.Helper()
	b.Run("binary-full", func(b *testing.B) {
		net := stableCkptNet(b, t, seed)
		defer net.Close()
		var bytes int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cp, err := net.Checkpoint()
			if err != nil {
				b.Fatal(err)
			}
			enc, err := beep.EncodeSnapshot(cp)
			if err != nil {
				b.Fatal(err)
			}
			bytes = int64(len(enc))
		}
		b.ReportMetric(float64(bytes), "bytes/op")
	})
	b.Run("delta", func(b *testing.B) {
		net := stableCkptNet(b, t, seed)
		defer net.Close()
		var probe core.State
		stop := func() bool { return probe.Refresh(net) == nil && probe.Stabilized() }
		faults := rng.New(23)
		parent := uint64(1) // any chain position; only the cost is measured
		var bytes, dirtySum int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			perm := faults.Perm(t.N())
			if err := net.Corrupt(perm[:64]); err != nil {
				b.Fatal(err)
			}
			if _, ok := net.Run(1_000_000, stop); !ok {
				b.Fatal("no recovery")
			}
			dirtySum += int64(net.DirtyWords())
			b.StartTimer()
			d, err := net.CheckpointDelta(parent)
			if err != nil {
				b.Fatal(err)
			}
			enc, err := beep.EncodeDelta(d)
			if err != nil {
				b.Fatal(err)
			}
			bytes = int64(len(enc))
		}
		b.ReportMetric(float64(bytes), "bytes/op")
		b.ReportMetric(float64(dirtySum)/float64(b.N), "dirty-words")
	})
}

// BenchmarkCheckpointWrite4k: the CI smoke size — fast enough for a
// per-push timing check of both kinds.
func BenchmarkCheckpointWrite4k(b *testing.B) {
	benchCheckpointWrite(b, graph.GNPAvgDegree(4096, 8, rng.New(2)), 3)
}

// BenchmarkCheckpointWrite1M: the BENCH_ckpt.json headline — at n=10⁶
// the full-snapshot walk plus encode is the cost that made frequent
// durability unaffordable, and the delta's dirty-word proportionality
// is the claim under measurement.
func BenchmarkCheckpointWrite1M(b *testing.B) {
	if testing.Short() {
		b.Skip("n=10^6 checkpoint benchmark skipped in -short mode")
	}
	benchCheckpointWrite(b, graph.ImplicitTorus(1000, 1000), 3)
}
