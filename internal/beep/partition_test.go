package beep

import (
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// TestPartitionEquivalence pins the partition determinism contract: k
// networks each stepping only its own vertex range, with the sender
// word deltas merged between emit and update exactly as a coordinator
// would, reproduce the reference loop signal for signal. The ranges are
// deliberately unaligned so the masked pack + OR-merge of shared edge
// words is exercised, and a mid-run ResetSparse (the restore path)
// re-establishes the base case on both sides of the exchange.
func TestPartitionEquivalence(t *testing.T) {
	g := graph.GNPAvgDegree(100, 5, rng.New(3))
	const rounds, resetAt = 12, 6
	ref := signalTrace(t, g, rwProtocol{}, 9, rounds)

	// Partitioned: one full network per range (as distributed workers
	// hold), stepped range-locally with a manual delta merge.
	ranges := [][2]int{{0, 37}, {37, 70}, {70, 100}}
	parts := make([]*Partition, len(ranges))
	for i, r := range ranges {
		net, err := NewNetwork(g, rwKernelProtocol{}, 9)
		if err != nil {
			t.Fatal(err)
		}
		defer net.Close()
		net.RandomizeAll()
		p, err := net.Partition(r[0], r[1])
		if err != nil {
			t.Fatal(err)
		}
		parts[i] = p
	}

	ex := newExchange(g.N(), len(parts))
	for r := 0; r < rounds; r++ {
		if r == resetAt {
			for _, p := range parts {
				p.ResetSparse()
			}
			ex.reset()
		}
		ex.round(t, parts)
		for _, p := range parts {
			lo, hi := p.Range()
			sent, heard := p.Signals()
			for v := lo; v < hi; v++ {
				if sent[v] != ref[r][v] {
					t.Fatalf("round %d vertex %d: partitioned sent %v, reference %v", r+1, v, sent[v], ref[r][v])
				}
				if heard[v] != ref[r][g.N()+v] {
					t.Fatalf("round %d vertex %d: partitioned heard %v, reference %v", r+1, v, heard[v], ref[r][g.N()+v])
				}
			}
		}
	}
}

// exchange is a test coordinator for single-channel partitions: the
// per-partition uploaded words and their OR-merge.
type exchange struct {
	cur    [][]uint64
	merged []uint64
}

func newExchange(n, parts int) *exchange {
	ex := &exchange{cur: make([][]uint64, parts), merged: make([]uint64, (n+63)/64)}
	for i := range ex.cur {
		ex.cur[i] = make([]uint64, len(ex.merged))
	}
	return ex
}

// reset zeroes the coordinator's side, as a restore must.
func (ex *exchange) reset() {
	for _, c := range ex.cur {
		clear(c)
	}
	clear(ex.merged)
}

// round runs one partitioned round: emit everywhere, OR each word over
// its owners (masked pack keeps foreign bits zero, so shared edge words
// OR cleanly), download every word whose merged value moved, update.
func (ex *exchange) round(t *testing.T, parts []*Partition) {
	t.Helper()
	for i, p := range parts {
		if _, err := p.EmitLocalSparse(); err != nil {
			t.Fatalf("emit: %v", err)
		}
		wis, vals := p.SparseUpload(0)
		for j, wi := range wis {
			ex.cur[i][wi] = vals[j]
		}
	}
	for wi := range ex.merged {
		var m uint64
		for i := range parts {
			m |= ex.cur[i][wi]
		}
		if m != ex.merged[wi] {
			ex.merged[wi] = m
			for _, p := range parts {
				p.ApplyDeltaWord(0, wi, m)
			}
		}
	}
	for _, p := range parts {
		if _, err := p.UpdateLocalSparse(); err != nil {
			t.Fatalf("update: %v", err)
		}
	}
}

// TestPartitionDirtyRowsShadow pins the partition state export: rows
// each partition exports, installed into a never-stepped shadow network,
// reproduce the checkpoint hash of a single-process network stepped to
// the same round. Every export is ascending and clamped to its range;
// the first one, and the first after a Restore, covers the whole range;
// an export with no round since the previous one is empty.
func TestPartitionDirtyRowsShadow(t *testing.T) {
	g := graph.GNPAvgDegree(300, 5, rng.New(8))
	newNet := func() *Network {
		net, err := NewNetwork(g, rwKernelProtocol{}, 9)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(net.Close)
		net.RandomizeAll()
		return net
	}
	ref, shadow := newNet(), newNet()
	if _, err := shadow.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ranges := [][2]int{{0, 100}, {100, 190}, {190, 300}}
	parts := make([]*Partition, len(ranges))
	for i, r := range ranges {
		p, err := newNet().Partition(r[0], r[1])
		if err != nil {
			t.Fatal(err)
		}
		parts[i] = p
	}
	export := func(p *Partition) *StateRows {
		t.Helper()
		b, err := p.AppendDirtyRows(nil)
		if err != nil {
			t.Fatal(err)
		}
		rows, rest, err := DecodeStateRows(b)
		if err != nil || len(rest) != 0 {
			t.Fatalf("export does not decode: %v (%d trailing bytes)", err, len(rest))
		}
		return rows
	}
	collect := func(round int, wantFull bool) {
		t.Helper()
		for _, p := range parts {
			lo, hi := p.Range()
			rows := export(p)
			if wantFull && len(rows.Index) != hi-lo {
				t.Fatalf("round %d: [%d, %d) exported %d rows, want the full range", round, lo, hi, len(rows.Index))
			}
			for i, v := range rows.Index {
				if int(v) < lo || int(v) >= hi || (i > 0 && v <= rows.Index[i-1]) {
					t.Fatalf("round %d: [%d, %d) exported vertex %d out of order or range", round, lo, hi, v)
				}
			}
			if err := shadow.InstallRows(round, rows); err != nil {
				t.Fatal(err)
			}
			if again := export(p); len(again.Index) != 0 {
				t.Fatalf("round %d: re-export with no round between carried %d rows", round, len(again.Index))
			}
		}
		want, err := ref.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		got, err := shadow.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		if got.Hash != want.Hash {
			t.Fatalf("round %d: shadow checkpoint %#x, single-process %#x", round, got.Hash, want.Hash)
		}
	}

	collect(0, true)
	ex := newExchange(g.N(), len(parts))
	for r := 1; r <= 12; r++ {
		ex.round(t, parts)
		ref.Step()
		if r%4 == 0 {
			collect(r, r == 12)
		}
		if r == 8 {
			// Rewind every partition to the shadow, as recovery does.
			cp, err := shadow.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range parts {
				if err := p.net.Restore(cp); err != nil {
					t.Fatal(err)
				}
				p.ResetSparse()
			}
			ex.reset()
		}
	}
}

// TestPartitionValidation pins the construction-time rejections: bad
// ranges, protocols without flat kernels, and the shared-sequential-
// randomness features (noise, sleep, adversaries) that ranges cannot
// split.
func TestPartitionValidation(t *testing.T) {
	g := graph.Cycle(64)

	flat := func(opts ...Option) *Network {
		t.Helper()
		net, err := NewNetwork(g, flatPanicProtocol{round: -1}, 1, opts...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(net.Close)
		return net
	}

	for _, bad := range [][2]int{{-1, 10}, {10, 5}, {0, 65}} {
		if _, err := flat().Partition(bad[0], bad[1]); err == nil {
			t.Fatalf("range [%d, %d) accepted", bad[0], bad[1])
		}
	}

	// No flat kernels: Partition runs the pipeline's kernels only.
	seqNet, err := NewNetwork(g, panicProtocol{vertex: -1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer seqNet.Close()
	if _, err := seqNet.Partition(0, 10); err == nil || !strings.Contains(err.Error(), "flat kernels") {
		t.Fatalf("protocol without flat kernels accepted: %v", err)
	}

	if _, err := flat(WithNoise(Noise{PLoss: 0.2})).Partition(0, 10); err == nil {
		t.Fatal("noisy network accepted")
	}
	if _, err := flat(WithSleep(Sleep{P: 0.1})).Partition(0, 10); err == nil {
		t.Fatal("sleepy network accepted")
	}

	closed := flat()
	closed.Close()
	if _, err := closed.Partition(0, 10); err == nil {
		t.Fatal("closed network accepted")
	}
}

// TestPartitionPanicContainment pins the poisoning contract: a kernel
// panic inside a range pass surfaces as *RunError and poisons the
// network for every later call, like the engines.
func TestPartitionPanicContainment(t *testing.T) {
	g := graph.Cycle(64)
	net, err := NewNetwork(g, flatPanicProtocol{round: 0, phase: "emit"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	p, err := net.Partition(0, 32)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.EmitLocalSparse(); err == nil {
		t.Fatal("injected panic not surfaced")
	} else if rerr, ok := err.(*RunError); !ok || rerr.Phase != "emit" {
		t.Fatalf("emit fault surfaced as %T (%v), want *RunError{Phase: emit}", err, err)
	}
	if _, err := p.UpdateLocalSparse(); err == nil {
		t.Fatal("poisoned network still updating")
	}
	if _, err := p.AppendDirtyRows(nil); err == nil {
		t.Fatal("poisoned network still exporting state")
	}
}
