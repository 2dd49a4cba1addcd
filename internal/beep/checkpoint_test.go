package beep

import (
	"encoding/binary"
	"hash/crc32"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// codecProtocol is a checkpointable test protocol: beeps with
// probability 1/2 and counts rounds.
type codecProtocol struct{}

func (codecProtocol) Channels() int { return 1 }
func (codecProtocol) NewMachine(int, graph.Topology) Machine {
	return &codecMachine{}
}

type codecMachine struct {
	rounds int64
	beeped int64
}

func (m *codecMachine) Emit(src *rng.Source) Signal {
	if src.Coin() {
		return Chan1
	}
	return Silent
}

func (m *codecMachine) Update(sent, _ Signal) {
	m.rounds++
	if sent.Has(Chan1) {
		m.beeped++
	}
}

func (m *codecMachine) Randomize(src *rng.Source) {
	m.rounds = int64(src.Intn(10))
}

func (m *codecMachine) AppendState(dst []int64) []int64 {
	return append(dst, m.rounds, m.beeped)
}

func (m *codecMachine) DecodeState(state []int64) error {
	m.rounds, m.beeped = state[0], state[1]
	return nil
}

func traceOf(t *testing.T, net *Network, steps int) [][]Signal {
	t.Helper()
	var tr [][]Signal
	for i := 0; i < steps; i++ {
		net.Step()
		row := make([]Signal, net.N())
		copy(row, net.sent)
		tr = append(tr, row)
	}
	return tr
}

func TestCheckpointResumeEquivalence(t *testing.T) {
	g := graph.GNP(40, 0.1, rng.New(3))

	// Straight-through run: 60 rounds.
	netA, err := NewNetwork(g, codecProtocol{}, 7, WithNoise(Noise{PLoss: 0.05, PFalse: 0.02}))
	if err != nil {
		t.Fatal(err)
	}
	defer netA.Close()
	full := traceOf(t, netA, 60)

	// Checkpointed run: 30 rounds, checkpoint, restore onto a FRESH
	// network, 30 more rounds.
	netB, err := NewNetwork(g, codecProtocol{}, 7, WithNoise(Noise{PLoss: 0.05, PFalse: 0.02}))
	if err != nil {
		t.Fatal(err)
	}
	defer netB.Close()
	_ = traceOf(t, netB, 30)
	cp, err := netB.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	// Serialize and parse the checkpoint to exercise the v2 JSON reader.
	cp2, err := DecodeCheckpointAuto(mustJSON(t, cp))
	if err != nil {
		t.Fatal(err)
	}

	netC, err := NewNetwork(g, codecProtocol{}, 999 /* different seed */, WithNoise(Noise{PLoss: 0.05, PFalse: 0.02}))
	if err != nil {
		t.Fatal(err)
	}
	defer netC.Close()
	if err := netC.Restore(cp2); err != nil {
		t.Fatal(err)
	}
	if netC.Round() != 30 {
		t.Fatalf("restored round %d, want 30", netC.Round())
	}
	tail := traceOf(t, netC, 30)

	for r := 0; r < 30; r++ {
		for v := range tail[r] {
			if tail[r][v] != full[30+r][v] {
				t.Fatalf("resumed trace diverged at round %d vertex %d", 31+r, v)
			}
		}
	}
}

func TestCheckpointErrors(t *testing.T) {
	g := graph.Path(3)
	// counterProtocol machines do not implement StateCodec.
	net, err := NewNetwork(g, counterProtocol{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	if _, err := net.Checkpoint(); err == nil {
		t.Fatal("checkpoint of non-codec machines accepted")
	}
	if err := net.Restore(&Checkpoint{Machines: make([][]int64, 3), Streams: make([][4]uint64, 3)}); err == nil {
		t.Fatal("restore onto non-codec machines accepted")
	}

	netC, err := NewNetwork(g, codecProtocol{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer netC.Close()
	if err := netC.Restore(nil); err == nil {
		t.Fatal("nil checkpoint accepted")
	}
	if err := netC.Restore(&Checkpoint{Machines: make([][]int64, 1), Streams: make([][4]uint64, 1)}); err == nil {
		t.Fatal("size-mismatched checkpoint accepted")
	}
}

func TestReadCheckpointRejectsGarbage(t *testing.T) {
	if _, err := DecodeCheckpointAuto([]byte("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
}

// TestCheckpointAdversaryDivergenceRegression is the regression test for
// the pre-v2 checkpoint format, which omitted the adversary stream
// state, the adversary epoch and the per-vertex policy array: a resumed
// adversarial run silently diverged from the uninterrupted one. The v2
// format carries all three, and Restore installs them even onto a
// network constructed with *no* adversaries — proving the checkpoint,
// not the constructor, is the source of truth.
func TestCheckpointAdversaryDivergenceRegression(t *testing.T) {
	g := graph.GNP(30, 0.15, rng.New(11))
	babblers := []int{2, 7, 19}
	opts := []Option{
		WithNoise(Noise{PLoss: 0.03, PFalse: 0.01}),
		WithSleep(Sleep{P: 0.05}),
	}

	// Uninterrupted adversarial run: 50 rounds.
	netA, err := NewNetwork(g, codecProtocol{}, 5, append(opts, WithAdversaries(AdvBabbler, babblers))...)
	if err != nil {
		t.Fatal(err)
	}
	defer netA.Close()
	full := traceOf(t, netA, 50)

	// Interrupted run: 20 rounds, checkpoint (through the JSON round
	// trip), resume onto a fresh network built WITHOUT adversaries and
	// with a different seed.
	netB, err := NewNetwork(g, codecProtocol{}, 5, append(opts, WithAdversaries(AdvBabbler, babblers))...)
	if err != nil {
		t.Fatal(err)
	}
	defer netB.Close()
	_ = traceOf(t, netB, 20)
	cp, err := netB.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if cp.Adversaries == nil || cp.AdvRNG == ([4]uint64{}) {
		t.Fatal("checkpoint did not capture adversary state (the pre-v2 bug)")
	}
	cp2, err := DecodeCheckpointAuto(mustJSON(t, cp))
	if err != nil {
		t.Fatal(err)
	}

	netC, err := NewNetwork(g, codecProtocol{}, 999, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer netC.Close()
	if err := netC.Restore(cp2); err != nil {
		t.Fatal(err)
	}
	if netC.AdversaryCount() != len(babblers) {
		t.Fatalf("restore installed %d adversaries, want %d", netC.AdversaryCount(), len(babblers))
	}
	for _, v := range babblers {
		if netC.AdversaryOf(v) != AdvBabbler {
			t.Fatalf("vertex %d restored as %v, want babbler", v, netC.AdversaryOf(v))
		}
	}
	if netC.AdversaryEpoch() != netB.AdversaryEpoch() {
		t.Fatalf("adversary epoch %d after restore, want %d", netC.AdversaryEpoch(), netB.AdversaryEpoch())
	}
	tail := traceOf(t, netC, 30)
	for r := 0; r < 30; r++ {
		for v := range tail[r] {
			if tail[r][v] != full[20+r][v] {
				t.Fatalf("resumed adversarial trace diverged at round %d vertex %d", 21+r, v)
			}
		}
	}
}

// TestCheckpointGraphMismatchRegression pins the fingerprint check:
// before v2, Restore accepted a checkpoint from ANY graph with a
// matching vertex count and silently produced a different execution.
func TestCheckpointGraphMismatchRegression(t *testing.T) {
	gA := graph.GNP(24, 0.2, rng.New(1)).WithName("A")
	gB := graph.GNP(24, 0.2, rng.New(2)).WithName("B") // same n, different edges
	if gA.N() != gB.N() {
		t.Fatalf("test setup: graphs must share n, got %d vs %d", gA.N(), gB.N())
	}
	netA, err := NewNetwork(gA, codecProtocol{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer netA.Close()
	_ = traceOf(t, netA, 10)
	cp, err := netA.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	netB, err := NewNetwork(gB, codecProtocol{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer netB.Close()
	if err := netB.Restore(cp); err == nil {
		t.Fatal("checkpoint from a different graph with matching n accepted (the pre-v2 bug)")
	} else if !strings.Contains(err.Error(), "topologies differ") {
		t.Fatalf("wrong rejection: %v", err)
	}
	// Same structure, different name: accepted (fingerprints ignore names).
	gA2 := graph.GNP(24, 0.2, rng.New(1)).WithName("A-renamed")
	netA2, err := NewNetwork(gA2, codecProtocol{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer netA2.Close()
	if err := netA2.Restore(cp); err != nil {
		t.Fatalf("structurally identical renamed graph rejected: %v", err)
	}
}

// TestCheckpointIdentityRejections covers the remaining header checks:
// protocol mismatch, fault-model mismatch, integrity-hash tampering and
// unsupported format versions.
func TestCheckpointIdentityRejections(t *testing.T) {
	g := graph.Path(6)
	net, err := NewNetwork(g, codecProtocol{}, 1, WithNoise(Noise{PLoss: 0.1}))
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	_ = traceOf(t, net, 5)
	cp, err := net.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	// Fault-model mismatch: same protocol, no noise.
	plain, err := NewNetwork(g, codecProtocol{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if err := plain.Restore(cp); err == nil {
		t.Fatal("checkpoint of a noisy run restored onto a noiseless network")
	}

	// Tampered payload: flip one machine word without re-sealing.
	cp.Machines[0][0]++
	if err := net.Restore(cp); err == nil {
		t.Fatal("tampered checkpoint accepted by Restore")
	}
	if _, err := EncodeSnapshot(cp); err == nil {
		t.Fatal("tampered checkpoint accepted by EncodeSnapshot")
	}
	cp.Machines[0][0]--

	// Old format version.
	cp.FormatVersion = 1
	cp.Seal()
	if err := net.Restore(cp); err == nil {
		t.Fatal("format-version-1 checkpoint accepted")
	}
	cp.FormatVersion = CheckpointFormatVersion
	cp.Seal()
	if err := net.Restore(cp); err != nil {
		t.Fatalf("re-sealed checkpoint rejected: %v", err)
	}
}

// TestCheckpointRewireResume verifies the root-stream/next-stream
// capture: a Rewire executed after a resume must hand joiners exactly
// the random streams the uninterrupted run would have handed them.
func TestCheckpointRewireResume(t *testing.T) {
	g := graph.Cycle(12)
	edits := []graph.Edit{
		{Kind: graph.EditAddVertex},
		{Kind: graph.EditAddVertex},
		{Kind: graph.EditAddEdge, U: 12, V: 0},
		{Kind: graph.EditAddEdge, U: 13, V: 6},
		{Kind: graph.EditDelVertex, U: 3},
	}

	run := func(resumeAt int) [][]Signal {
		net, err := NewNetwork(g, codecProtocol{}, 77)
		if err != nil {
			t.Fatal(err)
		}
		defer net.Close()
		var tr [][]Signal
		step := func() {
			net.Step()
			row := make([]Signal, net.N())
			copy(row, net.sent)
			tr = append(tr, row)
		}
		for r := 1; r <= 10; r++ {
			step()
			if r == resumeAt {
				cp, err := net.Checkpoint()
				if err != nil {
					t.Fatal(err)
				}
				net.Close()
				net2, err := NewNetwork(g, codecProtocol{}, 1234)
				if err != nil {
					t.Fatal(err)
				}
				if err := net2.Restore(cp); err != nil {
					t.Fatal(err)
				}
				net = net2
			}
		}
		g2, mapping, err := graph.ApplyEdits(g, edits)
		if err != nil {
			t.Fatal(err)
		}
		if err := net.Rewire(g2, mapping[:12]); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 10; r++ {
			step()
		}
		return tr
	}

	ref := run(-1)    // uninterrupted
	resumed := run(6) // killed and resumed before the rewire
	if len(ref) != len(resumed) {
		t.Fatalf("trace lengths differ: %d vs %d", len(ref), len(resumed))
	}
	for r := range ref {
		for v := range ref[r] {
			if ref[r][v] != resumed[r][v] {
				t.Fatalf("post-rewire resumed trace diverged at round %d vertex %d", r+1, v)
			}
		}
	}
}

// TestPayloadDigestMatchesReference checks the staged digest against
// FNV-1a (hash/fnv) and CRC-32C (crc32.Checksum) of the canonical
// payload stream built in one piece, across staging-buffer boundaries:
// thousands of rows, a machine row longer than the buffer, and an
// adversary table.
func TestPayloadDigestMatchesReference(t *testing.T) {
	const n = 3000
	c := &Checkpoint{GraphFingerprint: 0xfeed, GraphN: n, GraphM: 4500, Protocol: "p/2ch", Seed: 9,
		NoiseLoss: 0.25, SleepP: 0.5, Round: 77, Machines: make([][]int64, n), Streams: make([][4]uint64, n),
		Adversaries: make([]uint8, n)}
	for v := range c.Machines {
		c.Machines[v] = []int64{int64(v), -int64(v), 1 << 40}
		c.Streams[v] = [4]uint64{uint64(v), 1, 2, math.MaxUint64 - uint64(v)}
		c.Adversaries[v] = uint8(v % 3)
	}
	c.Machines[1234] = make([]int64, 5000)
	for i := range c.Machines[1234] {
		c.Machines[1234][i] = int64(i) * 31
	}
	c.Globals = Globals{NoiseRNG: [4]uint64{1, 2, 3, 4}, RootRNG: [4]uint64{5, 6, 7, 8}, NextStream: n, AdvEpoch: 3}

	le := binary.LittleEndian
	for _, version := range []int{formatV2, CheckpointFormatVersion} {
		c.FormatVersion = version
		var ref []byte
		for _, x := range []uint64{uint64(version), c.GraphFingerprint, n, uint64(c.GraphM), uint64(len(c.Protocol))} {
			ref = le.AppendUint64(ref, x)
		}
		ref = append(ref, c.Protocol...)
		for _, x := range []uint64{c.Seed, math.Float64bits(c.NoiseLoss), math.Float64bits(c.NoiseFalse), math.Float64bits(c.SleepP), uint64(c.Round), n} {
			ref = le.AppendUint64(ref, x)
		}
		for _, m := range c.Machines {
			ref = le.AppendUint64(ref, uint64(len(m)))
			for _, x := range m {
				ref = le.AppendUint64(ref, uint64(x))
			}
		}
		ref = le.AppendUint64(ref, n)
		for _, s := range c.Streams {
			for _, w := range s {
				ref = le.AppendUint64(ref, w)
			}
		}
		for _, rng := range [4][4]uint64{c.NoiseRNG, c.SleepRNG, c.AdvRNG, c.RootRNG} {
			for _, w := range rng {
				ref = le.AppendUint64(ref, w)
			}
		}
		ref = le.AppendUint64(le.AppendUint64(ref, c.NextStream), n)
		ref = le.AppendUint64(append(ref, c.Adversaries...), c.AdvEpoch)

		want := uint64(crc32.Checksum(ref, crc32.MakeTable(crc32.Castagnoli)))
		if version == formatV2 {
			h := fnv.New64a()
			h.Write(ref)
			want = h.Sum64()
		}
		if got := c.payloadHash(); got != want {
			t.Errorf("version %d: staged digest %#x, digest of the %d-byte stream %#x", version, got, len(ref), want)
		}
	}
}
