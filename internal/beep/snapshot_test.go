package beep

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// raggedProtocol exercises the snapshot codec's variable-stride
// fallback: even vertices carry one state integer, odd vertices three
// (one of which exceeds int32).
type raggedProtocol struct{}

func (raggedProtocol) Channels() int { return 1 }
func (raggedProtocol) NewMachine(v int, _ graph.Topology) Machine {
	return &raggedMachine{wide: v%2 == 1}
}

type raggedMachine struct {
	wide   bool
	rounds int64
}

func (m *raggedMachine) Emit(src *rng.Source) Signal {
	if src.Coin() {
		return Chan1
	}
	return Silent
}
func (m *raggedMachine) Update(_, _ Signal)        { m.rounds++ }
func (m *raggedMachine) Randomize(src *rng.Source) { m.rounds = int64(src.Intn(5)) }
func (m *raggedMachine) AppendState(dst []int64) []int64 {
	if m.wide {
		return append(dst, m.rounds, -m.rounds, int64(1)<<40)
	}
	return append(dst, m.rounds)
}
func (m *raggedMachine) DecodeState(state []int64) error {
	m.rounds = state[0]
	return nil
}

// snapshotTestCheckpoint captures a checkpoint from a live noisy +
// adversarial network so every optional section (aux RNGs, adversary
// table) is populated.
func snapshotTestCheckpoint(t testing.TB, proto Protocol) *Checkpoint {
	t.Helper()
	g := graph.GNP(37, 0.2, rng.New(9))
	net, err := NewNetwork(g, proto, 4,
		WithNoise(Noise{PLoss: 0.02, PFalse: 0.01}),
		WithAdversaries(AdvJammer, []int{1, 5, 20}))
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	net.RandomizeAll()
	for i := 0; i < 9; i++ {
		net.Step()
	}
	cp, err := net.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

func TestSnapshotRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name  string
		proto Protocol
	}{
		{"uniform", codecProtocol{}},
		{"ragged", raggedProtocol{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cp := snapshotTestCheckpoint(t, tc.proto)
			buf, err := EncodeSnapshot(cp)
			if err != nil {
				t.Fatal(err)
			}
			got, err := DecodeSnapshot(buf)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, cp) {
				t.Fatalf("binary round trip not identical:\n got %+v\nwant %+v", got, cp)
			}
			// The Hash field must be bit-identical to the v2 JSON
			// encoding of the same state: chains and wire messages
			// reference it across formats.
			viaJSON, err := DecodeCheckpointAuto(mustJSON(t, cp))
			if err != nil {
				t.Fatal(err)
			}
			if viaJSON.Hash != got.Hash {
				t.Fatalf("hash differs across formats: json %#x binary %#x", viaJSON.Hash, got.Hash)
			}
		})
	}
}

func TestSnapshotWideValues(t *testing.T) {
	cp := snapshotTestCheckpoint(t, codecProtocol{})
	// Push one state value outside int32 so the encoder must take the
	// 64-bit uniform path, then reseal.
	cp.Machines[3][1] = int64(1)<<40 + 17
	cp.Machines[3][0] = -(int64(1)<<35 + 5)
	cp.Seal()
	buf, err := EncodeSnapshot(cp)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSnapshot(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, cp) {
		t.Fatal("64-bit value round trip not identical")
	}
}

func TestSnapshotAutoDetect(t *testing.T) {
	cp := snapshotTestCheckpoint(t, codecProtocol{})

	jsonBuf := mustJSON(t, cp)
	binBuf, err := EncodeSnapshot(cp)
	if err != nil {
		t.Fatal(err)
	}

	fromJSON, err := DecodeCheckpointAuto(jsonBuf)
	if err != nil {
		t.Fatalf("auto-detect rejected v2 JSON: %v", err)
	}
	fromBin, err := ReadSnapshot(bytes.NewReader(binBuf))
	if err != nil {
		t.Fatalf("auto-detect rejected a binary snapshot: %v", err)
	}
	if fromJSON.Hash != cp.Hash || fromBin.Hash != cp.Hash {
		t.Fatalf("auto-detected hashes diverge: json %#x bin %#x want %#x",
			fromJSON.Hash, fromBin.Hash, cp.Hash)
	}
	if !reflect.DeepEqual(fromBin, fromJSON) {
		t.Fatal("auto-detected decodings differ between formats")
	}
}

func TestSnapshotResumeEquivalence(t *testing.T) {
	g := graph.GNP(40, 0.1, rng.New(3))
	netA, err := NewNetwork(g, codecProtocol{}, 7, WithNoise(Noise{PLoss: 0.05, PFalse: 0.02}))
	if err != nil {
		t.Fatal(err)
	}
	defer netA.Close()
	full := traceOf(t, netA, 60)

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
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, cp); err != nil {
		t.Fatal(err)
	}
	cp2, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}

	netC, err := NewNetwork(g, codecProtocol{}, 999, WithNoise(Noise{PLoss: 0.05, PFalse: 0.02}))
	if err != nil {
		t.Fatal(err)
	}
	defer netC.Close()
	if err := netC.Restore(cp2); err != nil {
		t.Fatal(err)
	}
	tail := traceOf(t, netC, 30)
	for r := 0; r < 30; r++ {
		for v := range tail[r] {
			if tail[r][v] != full[30+r][v] {
				t.Fatalf("binary-snapshot resume diverged at round %d vertex %d", 31+r, v)
			}
		}
	}
}

func TestSnapshotCorruptionRejected(t *testing.T) {
	cp := snapshotTestCheckpoint(t, codecProtocol{})
	buf, err := EncodeSnapshot(cp)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"truncated header", func(b []byte) []byte { return b[:50] }},
		{"truncated body", func(b []byte) []byte { return b[:len(b)-7] }},
		{"trailing bytes", func(b []byte) []byte { return append(b, 0xAA) }},
		{"flipped state bit", func(b []byte) []byte { b[len(b)-20] ^= 0x40; return b }},
		{"flipped hash", func(b []byte) []byte { b[84] ^= 0x01; return b }},
		{"wrong magic", func(b []byte) []byte { b[3] = '9'; return b }},
		{"empty", func([]byte) []byte { return nil }},
		{"unknown flag bit", func(b []byte) []byte { b[92] |= 0x80; return b }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mut := tc.mutate(append([]byte(nil), buf...))
			if _, err := DecodeSnapshot(mut); err == nil {
				t.Fatal("corrupted snapshot accepted")
			}
		})
	}
	// A ragged section has stride 0, and its int32 flag follows its
	// values. The hash covers neither field, so another header would
	// decode to the same rows but is not one the encoder writes.
	ragged, err := EncodeSnapshot(snapshotTestCheckpoint(t, raggedProtocol{}))
	if err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func([]byte){
		"ragged stride":     func(b []byte) { b[93] = 2 },
		"ragged int32 flag": func(b []byte) { b[92] ^= snapFlagVals32 },
	} {
		mut := append([]byte(nil), ragged...)
		mutate(mut)
		if _, err := DecodeSnapshot(mut); err == nil {
			t.Errorf("%s: non-canonical snapshot accepted", name)
		}
	}
}

// FuzzReadSnapshot is the binary-format analogue of FuzzReadCheckpoint:
// whatever bytes arrive, DecodeCheckpointAuto returns an error or a
// checkpoint that Validate accepts and Restore handles cleanly — never
// a panic, and never an allocation sized by an unvalidated header
// field.
func FuzzReadSnapshot(f *testing.F) {
	g := graph.GNP(12, 0.3, rng.New(9))
	net, err := NewNetwork(g, codecProtocol{}, 4,
		WithNoise(Noise{PLoss: 0.02, PFalse: 0.01}),
		WithAdversaries(AdvJammer, []int{1, 5}))
	if err != nil {
		f.Fatal(err)
	}
	defer net.Close()
	for i := 0; i < 8; i++ {
		net.Step()
	}
	cp, err := net.Checkpoint()
	if err != nil {
		f.Fatal(err)
	}
	// The seeds come in both versions: the default BCS4 capture, and a
	// copy sealed at version 2 in the BCS3 bytes older builds wrote.
	v2 := *cp
	v2.FormatVersion = formatV2
	v2.Seal()
	for _, c := range []*Checkpoint{cp, &v2} {
		valid, err := EncodeSnapshot(c)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(valid)
		f.Add(valid[:len(valid)/2])
		f.Add(valid[:snapHeaderFixed])
		f.Add(valid[:4])
		corrupt := func(off int, b byte) []byte {
			c := append([]byte(nil), valid...)
			c[off] ^= b
			return c
		}
		f.Add(corrupt(3, 0x07))         // the magic's version digit
		f.Add(corrupt(12, 0xFF))        // graphN
		f.Add(corrupt(84, 0x01))        // hash
		f.Add(corrupt(92, 0x07))        // flags
		f.Add(corrupt(93, 0xFF))        // stride
		f.Add(corrupt(97, 0xFF))        // protoLen
		f.Add(corrupt(len(valid)-1, 1)) // last adversary byte
		f.Add(append(valid, 0))         // trailing byte
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := DecodeCheckpointAuto(data)
		if err != nil {
			return
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("DecodeCheckpointAuto accepted a checkpoint Validate rejects: %v", err)
		}
		target, err := NewNetwork(g, codecProtocol{}, 4,
			WithNoise(Noise{PLoss: 0.02, PFalse: 0.01}))
		if err != nil {
			t.Fatal(err)
		}
		defer target.Close()
		_ = target.Restore(c)
	})
}
