package beep

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// deltaTestNet builds a checkpointable network without fault models
// (the delta path's steady regime).
func deltaTestNet(t *testing.T) *Network {
	t.Helper()
	g := graph.GNP(130, 0.08, rng.New(5))
	net, err := NewNetwork(g, codecProtocol{}, 11)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(net.Close)
	net.RandomizeAll()
	return net
}

// TestCheckpointDeltaBitExact: base checkpoint, targeted mutations,
// delta, apply — the assembled checkpoint must be bit-identical
// (including the resealed hash) to a full checkpoint of the live
// network.
func TestCheckpointDeltaBitExact(t *testing.T) {
	net := deltaTestNet(t)
	for i := 0; i < 5; i++ {
		net.Step()
	}
	base, err := net.Checkpoint() // arms the dirty baseline
	if err != nil {
		t.Fatal(err)
	}
	if net.DirtyAll() {
		t.Fatal("baseline not armed by Checkpoint")
	}
	// Mutate a handful of vertices across different slab words.
	if err := net.Corrupt([]int{3, 64, 65, 129}); err != nil {
		t.Fatal(err)
	}
	if net.DirtyAll() {
		t.Fatal("targeted corruption saturated the dirty mask")
	}
	if w := net.DirtyWords(); w != 3 {
		t.Fatalf("dirty words = %d, want 3 (words 0, 1, 2)", w)
	}
	d, err := net.CheckpointDelta(base.Hash)
	if err != nil {
		t.Fatal(err)
	}
	if d.ParentHash != base.Hash {
		t.Fatalf("delta parent %#x, want %#x", d.ParentHash, base.Hash)
	}
	if err := ApplyDelta(base, d); err != nil {
		t.Fatal(err)
	}
	base.Seal()
	full, err := net.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, full) {
		t.Fatal("base+delta does not reproduce the full checkpoint")
	}
	if base.Hash != full.Hash {
		t.Fatalf("assembled hash %#x, full hash %#x", base.Hash, full.Hash)
	}
}

// TestCheckpointDeltaChain: several deltas chained across corrupt
// bursts, applied in order, equal the final full checkpoint.
func TestCheckpointDeltaChain(t *testing.T) {
	net := deltaTestNet(t)
	base, err := net.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	cur := base.Hash
	var chain []*Delta
	faults := rng.New(99)
	for i := 0; i < 4; i++ {
		verts := []int{faults.Intn(net.N()), faults.Intn(net.N())}
		if err := net.Corrupt(verts); err != nil {
			t.Fatal(err)
		}
		d, err := net.CheckpointDelta(cur)
		if err != nil {
			t.Fatal(err)
		}
		cur = d.Hash
		chain = append(chain, d)
	}
	for _, d := range chain {
		if err := ApplyDelta(base, d); err != nil {
			t.Fatal(err)
		}
	}
	base.Seal()
	full, err := net.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, full) {
		t.Fatal("chained deltas do not reproduce the full checkpoint")
	}
}

// TestCheckpointDeltaRefusals: the delta capture fails without a
// baseline, after dense rounds (everything dirty), and after Restore.
func TestCheckpointDeltaRefusals(t *testing.T) {
	net := deltaTestNet(t)
	if _, err := net.CheckpointDelta(0); err == nil {
		t.Fatal("delta with no baseline accepted")
	}
	cp, err := net.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	// codecProtocol has no flat kernels, so every round is dense and
	// must saturate the mask.
	net.Step()
	if !net.DirtyAll() {
		t.Fatal("dense round did not mark everything dirty")
	}
	if _, err := net.CheckpointDelta(cp.Hash); err == nil {
		t.Fatal("delta with everything dirty accepted")
	}
	// Re-arm, then Restore: the baseline must be void again.
	if _, err := net.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if net.DirtyAll() {
		t.Fatal("baseline not re-armed")
	}
	if err := net.Restore(cp); err != nil {
		t.Fatal(err)
	}
	if !net.DirtyAll() {
		t.Fatal("Restore did not void the delta baseline")
	}
}

// TestCheckpointDeltaAdversaryTable: an adversary-set change rides the
// next delta as a full table; unchanged sets are omitted.
func TestCheckpointDeltaAdversaryTable(t *testing.T) {
	g := graph.GNP(70, 0.1, rng.New(5))
	net, err := NewNetwork(g, codecProtocol{}, 11, WithAdversaries(AdvJammer, []int{2}))
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	base, err := net.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Corrupt([]int{5}); err != nil {
		t.Fatal(err)
	}
	d1, err := net.CheckpointDelta(base.Hash)
	if err != nil {
		t.Fatal(err)
	}
	if d1.Adversaries != nil {
		t.Fatal("unchanged adversary set carried in delta")
	}
	net.setAdversaries(make([]uint8, net.N())) // drop all adversaries
	d2, err := net.CheckpointDelta(d1.Hash)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Adversaries == nil {
		t.Fatal("adversary-set change not carried in delta")
	}
	if err := ApplyDelta(base, d1); err != nil {
		t.Fatal(err)
	}
	if err := ApplyDelta(base, d2); err != nil {
		t.Fatal(err)
	}
	base.Seal()
	full, err := net.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, full) {
		t.Fatal("adversary-table delta does not reproduce the full checkpoint")
	}
	if full.Adversaries != nil {
		t.Fatal("dropped adversary set still in full checkpoint")
	}
}

// TestDeltaFrameRoundTrip: the binary frame codec reproduces the delta
// exactly and streams frames back to back.
func TestDeltaFrameRoundTrip(t *testing.T) {
	net := deltaTestNet(t)
	base, err := net.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Corrupt([]int{1, 100}); err != nil {
		t.Fatal(err)
	}
	d1, err := net.CheckpointDelta(base.Hash)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Corrupt([]int{64}); err != nil {
		t.Fatal(err)
	}
	d2, err := net.CheckpointDelta(d1.Hash)
	if err != nil {
		t.Fatal(err)
	}
	f1, err := EncodeDelta(d1)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := EncodeDelta(d2)
	if err != nil {
		t.Fatal(err)
	}
	stream := append(append([]byte(nil), f1...), f2...)
	g1, rest, err := DecodeDeltaFrame(stream)
	if err != nil {
		t.Fatal(err)
	}
	g2, rest, err := DecodeDeltaFrame(rest)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d bytes left after two frames", len(rest))
	}
	if !reflect.DeepEqual(g1, d1) || !reflect.DeepEqual(g2, d2) {
		t.Fatal("frame round trip not identical")
	}
}

// TestDeltaFrameErrors: torn tails are distinguishable from
// corruption, and every corruption is an error, never a panic.
func TestDeltaFrameErrors(t *testing.T) {
	net := deltaTestNet(t)
	base, err := net.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Corrupt([]int{1}); err != nil {
		t.Fatal(err)
	}
	d, err := net.CheckpointDelta(base.Hash)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := EncodeDelta(d)
	if err != nil {
		t.Fatal(err)
	}

	for cut := 0; cut < len(frame); cut++ {
		_, _, err := DecodeDeltaFrame(frame[:cut])
		if err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
	}
	// A tail cut is a torn frame (recoverable); anything with bad magic
	// is not.
	if _, _, err := DecodeDeltaFrame(frame[:len(frame)-1]); !errorsIsTorn(err) {
		t.Fatalf("tail truncation not reported as torn frame: %v", err)
	}
	bad := append([]byte(nil), frame...)
	bad[0] = 'X'
	if _, _, err := DecodeDeltaFrame(bad); err == nil || errorsIsTorn(err) {
		t.Fatalf("bad magic not a hard error: %v", err)
	}
	// Flip a payload byte: complete frame, failed hash — hard error.
	tam := append([]byte(nil), frame...)
	tam[len(tam)-3] ^= 0x10
	if _, _, err := DecodeDeltaFrame(tam); err == nil || errorsIsTorn(err) {
		t.Fatalf("tampered payload not a hard error: %v", err)
	}
}

func errorsIsTorn(err error) bool {
	return err != nil && bytes.Contains([]byte(err.Error()), []byte("torn delta frame"))
}

// TestApplyDeltaRejections: identity and shape violations leave the
// checkpoint untouched.
func TestApplyDeltaRejections(t *testing.T) {
	net := deltaTestNet(t)
	base, err := net.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Corrupt([]int{1}); err != nil {
		t.Fatal(err)
	}
	d, err := net.CheckpointDelta(base.Hash)
	if err != nil {
		t.Fatal(err)
	}
	pristine, err := decodeCheckpointJSON(mustJSON(t, base))
	if err != nil {
		t.Fatal(err)
	}

	wrongProto := *d
	wrongProto.Protocol = "other/1ch"
	wrongProto.Seal()
	if err := ApplyDelta(base, &wrongProto); err == nil {
		t.Fatal("protocol mismatch accepted")
	}
	wrongGraph := *d
	wrongGraph.GraphFingerprint ^= 1
	wrongGraph.Seal()
	if err := ApplyDelta(base, &wrongGraph); err == nil {
		t.Fatal("graph mismatch accepted")
	}
	outOfRange := *d
	outOfRange.Words = append([]int32(nil), d.Words...)
	outOfRange.Words[0] = 1 << 20
	outOfRange.Seal()
	if err := ApplyDelta(base, &outOfRange); err == nil {
		t.Fatal("out-of-range word accepted")
	}
	unsealed := *d
	unsealed.Round++
	if err := ApplyDelta(base, &unsealed); err == nil {
		t.Fatal("unsealed delta accepted")
	}
	if !reflect.DeepEqual(base, pristine) {
		t.Fatal("rejected deltas mutated the checkpoint")
	}
}

// mustJSON encodes c in the v2 JSON format older builds wrote; the v2
// reader behind DecodeCheckpointAuto is kept for their files.
func mustJSON(t testing.TB, c *Checkpoint) []byte {
	t.Helper()
	b, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
