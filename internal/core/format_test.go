package core

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/beep"
	"repro/internal/graph"
	"repro/internal/rng"
)

// TestCheckpointFormatStable pins the on-disk bytes of Algorithm 1's
// checkpoints: a BCS3 snapshot of a stabilized network and the BCD3
// frame of the dirty words a local fault and three rounds leave behind.
// Both the SHA-256 of the encoding and the sealed Hash field are fixed
// constants, so any change to capture, sealing or encoding that moves a
// byte fails here. Files written by older builds must keep restoring.
func TestCheckpointFormatStable(t *testing.T) {
	const (
		snapSHA   = "355a3d350c1a6a78991a5bb45b9bce152ec30648a11ab5227ffaa10ae0ef23f3"
		snapHash  = uint64(0x2c51ebe4e7aca4b8)
		frameSHA  = "eae282d2be238b04601815b9f5e5f934e2c2d5aef1874ec76a4cf4529cf58cb9"
		frameHash = uint64(0x52b4a638859aaa99)
	)
	g := graph.GNP(300, 0.03, rng.New(21))
	net, err := beep.NewNetwork(g, NewAlg1(KnownMaxDegreeExact(DefaultC1KnownDelta)), 8)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	if err := ApplyInit(net, InitRandom); err != nil {
		t.Fatal(err)
	}
	if _, err := Stabilize(net, nil, 0); err != nil {
		t.Fatal(err)
	}
	base, err := net.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := beep.EncodeSnapshot(base)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Corrupt([]int{3, 77, 150, 299}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		net.Step()
	}
	d, err := net.CheckpointDelta(base.Hash)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := beep.EncodeDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name     string
		enc      []byte
		hash     uint64
		wantSHA  string
		wantHash uint64
	}{
		{"BCS3 snapshot", snap, base.Hash, snapSHA, snapHash},
		{"BCD3 frame", frame, d.Hash, frameSHA, frameHash},
	} {
		sum := sha256.Sum256(c.enc)
		if got := hex.EncodeToString(sum[:]); got != c.wantSHA || c.hash != c.wantHash {
			t.Errorf("%s: sha256 %s hash %#x, want sha256 %s hash %#x", c.name, got, c.hash, c.wantSHA, c.wantHash)
		}
	}
}
