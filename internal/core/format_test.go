package core

import (
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"testing"

	"repro/internal/beep"
	"repro/internal/graph"
	"repro/internal/rng"
)

// TestCheckpointFormatStable pins the on-disk bytes of Algorithm 1's
// checkpoints: a snapshot of a stabilized network and the delta frame
// of the dirty words a local fault and three rounds leave behind, in
// both versions. The default capture is pinned as BCS4/BCD4 bytes; a
// copy sealed at version 2 (the delta re-chained to the version-2
// base's hash) is pinned as the BCS3/BCD3 bytes older builds wrote.
// Both the SHA-256 of each encoding and its sealed Hash field are fixed
// constants, so any change to capture, sealing or encoding that moves a
// byte fails here, and every pinned encoding must decode back to the
// checkpoint or delta it was written from: files written by older
// builds must keep restoring.
func TestCheckpointFormatStable(t *testing.T) {
	const (
		snapSHA    = "355a3d350c1a6a78991a5bb45b9bce152ec30648a11ab5227ffaa10ae0ef23f3"
		snapHash   = uint64(0x2c51ebe4e7aca4b8)
		frameSHA   = "eae282d2be238b04601815b9f5e5f934e2c2d5aef1874ec76a4cf4529cf58cb9"
		frameHash  = uint64(0x52b4a638859aaa99)
		snap4SHA   = "6b802aa5fac797aa8aed1d1729e44057352b452f780d7665152d225dc847bd66"
		snap4Hash  = uint64(0xe2028976)
		frame4SHA  = "ac9ab4396ce383e77ded3517e15f06e5eee71f1e4814ebb258816855295d9b60"
		frame4Hash = uint64(0x212e7e97)
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
	v2 := *base
	v2.FormatVersion = 2
	v2.Seal()
	d2 := *d
	d2.FormatVersion = 2
	d2.ParentHash = v2.Hash
	d2.Seal()
	for _, c := range []struct {
		name     string
		want     any // *beep.Checkpoint or *beep.Delta
		wantSHA  string
		wantHash uint64
	}{
		{"BCS3 snapshot", &v2, snapSHA, snapHash},
		{"BCD3 frame", &d2, frameSHA, frameHash},
		{"BCS4 snapshot", base, snap4SHA, snap4Hash},
		{"BCD4 frame", d, frame4SHA, frame4Hash},
	} {
		var (
			enc  []byte
			hash uint64
			back any
		)
		switch v := c.want.(type) {
		case *beep.Checkpoint:
			hash = v.Hash
			if enc, err = beep.EncodeSnapshot(v); err == nil {
				back, err = beep.DecodeSnapshot(enc)
			}
		case *beep.Delta:
			hash = v.Hash
			if enc, err = beep.EncodeDelta(v); err == nil {
				back, _, err = beep.DecodeDeltaFrame(enc)
			}
		}
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		sum := sha256.Sum256(enc)
		if got := hex.EncodeToString(sum[:]); got != c.wantSHA || hash != c.wantHash {
			t.Errorf("%s: sha256 %s hash %#x, want sha256 %s hash %#x", c.name, got, hash, c.wantSHA, c.wantHash)
		}
		if !reflect.DeepEqual(back, c.want) {
			t.Errorf("%s: decodes to another value than it was encoded from", c.name)
		}
	}
}
