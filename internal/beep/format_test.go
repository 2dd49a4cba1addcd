package beep

import (
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"testing"
)

// TestCheckpointFormatStable pins the snapshot bytes of the ragged test
// protocol (varint machine rows, wide values) captured from a noisy,
// adversarial network, so every optional section is present: the
// default capture as BCS4 bytes, and a copy sealed at version 2 as the
// BCS3 bytes older builds wrote. The SHA-256 of each encoding and its
// sealed Hash field are fixed constants, and each encoding decodes back
// to the checkpoint it was written from. Algorithm 1's snapshot and
// delta frame are pinned in internal/core.
func TestCheckpointFormatStable(t *testing.T) {
	cp := snapshotTestCheckpoint(t, raggedProtocol{})
	v2 := *cp
	v2.FormatVersion = formatV2
	v2.Seal()
	for _, c := range []struct {
		name     string
		cp       *Checkpoint
		wantSHA  string
		wantHash uint64
	}{
		{"BCS3", &v2, "19666be859526e8cb2559914bc919c64991aef59aca863243b2ac8400895f942", 0x6e34629d46a69853},
		{"BCS4", cp, "44b56d161263a0b20b9451add44a22222b7a0400bd7231c836a7b56ecc13d633", 0xc9295544},
	} {
		enc, err := EncodeSnapshot(c.cp)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(enc)
		if got := hex.EncodeToString(sum[:]); got != c.wantSHA || c.cp.Hash != c.wantHash {
			t.Errorf("ragged %s snapshot: sha256 %s hash %#x, want sha256 %s hash %#x", c.name, got, c.cp.Hash, c.wantSHA, c.wantHash)
		}
		back, err := DecodeSnapshot(enc)
		if err != nil || !reflect.DeepEqual(back, c.cp) {
			t.Errorf("ragged %s snapshot does not decode to its checkpoint (err %v)", c.name, err)
		}
	}
}
