package beep

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestCheckpointFormatStable pins the BCS3 bytes of the ragged test
// protocol (varint machine rows, wide values) captured from a noisy,
// adversarial network, so every optional section is present: the
// SHA-256 of the encoding and the sealed Hash field are fixed
// constants. Algorithm 1's snapshot and delta frame are pinned in
// internal/core.
func TestCheckpointFormatStable(t *testing.T) {
	const (
		wantSHA  = "19666be859526e8cb2559914bc919c64991aef59aca863243b2ac8400895f942"
		wantHash = uint64(0x6e34629d46a69853)
	)
	cp := snapshotTestCheckpoint(t, raggedProtocol{})
	enc, err := EncodeSnapshot(cp)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(enc)
	if got := hex.EncodeToString(sum[:]); got != wantSHA || cp.Hash != wantHash {
		t.Fatalf("ragged snapshot: sha256 %s hash %#x, want sha256 %s hash %#x", got, cp.Hash, wantSHA, wantHash)
	}
}
