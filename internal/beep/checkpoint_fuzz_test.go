package beep

import (
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// FuzzReadCheckpoint asserts the hard constraint of the v2 JSON
// checkpoint reader (read-only, kept for files older builds wrote):
// whatever bytes arrive — malformed JSON, truncated payloads,
// wrong-length state vectors, corrupted integrity hashes — the reader
// returns an error or a checkpoint that Validate and Restore accept
// or reject cleanly. It must never panic. The corpus seeds a genuine
// checkpoint (captured from a live adversarial + noisy network) plus
// targeted corruptions of it.
func FuzzReadCheckpoint(f *testing.F) {
	// A real checkpoint as the structural seed.
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
	valid := string(mustJSON(f, cp))

	f.Add(valid)
	f.Add(valid[:len(valid)/2])                                 // truncated payload
	f.Add(strings.Replace(valid, `"hash":`, `"hash":1`, 1))     // corrupted hash
	f.Add(strings.Replace(valid, `"round":8`, `"round":-3`, 1)) // negative round
	f.Add(strings.Replace(valid, `"formatVersion":2`, `"formatVersion":1`, 1))
	f.Add(strings.Replace(valid, `"machines":[[`, `"machines":[[9,9,9,9,`, 1)) // wrong-length state vector
	f.Add(strings.Replace(valid, `"streams":[[`, `"streams":[[`, 1))
	f.Add(`{}`)
	f.Add(`{"formatVersion":2,"machines":[[1]],"streams":[]}`)
	f.Add(`{"formatVersion":2,"graphN":1,"machines":[[1,2]],"streams":[[1,2,3,4]],"adversaries":"AA=="}`)
	f.Add(`null`)
	f.Add(``)
	f.Add(`[1,2,3]`)

	f.Fuzz(func(t *testing.T, data string) {
		c, err := decodeCheckpointJSON([]byte(data))
		if err != nil {
			return // rejection is always fine; panics are not
		}
		// Anything the reader accepts must be internally consistent…
		if err := c.Validate(); err != nil {
			t.Fatalf("the v2 reader accepted a checkpoint Validate rejects: %v", err)
		}
		// …and survive a restore attempt (success or clean error) onto a
		// live network without panicking.
		target, err := NewNetwork(g, codecProtocol{}, 4,
			WithNoise(Noise{PLoss: 0.02, PFalse: 0.01}))
		if err != nil {
			t.Fatal(err)
		}
		defer target.Close()
		_ = target.Restore(c)
	})
}
