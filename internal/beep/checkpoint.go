package beep

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"

	"repro/internal/graph"
)

// StateCodec is implemented by machines that support checkpointing:
// EncodeState serializes the complete mutable state, DecodeState
// restores it. Together with the per-vertex random-stream states this
// makes executions exactly resumable.
type StateCodec interface {
	// EncodeState returns the machine's mutable state as integers.
	EncodeState() []int64
	// DecodeState restores a state produced by EncodeState; it returns
	// an error for malformed input.
	DecodeState(state []int64) error
}

// CheckpointFormatVersion is the current on-disk checkpoint format.
// Version 2 added the identity header (graph fingerprint, protocol,
// seed, noise/sleep parameters), the adversary state (policy array,
// dedicated stream, epoch), the root-stream/next-stream state needed
// for exact joiner randomness after a resumed Rewire, and the FNV-1a
// integrity hash. Version-1 checkpoints (which silently dropped all of
// that and could diverge on resume) are rejected.
const CheckpointFormatVersion = 2

// Checkpoint is a serializable snapshot of a running network: an
// identity header binding it to the (graph, protocol, seed, fault
// model) it was captured from, the full execution state (round counter,
// every machine's state, every random stream), and an integrity hash
// over the payload. EncodeSnapshot and DecodeCheckpointAuto enforce the
// hash at the serialization boundary and Network.Restore enforces the
// identity header, so a checkpoint can neither be corrupted in flight
// nor restored onto the wrong run without an error. (The JSON tags are
// the v2 format, which this build still reads.)
type Checkpoint struct {
	// FormatVersion is CheckpointFormatVersion at capture time.
	FormatVersion int `json:"formatVersion"`

	// GraphFingerprint, GraphN and GraphM identify the topology the
	// checkpoint was captured on (see graph.Graph.Fingerprint). Restore
	// rejects a checkpoint whose fingerprint does not match the target
	// network's graph: machine states are positional, so restoring onto
	// any other topology — even one with the same vertex count — would
	// silently produce a different execution.
	GraphFingerprint uint64 `json:"graphFingerprint"`
	GraphN           int    `json:"graphN"`
	GraphM           int    `json:"graphM"`
	// Protocol is the protocol's type identity (including channel
	// count); Restore rejects mismatches.
	Protocol string `json:"protocol"`
	// Seed is the root seed of the captured network, recorded for
	// provenance. Restore does not require the target network to share
	// it: the checkpoint carries every stream state, including the root
	// stream joiner randomness is drawn from, so it overrides the
	// target's seed entirely.
	Seed uint64 `json:"seed"`
	// NoiseLoss, NoiseFalse and SleepP are the fault-model parameters
	// of the captured network. They are construction-time options, not
	// state, so Restore validates that the target network was built
	// with the same values — resuming a noisy run on a noiseless
	// network would diverge immediately.
	NoiseLoss  float64 `json:"noiseLoss,omitempty"`
	NoiseFalse float64 `json:"noiseFalse,omitempty"`
	SleepP     float64 `json:"sleepP,omitempty"`

	// Round is the number of completed rounds.
	Round int `json:"round"`
	// Machines and Streams hold, per vertex, the machine state and the
	// private random-stream state.
	Machines [][]int64   `json:"machines"`
	Streams  [][4]uint64 `json:"streams"`
	// NoiseRNG, SleepRNG and AdvRNG are the dedicated fault-model
	// stream states.
	NoiseRNG [4]uint64 `json:"noiseRng"`
	SleepRNG [4]uint64 `json:"sleepRng"`
	AdvRNG   [4]uint64 `json:"advRng"`
	// RootRNG and NextStream capture the child-stream allocator:
	// RootRNG is the (never-advanced) root stream and NextStream the
	// next unused child index, so vertices joining through Rewire after
	// a resume draw exactly the streams they would have drawn in the
	// uninterrupted run.
	RootRNG    [4]uint64 `json:"rootRng"`
	NextStream uint64    `json:"nextStream"`
	// Adversaries is the per-vertex policy array (one byte per vertex,
	// 0 = cooperating; see AdversaryPolicy), nil when no adversaries
	// are installed. AdvEpoch is the epoch counter legality observers
	// key their masks on.
	Adversaries []uint8 `json:"adversaries,omitempty"`
	AdvEpoch    uint64  `json:"advEpoch"`

	// Hash is the FNV-1a digest of every field above, in canonical
	// order. EncodeSnapshot refuses to persist a checkpoint whose hash
	// does not match its payload, and the decoders and Restore reject
	// one whose payload does not match its hash.
	Hash uint64 `json:"hash"`
}

// protocolID derives the protocol identity recorded in checkpoints.
func protocolID(p Protocol) string {
	return fmt.Sprintf("%T/%dch", p, p.Channels())
}

// payloadHash computes the canonical FNV-1a digest of the checkpoint's
// payload (everything except Hash itself).
func (c *Checkpoint) payloadHash() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	put(uint64(c.FormatVersion))
	put(c.GraphFingerprint)
	put(uint64(c.GraphN))
	put(uint64(c.GraphM))
	put(uint64(len(c.Protocol)))
	io.WriteString(h, c.Protocol)
	put(c.Seed)
	put(math.Float64bits(c.NoiseLoss))
	put(math.Float64bits(c.NoiseFalse))
	put(math.Float64bits(c.SleepP))
	put(uint64(c.Round))
	put(uint64(len(c.Machines)))
	for _, m := range c.Machines {
		put(uint64(len(m)))
		for _, s := range m {
			put(uint64(s))
		}
	}
	put(uint64(len(c.Streams)))
	for _, s := range c.Streams {
		for _, w := range s {
			put(w)
		}
	}
	for _, w := range c.NoiseRNG {
		put(w)
	}
	for _, w := range c.SleepRNG {
		put(w)
	}
	for _, w := range c.AdvRNG {
		put(w)
	}
	for _, w := range c.RootRNG {
		put(w)
	}
	put(c.NextStream)
	put(uint64(len(c.Adversaries)))
	h.Write(c.Adversaries)
	put(c.AdvEpoch)
	return h.Sum64()
}

// Seal (re)computes the integrity hash over the current payload. It is
// called by Network.Checkpoint; callers that build or mutate a
// Checkpoint by hand must re-seal it or Write/Restore will reject it.
func (c *Checkpoint) Seal() { c.Hash = c.payloadHash() }

// Validate checks the checkpoint's internal consistency: format
// version, non-negative round, matching vector lengths and integrity
// hash. It never panics, whatever the contents.
func (c *Checkpoint) Validate() error {
	if c == nil {
		return fmt.Errorf("beep: nil checkpoint")
	}
	if c.FormatVersion != CheckpointFormatVersion {
		return fmt.Errorf("beep: checkpoint format version %d, this build reads only version %d",
			c.FormatVersion, CheckpointFormatVersion)
	}
	if c.Round < 0 {
		return fmt.Errorf("beep: checkpoint with negative round %d", c.Round)
	}
	if c.GraphN != len(c.Machines) {
		return fmt.Errorf("beep: checkpoint header says %d vertices, payload has %d machine states",
			c.GraphN, len(c.Machines))
	}
	if len(c.Machines) != len(c.Streams) {
		return fmt.Errorf("beep: checkpoint has %d machine states but %d stream states",
			len(c.Machines), len(c.Streams))
	}
	if c.Adversaries != nil && len(c.Adversaries) != len(c.Machines) {
		return fmt.Errorf("beep: checkpoint adversary mask covers %d vertices, payload has %d",
			len(c.Adversaries), len(c.Machines))
	}
	if got := c.payloadHash(); got != c.Hash {
		return fmt.Errorf("beep: checkpoint integrity hash mismatch (payload %#x, header %#x): corrupted or tampered",
			got, c.Hash)
	}
	return nil
}

// graphFingerprint returns the topology fingerprint stamped into
// checkpoints and deltas, computing it on first use and caching it
// until Rewire replaces the graph (the hash walks every edge — at
// delta-checkpoint cadence an uncached recompute would cost more than
// the delta itself).
func (n *Network) graphFingerprint() uint64 {
	if !n.gfpOK {
		n.gfp = graph.FingerprintOf(n.g)
		n.gfpOK = true
	}
	return n.gfp
}

// Checkpoint captures the current state of the network, sealed with the
// integrity hash. It returns an error if any machine does not implement
// StateCodec, or if the network is poisoned by a contained machine
// panic (the state would be a mid-phase torso, not a round boundary).
func (n *Network) Checkpoint() (*Checkpoint, error) {
	if n.failed != nil {
		return nil, fmt.Errorf("beep: checkpoint of failed network: %w", n.failed)
	}
	c := &Checkpoint{
		FormatVersion:    CheckpointFormatVersion,
		GraphFingerprint: n.graphFingerprint(),
		GraphN:           n.N(),
		GraphM:           n.g.M(),
		Protocol:         protocolID(n.proto),
		Seed:             n.seed,
		NoiseLoss:        n.noise.PLoss,
		NoiseFalse:       n.noise.PFalse,
		SleepP:           n.sleep.P,
		Round:            n.round,
		Machines:         make([][]int64, n.N()),
		Streams:          make([][4]uint64, n.N()),
		NoiseRNG:         n.noiseSrc.State(),
		SleepRNG:         n.sleepSrc.State(),
		AdvRNG:           n.advSrc.State(),
		RootRNG:          n.root.State(),
		NextStream:       n.nextStream,
		AdvEpoch:         n.advEpoch,
	}
	if n.adv != nil {
		c.Adversaries = append([]uint8(nil), n.adv...)
	}
	for v, m := range n.machines {
		codec, ok := m.(StateCodec)
		if !ok {
			return nil, fmt.Errorf("beep: machine %T of vertex %d does not support checkpointing", m, v)
		}
		c.Machines[v] = codec.EncodeState()
		c.Streams[v] = n.srcs[v].State()
	}
	c.Seal()
	// This checkpoint is a complete baseline: dirty tracking restarts
	// from it, so a later CheckpointDelta captures exactly the words
	// that moved since this call (see delta.go).
	n.ckDirty.rebaseline(n.N())
	n.ckDirty.adv = false
	return c, nil
}

// Restore installs a checkpoint captured on a network with the same
// graph (validated by fingerprint), protocol and fault-model
// parameters. Subsequent rounds reproduce the original execution
// exactly — including adversary behavior and post-resume Rewire joiner
// randomness, which the pre-v2 format silently lost. The seed of the
// target network need not match: the checkpoint carries every stream
// state. On any validation or decode error the network is left in its
// prior state (machine decodes are rolled back).
func (n *Network) Restore(c *Checkpoint) error {
	if err := c.Validate(); err != nil {
		return err
	}
	if len(c.Machines) != n.N() {
		return fmt.Errorf("beep: checkpoint for %d vertices restored onto %d", len(c.Machines), n.N())
	}
	if got := n.graphFingerprint(); got != c.GraphFingerprint {
		return fmt.Errorf("beep: checkpoint captured on graph %#x (n=%d m=%d), target network runs %#x (n=%d m=%d): topologies differ",
			c.GraphFingerprint, c.GraphN, c.GraphM, got, n.N(), n.g.M())
	}
	if got := protocolID(n.proto); got != c.Protocol {
		return fmt.Errorf("beep: checkpoint captured under protocol %s, target network runs %s", c.Protocol, got)
	}
	if c.NoiseLoss != n.noise.PLoss || c.NoiseFalse != n.noise.PFalse || c.SleepP != n.sleep.P {
		return fmt.Errorf("beep: checkpoint fault model (loss=%v false=%v sleep=%v) does not match target network (loss=%v false=%v sleep=%v)",
			c.NoiseLoss, c.NoiseFalse, c.SleepP, n.noise.PLoss, n.noise.PFalse, n.sleep.P)
	}
	for v, m := range n.machines {
		if _, ok := m.(StateCodec); !ok {
			return fmt.Errorf("beep: machine %T of vertex %d does not support checkpointing", m, v)
		}
	}

	// Decode machine states with rollback: a failure at vertex v undoes
	// the decodes of vertices [0, v) so a rejected checkpoint leaves
	// the live network untouched.
	saved := make([][]int64, n.N())
	for v, m := range n.machines {
		codec := m.(StateCodec)
		saved[v] = codec.EncodeState()
		if err := codec.DecodeState(c.Machines[v]); err != nil {
			for u := 0; u <= v; u++ {
				// Re-decoding a state just produced by EncodeState
				// cannot fail for a law-abiding codec; ignore errors to
				// keep the original failure primary.
				_ = n.machines[u].(StateCodec).DecodeState(saved[u])
			}
			return fmt.Errorf("beep: vertex %d: %w", v, err)
		}
	}

	for v := range n.machines {
		n.srcs[v].SetState(c.Streams[v])
	}
	n.noiseSrc.SetState(c.NoiseRNG)
	n.sleepSrc.SetState(c.SleepRNG)
	n.advSrc.SetState(c.AdvRNG)
	n.root.SetState(c.RootRNG)
	n.nextStream = c.NextStream
	n.seed = c.Seed
	if c.Adversaries != nil {
		n.setAdversaries(append([]uint8(nil), c.Adversaries...))
	} else if n.adv != nil {
		n.setAdversaries(make([]uint8, n.N()))
	}
	n.advEpoch = c.AdvEpoch
	n.round = c.Round
	// The sent/heard arrays still describe the pre-restore execution,
	// which invalidates the pipeline's frontier and sender-bit baselines.
	n.sparse.markAll()
	// The restored state shares nothing with whatever baseline the
	// dirty tracker held; the next checkpoint must be a full base.
	n.ckDirty.markAll()
	n.ckDirty.adv = true
	return nil
}

// decodeCheckpointJSON parses and validates a v2 JSON checkpoint, the
// format builds before v3 wrote (DecodeCheckpointAuto routes to it):
// malformed JSON, unsupported format versions, inconsistent vector
// lengths and integrity-hash mismatches all surface as errors, never
// panics.
func decodeCheckpointJSON(data []byte) (*Checkpoint, error) {
	var c Checkpoint
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("beep: read checkpoint: %w", err)
	}
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("beep: read checkpoint: %w", err)
	}
	return &c, nil
}
