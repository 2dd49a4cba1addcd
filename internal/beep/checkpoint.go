package beep

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"sync"

	"repro/internal/graph"
)

// StateCodec is implemented by machines that support checkpointing: a
// vertex's mutable state (its RAM) as integers. Together with the
// per-vertex random-stream states this makes executions exactly
// resumable. Machine state moves through these two calls only: in the
// network's one capture and one install (rows.go) and in Rewire.
type StateCodec interface {
	// AppendState appends the machine's mutable state to dst and
	// returns the extended slice.
	AppendState(dst []int64) []int64
	// DecodeState restores a state produced by AppendState; it returns
	// an error for malformed input. It must not retain state: callers
	// reuse the slice.
	DecodeState(state []int64) error
}

// CheckpointFormatVersion is the format every capture writes. The
// version picks the integrity digest and the binary magics, nothing
// else; both readable versions share one payload and one section
// layout:
//
//	version  digest                       snapshot  delta  written by
//	2        FNV-1a 64                    BCS3      BCD3   older builds (also v2 JSON)
//	4        CRC-32C, zero-extended to 64  BCS4      BCD4   every capture of this build
//
// Version 2 added the identity header (graph fingerprint, protocol,
// seed, noise/sleep parameters), the adversary state (policy array,
// dedicated stream, epoch) and the root-stream/next-stream state needed
// for exact joiner randomness after a resumed Rewire. Version 4 swaps
// the byte-serial FNV-1a for CRC-32C, which the hardware computes in
// bulk. Version-1 checkpoints (which silently dropped the identity and
// could diverge on resume) and every other version are rejected.
const CheckpointFormatVersion = 4

// formatV2 is the version builds before CheckpointFormatVersion 4 wrote:
// FNV-1a sealed, BCS3/BCD3 or JSON encoded. It stays readable.
const formatV2 = 2

// checkFormatVersion rejects a version this build cannot read.
func checkFormatVersion(what string, v int) error {
	if v != CheckpointFormatVersion && v != formatV2 {
		return fmt.Errorf("beep: %s format version %d, this build reads only versions %d and %d",
			what, v, formatV2, CheckpointFormatVersion)
	}
	return nil
}

// Checkpoint is a serializable snapshot of a running network: an
// identity header binding it to the (graph, protocol, seed, fault
// model) it was captured from, the full execution state (round counter,
// every machine's state, every random stream), and an integrity digest
// over the payload, computed as its FormatVersion says. EncodeSnapshot
// and DecodeCheckpointAuto enforce the digest at the serialization
// boundary and Network.Restore enforces the identity header, so a
// checkpoint can neither be corrupted in flight nor restored onto the
// wrong run without an error. (The JSON tags are the v2 JSON encoding,
// which this build still reads.)
type Checkpoint struct {
	// FormatVersion is CheckpointFormatVersion at capture time, or the
	// version of an older build's file; it selects the digest.
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
	// Globals are the fault-model and allocator streams and the epoch.
	Globals
	// Adversaries is the per-vertex policy array (one byte per vertex,
	// 0 = cooperating; see AdversaryPolicy), nil when no adversaries
	// are installed.
	Adversaries []uint8 `json:"adversaries,omitempty"`

	// Hash is the digest of every field above, in canonical order:
	// CRC-32C zero-extended at version 4, FNV-1a at version 2. It
	// depends on the version, never on the encoding. EncodeSnapshot
	// refuses to persist a checkpoint whose hash does not match its
	// payload, and the decoders and Restore reject one whose payload
	// does not match its hash.
	Hash uint64 `json:"hash"`
}

// Globals are the network-wide fields a Checkpoint and a Delta both
// carry whole. Embedding keeps their JSON names at the top level of a
// v2 checkpoint.
type Globals struct {
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
	// AdvEpoch is the epoch counter legality observers key their
	// adversary masks on.
	AdvEpoch uint64 `json:"advEpoch"`
}

// globals captures the network's Globals.
func (n *Network) globals() Globals {
	return Globals{
		NoiseRNG:   n.noiseSrc.State(),
		SleepRNG:   n.sleepSrc.State(),
		AdvRNG:     n.advSrc.State(),
		RootRNG:    n.root.State(),
		NextStream: n.nextStream,
		AdvEpoch:   n.advEpoch,
	}
}

// protocolID derives the protocol identity recorded in checkpoints.
func protocolID(p Protocol) string {
	return fmt.Sprintf("%T/%dch", p, p.Channels())
}

// castagnoli is the CRC-32C table, built on first use so that processes
// which never seal a checkpoint do not pay for it at start-up.
var castagnoli = sync.OnceValue(func() *crc32.Table { return crc32.MakeTable(crc32.Castagnoli) })

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// payloadHasher computes the integrity digest of checkpoint and delta
// payloads over one canonical stream of little-endian u64 words and raw
// bytes. The stream is staged in a pooled buffer and reaches the digest
// in bulk: CRC-32C for version 4, FNV-1a for version 2 (and CRC-32C for
// any other version, which Validate rejects before comparing digests).
type payloadHasher struct {
	fnv bool
	sum uint64 // FNV-1a state, or the CRC-32C state in the low 32 bits
	n   int
	buf *[16 << 10]byte
}

// stagingBufs recycles the hashers' staging buffers across seals.
var stagingBufs = sync.Pool{New: func() any { return new([16 << 10]byte) }}

func newPayloadHasher(version int) payloadHasher {
	p := payloadHasher{fnv: version == formatV2, buf: stagingBufs.Get().(*[16 << 10]byte)}
	if p.fnv {
		p.sum = fnvOffset64
	}
	return p
}

// flush feeds the staged bytes to the digest.
func (p *payloadHasher) flush() {
	b := p.buf[:p.n]
	p.n = 0
	if !p.fnv {
		p.sum = uint64(crc32.Update(uint32(p.sum), castagnoli(), b))
		return
	}
	h := p.sum
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	p.sum = h
}

// reserve returns the next k staged bytes, flushing first when they do
// not fit; k must not exceed the buffer.
func (p *payloadHasher) reserve(k int) []byte {
	if p.n+k > len(p.buf) {
		p.flush()
	}
	b := p.buf[p.n : p.n+k]
	p.n += k
	return b
}

func (p *payloadHasher) put(x uint64) { binary.LittleEndian.PutUint64(p.reserve(8), x) }

func (p *payloadHasher) write(b []byte) {
	for len(b) > 0 {
		if p.n == len(p.buf) {
			p.flush()
		}
		k := copy(p.buf[p.n:], b)
		p.n += k
		b = b[k:]
	}
}

// sumState hashes the section every payload ends with — the machine and
// stream rows, the Globals and the adversary table — and returns the
// digest. A checkpoint and a delta hash these fields identically.
func (p *payloadHasher) sumState(machines [][]int64, streams [][4]uint64, g *Globals, adversaries []uint8) uint64 {
	le := binary.LittleEndian
	p.put(uint64(len(machines)))
	for _, m := range machines {
		if 8*(len(m)+1) > len(p.buf) {
			// A row longer than the staging buffer goes word by word.
			p.put(uint64(len(m)))
			for _, s := range m {
				p.put(uint64(s))
			}
			continue
		}
		b := p.reserve(8 * (len(m) + 1))
		le.PutUint64(b, uint64(len(m)))
		for i, s := range m {
			le.PutUint64(b[8+8*i:], uint64(s))
		}
	}
	p.put(uint64(len(streams)))
	for _, s := range streams {
		b := p.reserve(32)
		le.PutUint64(b, s[0])
		le.PutUint64(b[8:], s[1])
		le.PutUint64(b[16:], s[2])
		le.PutUint64(b[24:], s[3])
	}
	for _, rng := range [4][4]uint64{g.NoiseRNG, g.SleepRNG, g.AdvRNG, g.RootRNG} {
		for _, w := range rng {
			p.put(w)
		}
	}
	p.put(g.NextStream)
	p.put(uint64(len(adversaries)))
	p.write(adversaries)
	p.put(g.AdvEpoch)
	p.flush()
	stagingBufs.Put(p.buf)
	p.buf = nil
	return p.sum
}

// payloadHash computes the digest of the checkpoint's payload
// (everything except Hash itself) for its FormatVersion.
func (c *Checkpoint) payloadHash() uint64 {
	p := newPayloadHasher(c.FormatVersion)
	p.put(uint64(c.FormatVersion))
	p.put(c.GraphFingerprint)
	p.put(uint64(c.GraphN))
	p.put(uint64(c.GraphM))
	p.put(uint64(len(c.Protocol)))
	p.write([]byte(c.Protocol))
	p.put(c.Seed)
	p.put(math.Float64bits(c.NoiseLoss))
	p.put(math.Float64bits(c.NoiseFalse))
	p.put(math.Float64bits(c.SleepP))
	p.put(uint64(c.Round))
	return p.sumState(c.Machines, c.Streams, &c.Globals, c.Adversaries)
}

// Seal (re)computes the integrity hash over the current payload with the
// digest of c.FormatVersion. It is called by Network.Checkpoint; callers
// that build or mutate a Checkpoint by hand must re-seal it or
// Write/Restore will reject it.
func (c *Checkpoint) Seal() { c.Hash = c.payloadHash() }

// Validate checks the checkpoint's internal consistency: format
// version, non-negative round, matching vector lengths and integrity
// hash. It never panics, whatever the contents.
func (c *Checkpoint) Validate() error {
	if c == nil {
		return fmt.Errorf("beep: nil checkpoint")
	}
	if err := checkFormatVersion("checkpoint", c.FormatVersion); err != nil {
		return err
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
// The capture is a complete baseline: dirty tracking restarts from it,
// so a later CheckpointDelta captures exactly the words that moved
// since this call (see delta.go).
func (n *Network) Checkpoint() (*Checkpoint, error) {
	if n.failed != nil {
		return nil, fmt.Errorf("beep: checkpoint of failed network: %w", n.failed)
	}
	rows, err := n.capture(nil, 0, n.N(), false)
	if err != nil {
		return nil, err
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
		Machines:         rows.Machines,
		Streams:          rows.Streams,
		Globals:          n.globals(),
		Adversaries:      append([]uint8(nil), n.adv...),
	}
	c.Seal()
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
	all := make([]int32, n.N())
	for v := range all {
		all[v] = int32(v)
	}
	if err := n.install(all, c.Streams, c.Machines); err != nil {
		return err
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
	// dirty tracker held; the next checkpoint must be a full base, and
	// the probe must re-read every word.
	n.dirty.markAll()
	n.dirty.adv = true
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
