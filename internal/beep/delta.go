package beep

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math/bits"
)

// Incremental delta checkpoints. A Delta carries the state of exactly
// the slab words (64-vertex groups, the same granularity as the sparse
// path's activity masks) dirtied since the parent checkpoint, plus the
// always-tiny global fields (round counter, aux RNG states, stream
// allocator, adversary epoch). Applied on top of its parent it
// reproduces the full checkpoint bit-exactly, so a base snapshot plus
// a chain of deltas is equivalent to a chain of full snapshots at a
// cost proportional to the words that actually moved — in a
// stabilized self-stabilizing execution, near zero.
//
// Chain discipline. Every delta records ParentHash — the hash of the
// chain tip it extends (the base checkpoint's for the first link, the
// previous delta's for later ones) — and seals its own payload with
// the same FNV-1a construction, so each link costs O(its own size) to
// seal and verify, never O(n). Loaders (internal/ckpt) verify
// every link's hash and parentage before mutating any state; ApplyDelta
// itself only patches and deliberately does not reseal — rebuilding
// the O(n) checkpoint hash once after the last link is the loader's
// job, not a per-link cost.
//
// Dirty accumulation invariant. The engine marks a slab word dirty
// when any of its vertices advances its random stream or changes
// machine state (the pipeline's end-of-round drewW|changedW union
// is exactly that set), and marks everything dirty on any round or
// mutation the masks do not describe: reference-loop rounds,
// fault-model rounds, Corrupt, RandomizeAll, Restore, Reseed, Rewire, retained
// Machine handles, adversary-set changes. Sent/heard arrays are not
// checkpointed state — Restore rebuilds delivery invariants densely —
// so word-level stream+machine coverage is complete.

// Delta is an incremental checkpoint: the dirty-word state patch from
// a parent checkpoint to the capture round.
type Delta struct {
	// GraphFingerprint and Protocol pin the identity like a full
	// checkpoint; ApplyDelta rejects mismatches.
	GraphFingerprint uint64 `json:"graphFingerprint"`
	Protocol         string `json:"protocol"`
	// Round is the completed-round counter at capture.
	Round int `json:"round"`
	// ParentHash is the integrity hash of the chain tip this delta was
	// captured against: the base checkpoint's Hash for the first link,
	// the previous delta's Hash for later links. Chain loaders refuse a
	// link whose ParentHash does not match the tip they assembled.
	ParentHash uint64 `json:"parentHash"`
	// Words lists the dirty slab words in ascending order; word wi
	// covers vertices [wi*64, min(n, (wi+1)*64)). Machines and Streams
	// hold the state of exactly those vertices, in word order.
	Words    []int32     `json:"words"`
	Machines [][]int64   `json:"machines"`
	Streams  [][4]uint64 `json:"streams"`
	// The global fields below are tiny and always carried.
	NoiseRNG   [4]uint64 `json:"noiseRng"`
	SleepRNG   [4]uint64 `json:"sleepRng"`
	AdvRNG     [4]uint64 `json:"advRng"`
	RootRNG    [4]uint64 `json:"rootRng"`
	NextStream uint64    `json:"nextStream"`
	AdvEpoch   uint64    `json:"advEpoch"`
	// Adversaries is the full policy table when the adversary set
	// changed since the parent, nil when unchanged. The empty non-nil
	// table means "all cooperating now".
	Adversaries []uint8 `json:"adversaries,omitempty"`
	// Hash seals the delta's own payload (everything above).
	Hash uint64 `json:"hash"`
}

// payloadHash computes the canonical FNV-1a digest of the delta's
// payload (everything except Hash itself).
func (d *Delta) payloadHash() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	put(d.GraphFingerprint)
	put(uint64(len(d.Protocol)))
	h.Write([]byte(d.Protocol))
	put(uint64(d.Round))
	put(d.ParentHash)
	put(uint64(len(d.Words)))
	for _, w := range d.Words {
		put(uint64(uint32(w)))
	}
	put(uint64(len(d.Machines)))
	for _, m := range d.Machines {
		put(uint64(len(m)))
		for _, s := range m {
			put(uint64(s))
		}
	}
	put(uint64(len(d.Streams)))
	for _, s := range d.Streams {
		for _, w := range s {
			put(w)
		}
	}
	for _, w := range d.NoiseRNG {
		put(w)
	}
	for _, w := range d.SleepRNG {
		put(w)
	}
	for _, w := range d.AdvRNG {
		put(w)
	}
	for _, w := range d.RootRNG {
		put(w)
	}
	put(d.NextStream)
	put(uint64(len(d.Adversaries)))
	h.Write(d.Adversaries)
	put(d.AdvEpoch)
	return h.Sum64()
}

// Seal (re)computes the delta's integrity hash.
func (d *Delta) Seal() { d.Hash = d.payloadHash() }

// Validate checks internal consistency and the integrity hash. It
// never panics, whatever the contents.
func (d *Delta) Validate() error {
	if d == nil {
		return errors.New("beep: nil delta")
	}
	if d.Round < 0 {
		return fmt.Errorf("beep: delta with negative round %d", d.Round)
	}
	if len(d.Machines) != len(d.Streams) {
		return fmt.Errorf("beep: delta has %d machine states but %d stream states", len(d.Machines), len(d.Streams))
	}
	prev := int32(-1)
	for _, w := range d.Words {
		if w <= prev {
			return fmt.Errorf("beep: delta word list not strictly ascending at word %d", w)
		}
		prev = w
	}
	// The covered vertex count is between 64·(words-1)+1 and 64·words
	// (the last word may be partial); exact sizing is validated against
	// the parent in ApplyDelta.
	if len(d.Words) > 0 {
		max := len(d.Words) * 64
		min := (len(d.Words)-1)*64 + 1
		if len(d.Machines) > max || len(d.Machines) < min {
			return fmt.Errorf("beep: delta covers %d words but carries %d vertex states", len(d.Words), len(d.Machines))
		}
	} else if len(d.Machines) != 0 {
		return fmt.Errorf("beep: delta carries %d vertex states with no dirty words", len(d.Machines))
	}
	if got := d.payloadHash(); got != d.Hash {
		return fmt.Errorf("beep: delta integrity hash mismatch (payload %#x, header %#x): corrupted or tampered", got, d.Hash)
	}
	return nil
}

// ApplyDelta patches c in place with the delta's dirty-word state.
// The caller is responsible for chain order (ParentHash checking) and
// for resealing c after the last delta of a chain; ApplyDelta verifies
// identity and shape but deliberately neither checks c.Hash nor
// recomputes it — both are O(n) and belong at the chain boundary, not
// per link.
func ApplyDelta(c *Checkpoint, d *Delta) error {
	if err := d.Validate(); err != nil {
		return err
	}
	if c == nil {
		return errors.New("beep: apply delta to nil checkpoint")
	}
	if c.GraphFingerprint != d.GraphFingerprint {
		return fmt.Errorf("beep: delta captured on graph %#x, checkpoint holds %#x", d.GraphFingerprint, c.GraphFingerprint)
	}
	if c.Protocol != d.Protocol {
		return fmt.Errorf("beep: delta captured under protocol %s, checkpoint holds %s", d.Protocol, c.Protocol)
	}
	n := len(c.Machines)
	// Validate every word index before the first write: a bad delta
	// must leave the checkpoint untouched.
	i := 0
	for _, w := range d.Words {
		lo := int(w) * 64
		hi := lo + 64
		if hi > n {
			hi = n
		}
		if lo < 0 || lo >= n {
			return fmt.Errorf("beep: delta word %d out of range for %d vertices", w, n)
		}
		i += hi - lo
	}
	if i != len(d.Machines) {
		return fmt.Errorf("beep: delta words cover %d vertices but carry %d states", i, len(d.Machines))
	}
	if d.Adversaries != nil && len(d.Adversaries) != 0 && len(d.Adversaries) != n {
		return fmt.Errorf("beep: delta adversary table covers %d vertices, checkpoint has %d", len(d.Adversaries), n)
	}
	i = 0
	for _, w := range d.Words {
		lo := int(w) * 64
		hi := lo + 64
		if hi > n {
			hi = n
		}
		for v := lo; v < hi; v++ {
			c.Machines[v] = d.Machines[i]
			c.Streams[v] = d.Streams[i]
			i++
		}
	}
	c.Round = d.Round
	c.NoiseRNG = d.NoiseRNG
	c.SleepRNG = d.SleepRNG
	c.AdvRNG = d.AdvRNG
	c.RootRNG = d.RootRNG
	c.NextStream = d.NextStream
	c.AdvEpoch = d.AdvEpoch
	if d.Adversaries != nil {
		if len(d.Adversaries) == 0 {
			c.Adversaries = nil
		} else {
			c.Adversaries = append([]uint8(nil), d.Adversaries...)
		}
	}
	return nil
}

// ---- Dirty-word tracking (the engine side) ----

// dirtyState accumulates the slab words dirtied since the last
// checkpoint baseline. It starts conservative (everything dirty,
// tracking disarmed) and is armed by the first baseline capture;
// per-round accumulation is a fused OR into the pipeline's
// end-of-round activity union and costs nothing on elided rounds.
type dirtyState struct {
	// enabled is set by the first baseline; until then no accumulation
	// happens (all stays true).
	enabled bool
	// all conservatively marks everything dirty: initial state, dense
	// or fault-model rounds, and every external mutation without a
	// per-vertex mark.
	all bool
	// adv is set when the adversary policy table changed since the
	// baseline; the next delta then carries the full table.
	adv bool
	// n is the vertex count mask is sized for; mask has one bit per
	// slab word, same shape as sparseState.act.
	n    int
	mask []uint64
}

func (d *dirtyState) markAll() { d.all = true }

// accum returns the mask the round loop should OR its end-of-round
// activity union into, or nil when tracking is disarmed, saturated, or
// sized for a different network (then saturate: a resize means the
// topology changed under the baseline). mw is the caller's mask length.
func (d *dirtyState) accum(mw int) []uint64 {
	if !d.enabled || d.all {
		return nil
	}
	if len(d.mask) != mw {
		d.all = true
		return nil
	}
	return d.mask
}

func (d *dirtyState) markVertex(v int) {
	if d.all || !d.enabled {
		d.all = true
		return
	}
	if v < 0 || v >= d.n {
		d.all = true
		return
	}
	wi := v >> 6
	d.mask[wi>>6] |= 1 << uint(wi&63)
}

// rebaseline arms tracking with a clean mask sized for n vertices:
// everything from here on accumulates relative to the checkpoint the
// caller just captured.
func (d *dirtyState) rebaseline(n int) {
	mw := ((n+63)>>6 + 63) >> 6
	if d.n != n || len(d.mask) != mw {
		d.mask = make([]uint64, mw)
		d.n = n
	} else {
		clearMask(d.mask)
	}
	d.all = false
	d.enabled = true
}

// DirtyAll reports whether the state dirtied since the last checkpoint
// baseline covers everything (or tracking has no baseline yet), in
// which case a delta would be a full snapshot and the caller should
// write a base instead.
func (n *Network) DirtyAll() bool { return n.ckDirty.all || !n.ckDirty.enabled }

// DirtyWords returns the number of slab words dirtied since the last
// checkpoint baseline (the full word count when DirtyAll).
func (n *Network) DirtyWords() int {
	if n.DirtyAll() {
		return (n.N() + 63) >> 6
	}
	cnt := 0
	for _, m := range n.ckDirty.mask {
		cnt += bits.OnesCount64(m)
	}
	return cnt
}

// CheckpointDelta captures an incremental checkpoint: the state of
// exactly the slab words dirtied since the last baseline (a Checkpoint
// or CheckpointDelta call), chained to the parent by parentHash. It
// fails when no baseline is armed or everything is dirty — the caller
// must write a base snapshot then (see DirtyAll) — and on the same
// conditions that fail Checkpoint. On success the dirty baseline
// resets: the next delta accumulates from this one.
func (n *Network) CheckpointDelta(parentHash uint64) (*Delta, error) {
	if n.failed != nil {
		return nil, fmt.Errorf("beep: delta checkpoint of failed network: %w", n.failed)
	}
	if n.DirtyAll() {
		return nil, errors.New("beep: delta checkpoint with everything dirty: write a base snapshot instead (see DirtyAll)")
	}
	d := &Delta{
		GraphFingerprint: n.graphFingerprint(),
		Protocol:         protocolID(n.proto),
		Round:            n.round,
		ParentHash:       parentHash,
		NoiseRNG:         n.noiseSrc.State(),
		SleepRNG:         n.sleepSrc.State(),
		AdvRNG:           n.advSrc.State(),
		RootRNG:          n.root.State(),
		NextStream:       n.nextStream,
		AdvEpoch:         n.advEpoch,
	}
	if n.ckDirty.adv {
		if n.adv != nil {
			d.Adversaries = append([]uint8(nil), n.adv...)
		} else {
			d.Adversaries = []uint8{}
		}
	}
	N := n.N()
	verts := 0
	for _, m := range n.ckDirty.mask {
		verts += bits.OnesCount64(m) * 64
	}
	d.Words = make([]int32, 0, (verts+63)/64)
	d.Machines = make([][]int64, 0, verts)
	d.Streams = make([][4]uint64, 0, verts)
	for mi, m := range n.ckDirty.mask {
		for m != 0 {
			b := bits.TrailingZeros64(m)
			m &= m - 1
			wi := mi<<6 + b
			lo := wi << 6
			hi := lo + 64
			if hi > N {
				hi = N
			}
			if lo >= N {
				continue
			}
			d.Words = append(d.Words, int32(wi))
			for v := lo; v < hi; v++ {
				codec, ok := n.machines[v].(StateCodec)
				if !ok {
					return nil, fmt.Errorf("beep: machine %T of vertex %d does not support checkpointing", n.machines[v], v)
				}
				d.Machines = append(d.Machines, codec.EncodeState())
				d.Streams = append(d.Streams, n.srcs[v].State())
			}
		}
	}
	d.Seal()
	n.ckDirty.rebaseline(N)
	n.ckDirty.adv = false
	return d, nil
}

// ---- Delta frame codec ----

// deltaMagic opens every framed binary delta.
var deltaMagic = [4]byte{'B', 'C', 'D', '3'}

// ErrTornFrame reports a delta frame cut short at the end of the
// input: the signature of a crash mid-append, recoverable by
// truncating the tail. Any other malformation — bad magic, a complete
// frame whose payload does not parse or hash — is a hard error.
var ErrTornFrame = errors.New("beep: torn delta frame (truncated tail)")

// EncodeDelta serializes a sealed delta as one self-delimiting binary
// frame: magic, u32 payload length, payload. Appending frames to a
// file yields a chain readable by DecodeDeltaFrame. The payload is the
// fixed header, the protocol identity, the dirty words and their
// vertex states as one state-row section (rows.go), and the optional
// adversary table.
func EncodeDelta(d *Delta) ([]byte, error) {
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("beep: encode delta: %w", err)
	}
	le := binary.LittleEndian
	size := 8 + 6*8 + 4*32 + 4 + len(d.Protocol) + 1 + 8 + 4*len(d.Words) + 34*len(d.Machines) + 4 + len(d.Adversaries)
	frame := append(make([]byte, 0, size), deltaMagic[:]...)
	frame = append(frame, 0, 0, 0, 0) // payload length, patched below
	for _, x := range [6]uint64{d.GraphFingerprint, uint64(d.Round), d.ParentHash, d.NextStream, d.AdvEpoch, d.Hash} {
		frame = le.AppendUint64(frame, x)
	}
	for _, rng := range [4][4]uint64{d.NoiseRNG, d.SleepRNG, d.AdvRNG, d.RootRNG} {
		for _, w := range rng {
			frame = le.AppendUint64(frame, w)
		}
	}
	frame = le.AppendUint32(frame, uint32(len(d.Protocol)))
	frame = append(frame, d.Protocol...)
	if d.Adversaries != nil {
		frame = append(frame, 1)
	} else {
		frame = append(frame, 0)
	}
	frame = AppendStateRows(frame, &StateRows{Index: d.Words, Streams: d.Streams, Machines: d.Machines})
	if d.Adversaries != nil {
		frame = le.AppendUint32(frame, uint32(len(d.Adversaries)))
		frame = append(frame, d.Adversaries...)
	}
	le.PutUint32(frame[4:], uint32(len(frame)-8))
	return frame, nil
}

// DecodeDeltaFrame parses one delta frame from the front of data,
// returning the delta and the remaining bytes. A frame cut short by
// the end of input returns ErrTornFrame (recoverable tail truncation);
// every other malformation is a hard error. The returned delta has
// passed Validate (its own hash verified).
func DecodeDeltaFrame(data []byte) (*Delta, []byte, error) {
	if len(data) < 4 {
		return nil, nil, fmt.Errorf("%w: %d bytes of header", ErrTornFrame, len(data))
	}
	if !bytes.Equal(data[0:4], deltaMagic[:]) {
		return nil, nil, fmt.Errorf("beep: bad delta frame magic %q", data[0:4])
	}
	if len(data) < 8 {
		return nil, nil, fmt.Errorf("%w: %d bytes of header", ErrTornFrame, len(data))
	}
	plen := int(binary.LittleEndian.Uint32(data[4:8]))
	if plen < 0 || 8+plen > len(data) {
		return nil, nil, fmt.Errorf("%w: frame claims %d payload bytes, %d remain", ErrTornFrame, plen, len(data)-8)
	}
	d, err := decodeDeltaPayload(data[8 : 8+plen])
	if err != nil {
		return nil, nil, err
	}
	if err := d.Validate(); err != nil {
		return nil, nil, err
	}
	return d, data[8+plen:], nil
}

func decodeDeltaPayload(p []byte) (*Delta, error) {
	le := binary.LittleEndian
	const fixed = 6*8 + 4*32 + 4
	if len(p) < fixed {
		return nil, fmt.Errorf("beep: delta payload truncated: %d bytes", len(p))
	}
	d := &Delta{}
	d.GraphFingerprint = le.Uint64(p[0:])
	round := le.Uint64(p[8:])
	d.ParentHash = le.Uint64(p[16:])
	d.NextStream = le.Uint64(p[24:])
	d.AdvEpoch = le.Uint64(p[32:])
	d.Hash = le.Uint64(p[40:])
	off := 48
	rngs := [4]*[4]uint64{&d.NoiseRNG, &d.SleepRNG, &d.AdvRNG, &d.RootRNG}
	for i, rng := range rngs {
		base := off + i*32
		for k := range rng {
			rng[k] = le.Uint64(p[base+k*8:])
		}
	}
	off += 4 * 32
	if round > uint64(1)<<62 {
		return nil, fmt.Errorf("beep: delta round %d out of range", round)
	}
	d.Round = int(round)
	protoLen := int(le.Uint32(p[off:]))
	off += 4
	if protoLen < 0 || protoLen > snapMaxProto || off+protoLen+1 > len(p) {
		return nil, fmt.Errorf("beep: delta protocol length %d out of range", protoLen)
	}
	d.Protocol = string(p[off : off+protoLen])
	off += protoLen
	hasAdv := p[off]
	rows, rest, err := DecodeStateRows(p[off+1:])
	if err != nil {
		return nil, fmt.Errorf("beep: delta: %w", err)
	}
	d.Words, d.Streams, d.Machines = rows.Index, rows.Streams, rows.Machines
	if hasAdv == 1 {
		if len(rest) < 4 {
			return nil, fmt.Errorf("beep: delta adversary table truncated")
		}
		na := int(le.Uint32(rest))
		rest = rest[4:]
		if na < 0 || na > len(rest) {
			return nil, fmt.Errorf("beep: delta adversary table of %d entries exceeds payload", na)
		}
		d.Adversaries = append([]uint8{}, rest[:na]...)
		rest = rest[na:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("beep: delta payload has %d trailing bytes", len(rest))
	}
	return d, nil
}
