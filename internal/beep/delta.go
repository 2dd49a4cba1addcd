package beep

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sync/atomic"
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
// the digest of its FormatVersion, so each link costs O(its own size)
// to seal and verify, never O(n). A chain has one version: ApplyDelta
// refuses a delta whose version differs from the checkpoint's. Loaders
// (internal/ckpt) verify every link's hash and parentage before
// mutating any state; ApplyDelta itself only patches and deliberately
// does not reseal — rebuilding the O(n) checkpoint hash once after the
// last link is the loader's job, not a per-link cost.
//
// Dirty accumulation invariant. The engine marks a slab word dirty
// when any of its vertices advances its random stream or changes
// machine state: the end-of-round drewW|changedW union of the pipeline
// and of a Partition is exactly that set, and Corrupt, InstallRows and
// Machine handles mark their vertices. It marks everything dirty on
// any round or mutation the masks do not describe: reference-loop and
// fault-model rounds, a TryStep round cut short by a contained panic,
// RandomizeAll, Restore, Reseed and Rewire. Adversary-set changes are
// flagged apart (the next delta carries the table). Sent/heard arrays
// are not checkpointed state — Restore rebuilds delivery invariants
// densely — so word-level stream+machine coverage is complete.
//
// Two readers. Every mark feeds two readers, each with its own
// baseline: the checkpoint baseline (Checkpoint, CheckpointDelta,
// Partition.AppendDirtyRows) and the legality probe's change feed
// (ChangedWords, read by core.State.Refresh), so a quiet round costs
// neither a delta nor the probe more than the words that moved. A
// state change outside a marked word would be missed by both.

// Delta is an incremental checkpoint: the dirty-word state patch from
// a parent checkpoint to the capture round.
type Delta struct {
	// FormatVersion is CheckpointFormatVersion at capture time, or 2 for
	// a BCD3 frame an older build wrote; it selects the digest and the
	// frame magic (see CheckpointFormatVersion) and must equal the
	// parent's.
	FormatVersion int
	// GraphFingerprint and Protocol pin the identity like a full
	// checkpoint; ApplyDelta rejects mismatches.
	GraphFingerprint uint64
	Protocol         string
	// Round is the completed-round counter at capture.
	Round int
	// ParentHash is the integrity hash of the chain tip this delta was
	// captured against: the base checkpoint's Hash for the first link,
	// the previous delta's Hash for later links. Chain loaders refuse a
	// link whose ParentHash does not match the tip they assembled.
	ParentHash uint64
	// Words lists the dirty slab words in ascending order; word wi
	// covers vertices [wi*64, min(n, (wi+1)*64)). Machines and Streams
	// hold the state of exactly those vertices, in word order.
	Words    []int32
	Machines [][]int64
	Streams  [][4]uint64
	// Globals are tiny and always carried whole.
	Globals
	// Adversaries is the full policy table when the adversary set
	// changed since the parent, nil when unchanged. The empty non-nil
	// table means "all cooperating now".
	Adversaries []uint8
	// Hash seals the delta's own payload (everything above but the
	// version, which picks the digest instead of entering it).
	Hash uint64
}

// payloadHash computes the digest of the delta's payload (everything
// except FormatVersion and Hash) for its FormatVersion.
func (d *Delta) payloadHash() uint64 {
	p := newPayloadHasher(d.FormatVersion)
	p.put(d.GraphFingerprint)
	p.put(uint64(len(d.Protocol)))
	p.write([]byte(d.Protocol))
	p.put(uint64(d.Round))
	p.put(d.ParentHash)
	p.put(uint64(len(d.Words)))
	for _, w := range d.Words {
		p.put(uint64(uint32(w)))
	}
	return p.sumState(d.Machines, d.Streams, &d.Globals, d.Adversaries)
}

// Seal (re)computes the delta's integrity hash.
func (d *Delta) Seal() { d.Hash = d.payloadHash() }

// Validate checks internal consistency and the integrity hash. It
// never panics, whatever the contents.
func (d *Delta) Validate() error {
	if d == nil {
		return errors.New("beep: nil delta")
	}
	if err := checkFormatVersion("delta", d.FormatVersion); err != nil {
		return err
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
// format version, identity and shape but deliberately neither checks
// c.Hash nor recomputes it — both are O(n) and belong at the chain
// boundary, not per link.
func ApplyDelta(c *Checkpoint, d *Delta) error {
	if err := d.Validate(); err != nil {
		return err
	}
	if c == nil {
		return errors.New("beep: apply delta to nil checkpoint")
	}
	if c.FormatVersion != d.FormatVersion {
		return fmt.Errorf("beep: delta is format version %d, its parent checkpoint version %d", d.FormatVersion, c.FormatVersion)
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
		hi := min(lo+64, n)
		copy(c.Machines[lo:hi], d.Machines[i:])
		i += copy(c.Streams[lo:hi], d.Streams[i:])
	}
	c.Round = d.Round
	c.Globals = d.Globals
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

// dirtyReader is one reader's view of the dirty tracker: the slab words
// dirtied since the reader's last rebaseline. The zero value is
// disarmed, which reads as everything dirty until the first rebaseline.
type dirtyReader struct {
	// armed is set by rebaseline and cleared by markAll; while it is
	// clear the reader reports everything dirty and mask is not kept.
	armed bool
	// n is the vertex count mask is sized for; mask has one bit per
	// slab word, same shape as sparseState.act.
	n    int
	mask []uint64
}

func (r *dirtyReader) markVertex(v int) {
	if !r.armed {
		return
	}
	if v < 0 || v >= r.n {
		r.armed = false
		return
	}
	wi := v >> 6
	r.mask[wi>>6] |= 1 << uint(wi&63)
}

// markWords ORs a word mask into the reader; a mask of another shape
// means the topology changed under the baseline, so it saturates.
func (r *dirtyReader) markWords(m []uint64) {
	if !r.armed {
		return
	}
	if len(m) != len(r.mask) {
		r.armed = false
		return
	}
	for i, w := range m {
		r.mask[i] |= w
	}
}

// rebaseline arms the reader with a clean mask sized for n vertices:
// everything from here on accumulates relative to this call.
func (r *dirtyReader) rebaseline(n int) {
	mw := ((n+63)>>6 + 63) >> 6
	if r.n != n || len(r.mask) != mw {
		r.mask = make([]uint64, mw)
		r.n = n
	} else {
		clearMask(r.mask)
	}
	r.armed = true
}

// dirtyState is the engine's dirty tracker. Every mark feeds two
// readers with their own baselines: ck, rebaselined by each checkpoint
// capture, and probe, rebaselined by each ChangedWords call (the
// legality probe's change feed). Per-round accumulation ORs the
// pipeline's end-of-round activity union into both and costs nothing
// on elided rounds.
type dirtyState struct {
	ck, probe dirtyReader
	// adv is set when the adversary policy table changed since the
	// checkpoint baseline; the next delta then carries the full table.
	adv bool
	// probeTok is the token ChangedWords handed its last caller.
	probeTok uint64
}

// markAll conservatively marks everything dirty, for both readers:
// reference-loop or fault-model rounds, and every external mutation
// without a per-vertex mark.
func (d *dirtyState) markAll() {
	d.ck.armed = false
	d.probe.armed = false
}

func (d *dirtyState) markVertex(v int) {
	d.ck.markVertex(v)
	d.probe.markVertex(v)
}

func (d *dirtyState) markWords(m []uint64) {
	d.ck.markWords(m)
	d.probe.markWords(m)
}

// probeTokens issues the reader tokens of ChangedWords, unique across
// the networks of a process, so a token can only ever match the network
// and the call that issued it.
var probeTokens atomic.Uint64

// ChangedWords is the probe reader of the dirty tracker. It ORs into
// dst — one bit per slab word, the layout of the pipeline's activity
// masks, at least ceil(ceil(N/64)/64) uint64s — every slab word whose
// vertices may have changed machine state since the caller's previous
// call, and rebaselines the reader. tok is the token that previous call
// returned (0 on a first call); the returned token goes into the next.
// The reader follows one caller at a time: when another caller read in
// between, or something the masks do not describe dirtied everything,
// ChangedWords leaves dst alone and reports all, and the caller must
// treat every word as changed. Checkpoint captures do not disturb it.
func (n *Network) ChangedWords(tok uint64, dst []uint64) (next uint64, all bool) {
	d := &n.dirty
	r := &d.probe
	all = tok == 0 || tok != d.probeTok || !r.armed || len(dst) < len(r.mask)
	if !all {
		for i, w := range r.mask {
			dst[i] |= w
		}
	}
	r.rebaseline(n.N())
	d.probeTok = probeTokens.Add(1)
	return d.probeTok, all
}

// DirtyAll reports whether the state dirtied since the last checkpoint
// baseline covers everything (or tracking has no baseline yet), in
// which case a delta would be a full snapshot and the caller should
// write a base instead.
func (n *Network) DirtyAll() bool { return !n.dirty.ck.armed }

// DirtyWords returns the number of slab words dirtied since the last
// checkpoint baseline (the full word count when DirtyAll).
func (n *Network) DirtyWords() int {
	if n.DirtyAll() {
		return (n.N() + 63) >> 6
	}
	cnt := 0
	for _, m := range n.dirty.ck.mask {
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
		FormatVersion:    CheckpointFormatVersion,
		GraphFingerprint: n.graphFingerprint(),
		Protocol:         protocolID(n.proto),
		Round:            n.round,
		ParentHash:       parentHash,
		Globals:          n.globals(),
	}
	if n.dirty.adv {
		d.Adversaries = append([]uint8{}, n.adv...)
	}
	rows, err := n.capture(n.dirty.ck.mask, 0, n.N(), false)
	if err != nil {
		return nil, err
	}
	d.Words, d.Streams, d.Machines = rows.Index, rows.Streams, rows.Machines
	d.Seal()
	return d, nil
}

// ---- Delta frame codec ----

// deltaMagic opens every framed binary delta of a format version.
var deltaMagic = map[int][4]byte{formatV2: {'B', 'C', 'D', '3'}, CheckpointFormatVersion: {'B', 'C', 'D', '4'}}

// ErrTornFrame reports a delta frame cut short at the end of the
// input: the signature of a crash mid-append, recoverable by
// truncating the tail. Any other malformation — bad magic, a complete
// frame whose payload does not parse or hash — is a hard error.
var ErrTornFrame = errors.New("beep: torn delta frame (truncated tail)")

// EncodeDelta serializes a sealed delta as one self-delimiting binary
// frame: magic, u32 payload length, payload. The magic names the
// format version (BCD4 for version 4, BCD3 for version 2); the payload
// layout is the same for both. Appending frames to a file yields a
// chain readable by DecodeDeltaFrame. The payload is the fixed header,
// the protocol identity, the dirty words and their vertex states as one
// state-row section (rows.go), and the optional adversary table.
func EncodeDelta(d *Delta) ([]byte, error) {
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("beep: encode delta: %w", err)
	}
	le := binary.LittleEndian
	size := 8 + 6*8 + 4*32 + 4 + len(d.Protocol) + 1 + 8 + 4*len(d.Words) + 34*len(d.Machines) + 4 + len(d.Adversaries)
	magic := deltaMagic[d.FormatVersion]
	frame := append(make([]byte, 0, size), magic[:]...)
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

// DecodeDeltaFrame parses one delta frame of either version from the
// front of data, returning the delta and the remaining bytes; the magic
// sets the delta's FormatVersion. A frame cut short by the end of input
// returns ErrTornFrame (recoverable tail truncation); every other
// malformation is a hard error. The returned delta has passed Validate
// (its own hash verified).
func DecodeDeltaFrame(data []byte) (*Delta, []byte, error) {
	if len(data) < 4 {
		return nil, nil, fmt.Errorf("%w: %d bytes of header", ErrTornFrame, len(data))
	}
	version := magicVersion(deltaMagic, data)
	if version == 0 {
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
	d.FormatVersion = version
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
	if hasAdv > 1 {
		return nil, fmt.Errorf("beep: delta adversary flag %d is neither 0 nor 1", hasAdv)
	}
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
